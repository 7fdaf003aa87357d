"""Exact integer linear algebra: fraction-free elimination, Hermite bases.

Bareiss elimination (Math. Comp. 22, 1968) keeps every entry an integer:
after k pivots each active entry is a (k+1)-minor of the input, so every
update divides exactly by the previous pivot, and the k-th pivot is the
k-th leading minor of the row-permuted matrix.  Hermite bases follow
Cohen, GTM 138, section 2.4.
"""

from .errors import InvalidParameter


def _bareiss(rows):
    """(pivots, row swaps) of one fraction-free echelon pass.

    Columns with no nonzero active entry are skipped, so len(pivots) is
    the rank; at full rank the last pivot is (-1)^swaps det.
    """
    a = [list(r) for r in rows]
    pivots, swaps, prev = [], 0, 1
    for c in range(len(a[0]) if a else 0):
        k = len(pivots)
        piv = next((r for r in range(k, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            swaps += 1
        top = a[k]
        p = top[c]
        for row in a[k + 1:]:
            x = row[c]
            row[c:] = [0] + [(p * y - x * z) // prev
                             for y, z in zip(row[c + 1:], top[c + 1:])]
        pivots.append(p)
        prev = p
    return pivots, swaps


def det(m):
    """Determinant of a square integer matrix."""
    pivots, swaps = _bareiss(m)
    if len(pivots) < len(m):
        return 0
    return (-1) ** swaps * pivots[-1] if pivots else 1


def rank(m):
    """Rank of an integer matrix (a list of rows)."""
    return len(_bareiss(m)[0])


def is_positive_definite(m):
    """Sylvester's criterion for a symmetric integer matrix.

    Without a row swap the pivots are the leading principal minors; a
    swap means one of them vanished.
    """
    pivots, swaps = _bareiss(m)
    return swaps == 0 and len(pivots) == len(m) and all(
        p > 0 for p in pivots)


def hnf_basis(gens):
    """Basis of the Z-span of the generators (integer row Hermite form)."""
    n = len(gens[0])
    rows = [list(r) for r in gens if any(r)]
    basis = []
    for col in range(n):
        while True:
            cand = [r for r in rows if r[col] != 0]
            if len(cand) <= 1:
                break
            cand.sort(key=lambda r: abs(r[col]))
            r0 = cand[0]
            for r in cand[1:]:
                qq = r[col] // r0[col]
                for c in range(n):
                    r[c] -= qq * r0[c]
            rows = [r for r in rows if any(r)]
        cand = [r for r in rows if r[col] != 0]
        if cand:
            piv = cand[0]
            if piv[col] < 0:
                for c in range(n):
                    piv[c] = -piv[c]
            basis.append(piv)
            rows.remove(piv)
    if any(any(r) for r in rows):
        raise InvalidParameter("Hermite reduction left nonzero rows")
    return basis

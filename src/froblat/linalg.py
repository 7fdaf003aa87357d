"""Exact integer linear algebra: fraction-free elimination, Hermite bases,
and elimination over Z/p^E.

Bareiss elimination (Math. Comp. 22, 1968) keeps every entry an integer:
after k pivots each active entry is a (k+1)-minor of the input, so every
update divides exactly by the previous pivot, and the k-th pivot is the
k-th leading minor of the row-permuted matrix.  Hermite bases follow
Cohen, GTM 138, section 2.4.  The Jordan splitting and the kernel vector
work modulo p^E and pivot on an entry of least p-adic valuation.
"""

from itertools import chain

from .errors import InvalidParameter
from .padics import _valuation


def _bareiss(rows):
    """(pivot rows, row swaps) of one fraction-free echelon pass.

    Each pivot row is kept as it was when it pivoted: zero before its
    pivot column, its pivot the k-th leading minor of the row-permuted
    matrix.  Columns with no nonzero active entry are skipped, so there
    are rank-many rows.
    """
    a = [list(r) for r in rows]
    k, swaps, prev = 0, 0, 1
    for c in range(len(a[0]) if a else 0):
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
        k += 1
        prev = p
    return a[:k], swaps


def det(m):
    """Determinant of a square integer matrix: (-1)^swaps P_(n-1)."""
    rows, swaps = _bareiss(m)
    if len(rows) < len(m):
        return 0
    return (-1) ** swaps * rows[-1][-1] if rows else 1


def pivot_rows(m):
    """The Bareiss pivot rows of a symmetric integer matrix m if it is
    positive definite, else None.

    Sylvester's criterion: without a row swap the pivots, the diagonal
    entries of the pivot rows, are the leading principal minors; a swap
    means one of them vanished.  Row i is P_(i-1) times row i of the
    Gaussian U, so m = sum_i r_i^T r_i / (P_i P_(i-1)) with P_(-1) = 1.
    """
    rows, swaps = _bareiss(m)
    if swaps or len(rows) < len(m) or any(
            r[i] <= 0 for i, r in enumerate(rows)):
        return None
    return rows


def is_positive_definite(m):
    """Sylvester's criterion for a symmetric integer matrix."""
    return pivot_rows(m) is not None


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


def _least_valuation(entries, p):
    """(v, key) for the first nonzero value of least p-valuation, or None.

    ``entries`` yields (value, key) pairs; a tie goes to the earlier pair.
    """
    best = None
    for x, key in entries:
        if x:
            v = _valuation(x, p)
            if best is None or v < best[0]:
                best = (v, key)
                if v == 0:
                    break
    return best


def jordan_split(gram, ell, d):
    """Jordan splitting over Z_l of the form Q(v) = v^T G v / 2.

    G is an even Gram matrix and d = det G, nonzero, is passed in by the
    caller, which holds it already.  The work is done on integers mod l^K
    with K = v_l(d) + 1 at odd l and v_l(d) + 3 at l = 2, which fixes
    the Z_l-class (Cassels, Rational Quadratic Forms, ch. 8; Conway and
    Sloane, SPLAG, ch. 15).  Each step pivots on an entry of least
    valuation, a diagonal one if it can.  At odd l an off-diagonal pivot
    (i, j) is first moved onto the diagonal by v_i <- v_i + v_j.  With u
    the pivot's unit part, each other row is cleared by row_r <- u row_r -
    x row_i, and each column the same way, so every step is a change of
    basis in GL_n(Z_l).  At l = 2 an off-diagonal pivot keeps its 2x2
    block and clears row_r <- d row_r - x row_i - y row_j, with d the
    unit part of the block's determinant and (x, y) from its adjugate.

    Returns (diag, blocks) of integer Q-coefficients mod l^K: diag entries
    c for c x^2, and blocks (a, b, c) for a x^2 + b xy + c y^2.
    """
    q = ell ** (_valuation(d, ell) + (3 if ell == 2 else 1))
    g = [[x % q for x in row] for row in gram]
    idx = list(range(len(g)))
    diag, blocks = [], []
    while idx:
        v, (i, j) = _least_valuation(chain(
            ((g[i][i], (i, i)) for i in idx),
            ((g[i][j], (i, j)) for i in idx for j in idx if i < j)), ell)
        if i != j and ell != 2:
            # g_ij has less valuation than g_ii and g_jj, so the new
            # g_ii = g_ii + 2 g_ij + g_jj has valuation v
            for col in idx:
                g[i][col] = (g[i][col] + g[j][col]) % q
            for r in idx:
                g[r][i] = (g[r][i] + g[r][j]) % q
            j = i
        if i == j:
            piv, s = (i,), ell ** v
            u = g[i][i] // s
            # the c with 2c = g_ii mod l^K (g_ii is even at l = 2)
            diag.append((g[i][i] + q * (g[i][i] % 2)) // 2)
        else:
            piv, s = (i, j), ell ** (2 * v)
            a, b, c = g[i][i], g[i][j], g[j][j]
            u = (a * c - b * b) // s
            blocks.append((a // 2, b, c // 2))
        idx = [r for r in idx if r not in piv]
        for r in idx:
            if i == j:
                xs = (g[r][i] // s,)
            else:
                xs = ((g[r][i] * c - g[r][j] * b) // s,
                      (g[r][j] * a - g[r][i] * b) // s)
            row = g[r]
            for col in idx:
                t = u * row[col]
                for x, k in zip(xs, piv):
                    t -= x * g[k][col]
                row[col] = u * t % q
    return diag, blocks


def primitive_kernel_vector(rows, k, p, E):
    """A primitive c in Z^k with row . c = 0 mod p^E for every row, or None.

    Column operations pivot on an entry of least valuation, so the pivot
    divides the rest of its row and, by row operations that change no
    other column, the rest of its column; the pivot row then drops out.
    The tracked transform V stays unimodular, and a column of V whose
    image vanishes mod p^E is a primitive kernel vector (Cohen, GTM 138,
    section 2.4).
    """
    q = p ** max(E, 0)
    rows = [r for r in ([x % q for x in row] for row in rows) if any(r)]
    V = [[int(i == j) for i in range(k)] for j in range(k)]   # columns
    for step in range(k):
        best = _least_valuation(((r[j], (ri, j)) for ri, r in enumerate(rows)
                                 for j in range(step, k)), p)
        if best is None:
            return V[step]
        v, (ri, j) = best
        for r in rows:
            r[step], r[j] = r[j], r[step]
        V[step], V[j] = V[j], V[step]
        pivot = rows.pop(ri)
        inv = pow(pivot[step] // p ** v, -1, q)
        for j2 in range(step + 1, k):
            if pivot[j2]:
                f = pivot[j2] // p ** v * inv % q
                for r in rows:
                    r[j2] = (r[j2] - f * r[step]) % q
                V[j2] = [(a - f * b) % q for a, b in zip(V[j2], V[step])]
    return None

"""Short-vector enumeration and derived counts, in exact arithmetic.

Enumeration runs on the LDL^T decomposition Q(v) =
sum q_i (v_i + sum_{j>i} u_ij v_j)^2, read in integers from the pivot
rows of one fraction-free Bareiss pass over the Gram matrix, with all
bounds computed through integer square roots, so no vector is ever
gained or lost to rounding.  The Fincke-Pohst tree is walked one level
at a time over numpy arrays of nodes, in chunks of at most CHUNK
children, in int64 only where a bound on every intermediate proves it
exact and in Python ints otherwise.
Vectors come in +/- pairs; the zero vector is counted once.

Derived quantities: representation counts r(m), counts restricted to
D l^2 and prime targets, the m-sets used by the intersection budgets, and
theta-vs-Eisenstein cusp deviations.
"""

import math
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InvalidParameter, NotPositiveDefinite
from .eisenstein import coefficients, fundamental_part
from .padics import _valuation, factorint, primefactors, primerange
from .quadforms import IntLattice, kronecker

CHUNK = 1 << 12  # children expanded at once, which bounds the working set
EXACT_FLOAT = 1 << 52  # int64 values below it pass through float64 exactly
COUNTS_MAX = 1 << 20  # entries of a count vector: 8 MiB of int64


def _isqrt(x):
    """Elementwise floor square root of a nonnegative array.

    int64 arrays hold values below EXACT_FLOAT, which float64 holds
    exactly; the correctly rounded root is monotone and exact at squares,
    so its floor is the integer root or one above it, and one step down
    makes it exact.  object arrays take math.isqrt per element.
    """
    if x.dtype == object:
        return np.frompyfunc(math.isqrt, 1, 1)(x)
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    return r


def _descend(lattice, bound):
    """Walk over 0 < Q(v) <= bound, one v of each +/- pair.

    Yields chunks (coords, norms): the vectors as rows and their exact
    norms Q(v), in the depth-first order, lexicographic from the top
    coordinate.  The walk runs in integers read from the Bareiss pivot
    rows r_i of the Gram matrix, with pivots P_i (its leading minors):
    Q(v) = sum q_i (v_i + sum_{j>i} u_ij v_j)^2 with q_i =
    P_i / (2 P_(i-1)), and u_ij = w_ij / d_i where (d_i, w_ij) is r_i from
    the diagonal on, divided by the gcd of those entries.  With the least
    scale making every c_i = scale q_i / d_i^2 integral, scale Q(v) is
    sum c_i t_i^2 with t_i = d_i v_i + S_i, S_i = sum_{j>i} w_ij v_j, and
    v_i ranges exactly over |t_i| <= isqrt(R // c_i) for the budget R
    left by the levels above.

    A frontier at level i holds per node its budget R, the all-higher-zero
    flag, and one row whose entries j <= i are the shifts S_j summed so
    far and whose entries j > i are the coordinates fixed.  Its children,
    a node's contiguous and increasing, are expanded with np.repeat CHUNK
    at a time and each chunk is walked to the leaves before the next, so
    the order is the recursive one and at most CHUNK nodes live per
    level.  Every node extends to a real vector of norm <= bound, so
    |v_k| < V_k = isqrt(2 bound adj(G)_kk / det G) + 1; every budget and
    c_i t_i^2 is at most top = scale bound and every shift and t_i at
    most max_i sum_k |w_ik| V_k.  int64 is used when these two, scale and
    every c_i are below EXACT_FLOAT, Python ints (object arrays) otherwise.
    """
    gram = lattice.gram
    rows = linalg.pivot_rows(gram)
    if rows is None:
        raise NotPositiveDefinite(f"{lattice.label}: enumeration needs "
                                  "a positive-definite form")
    n = lattice.rank
    w = [[x // math.gcd(*r[i:]) for x in r] for i, r in enumerate(rows)]
    den = [r[i] for i, r in enumerate(w)]
    # c_i = scale q_i / d_i^2 = scale P_i / (2 P_(i-1) d_i^2)
    pivots = [1] + [r[i] for i, r in enumerate(rows)]
    dq = [2 * pivots[i] * d * d for i, d in enumerate(den)]
    scale = math.lcm(*(b // math.gcd(a, b) for a, b in zip(pivots[1:], dq)))
    c = [scale * a // b for a, b in zip(pivots[1:], dq)]
    top = math.floor(scale * Fraction(bound))
    if top < 0:
        return
    reach = []  # V_k, with adj(G)_kk the minor of G without row/column k
    for k in range(n):
        minor = [[x for j, x in enumerate(r) if j != k]
                 for i, r in enumerate(gram) if i != k]
        reach.append(math.isqrt(math.floor(
            2 * Fraction(bound) * linalg.det(minor) / pivots[-1])) + 1)
    widest = max(sum(abs(x) * V for x, V in zip(r, reach)) for r in w)
    exact = max(top, widest, scale, *c) < EXACT_FLOAT
    dtype = np.int64 if exact else object
    wcol = np.array(w, dtype=dtype).T  # wcol[i, j] = w_ji

    def level(i, budget, state, fresh):
        shift = state[:, i]
        root = _isqrt(budget // c[i])
        lo = -((root + shift) // den[i])
        lo = np.where(fresh, np.maximum(lo, 0), lo)
        size = np.maximum((root - shift) // den[i] - lo + 1, 0)
        size = size.astype(np.int64, copy=False)
        end = np.cumsum(size)
        start = end - size
        total = int(end[-1])
        for a in range(0, total, CHUNK):
            b = min(a + CHUNK, total)
            first = int(np.searchsorted(end, a, "right"))
            last = int(np.searchsorted(end, b, "left"))
            take = size[first:last + 1].copy()
            take[0] -= a - start[first]
            take[-1] -= end[last] - b
            node = np.repeat(np.arange(first, last + 1), take)
            cand = lo[node] + (np.arange(a, b) - start[node])
            t = cand * den[i] + shift[node]
            left = budget[node] - c[i] * t * t
            sub = state[node]
            sub[:, :i] += cand[:, None] * wcol[i, :i]
            sub[:, i] = cand
            zero = fresh[node] & (cand == 0)
            if i:
                yield from level(i - 1, left, sub, zero)
            else:
                keep = ~zero
                yield sub[keep], (top - left[keep]) // scale

    yield from level(n - 1, np.array([top], dtype=dtype),
                     np.zeros((1, n), dtype=dtype), np.array([True]))


def short_vectors(lattice, bound):
    """All v with 0 < Q(v) <= bound, as (+v, -v) pairs; complete and exact."""
    out = []
    for coords, _ in _descend(lattice, bound):
        pairs = np.stack([coords, -coords], axis=1).reshape(-1, lattice.rank)
        out += map(tuple, pairs.tolist())
    return out


def _components(gram):
    n = len(gram)
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        comp = []
        seen[s] = True
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in range(n):
                if not seen[j] and gram[i][j] != 0:
                    seen[j] = True
                    stack.append(j)
        comps.append(sorted(comp))
    return comps


def representation_counts(lattice, bound):
    """r(m) for 0 <= m <= bound as a list indexed by m.

    Orthogonal components are enumerated separately and their count
    vectors convolved, so block-diagonal Gram matrices stay cheap even
    when the total vector count is astronomical.  A bound of COUNTS_MAX
    or more is refused before anything is allocated.
    """
    if bound < 0:
        raise InvalidParameter(f"count bound {bound} is negative")
    if bound >= COUNTS_MAX:
        raise InvalidParameter(f"count bound {bound}: at most {COUNTS_MAX} "
                               f"counts are held")
    comps = _components(lattice.gram)
    total = np.zeros(bound + 1, dtype=np.int64)
    total[0] = 1
    for comp in comps:
        sub = IntLattice([[lattice.gram[i][j] for j in comp] for i in comp],
                         lattice.label)
        part = np.zeros(bound + 1, dtype=np.int64)
        for _, norms in _descend(sub, bound):
            hist = np.bincount(norms.astype(np.int64, copy=False))
            part[:len(hist)] += 2 * hist
        part[0] = 1  # the zero vector, counted once
        total = _convolve_counts(total, part)
    return [int(x) for x in total]


def _convolve_counts(a, b):
    """(a * b)[:len(a)] for nonnegative count vectors of equal length.

    Loops over the nonzeros of the sparser vector.  No entry exceeds
    min(sum(a) max(b), max(a) sum(b)), so int64 is used only when that
    is below 2^63, Python ints (object arrays) otherwise.
    """
    if np.count_nonzero(a) > np.count_nonzero(b):
        a, b = b, a
    la, lb = a.tolist(), b.tolist()
    fits = min(sum(la) * max(lb), max(la) * sum(lb)) < 2 ** 63
    dtype = np.int64 if fits else object
    b = np.array(lb, dtype=dtype)
    n = len(la)
    out = np.zeros(n, dtype=dtype)
    for i in np.flatnonzero(a):
        out[i:] += la[i] * b[:n - i]
    return out


def square_rep_count(counts, D):
    """sum of r(D l^2) over primes l, for the counts r(0 .. bound)."""
    if D < 1:
        raise InvalidParameter("D must be positive")
    bound = len(counts) - 1
    return sum(counts[D * ell * ell]
               for ell in primerange(2, math.isqrt(bound // D) + 1))


def prime_rep_count(counts):
    """sum of r(l) over primes l, for the counts r(0 .. bound)."""
    return sum(counts[ell] for ell in primerange(2, len(counts)))


# each T-set kind's config keys and their defaults
T_KEYS = {"square": {"D": 1}, "prime_qr": {}, "hilbert": {"N": 0, "C": 2}}


def build_T_set(kind, p, params, M):
    """The m-sequences driving the budget sums, truncated at M.

    kind 'square': {D q^2 <= M, q prime != p} with D = params['D'].
    kind 'prime_qr': primes q != p, quadratic residues mod p, q = 3 mod 4.
    kind 'hilbert': m in (N, M] with p not dividing m, v_l(m) <= C for
    every l | det2 = params['det2'] = 2 det, and some q || m inert in F:
    kronecker(d_F, q) = -1, d_F the fundamental part of 2 |det2| (det =
    d_F modulo squares on the quadratic space of the real field F).
    """
    if kind not in T_KEYS:
        raise InvalidParameter(f"unknown T-set kind {kind!r}")
    params = T_KEYS[kind] | params
    if kind == "square":
        D = params["D"]
        return [D * q * q for q in primerange(2, math.isqrt(M // D) + 1)
                if q != p]
    if kind == "prime_qr":
        return [q for q in primerange(2, M + 1)
                if q != p and q % 4 == 3 and pow(q, (p - 1) // 2, p) == 1]
    N, C, det2 = params["N"], params["C"], params["det2"]
    bad, d_F = primefactors(det2), fundamental_part(2 * abs(det2))[0]
    return [m for m in range(max(N, 1) + 1, M + 1)
            if m % p and all(_valuation(m, ell) <= C for ell in bad)
            and any(e == 1 and kronecker(d_F, q) == -1
                    for q, e in factorint(m))]


def cusp_deviation(lattice, m_lo, m_hi):
    """Per-m exact deviations r(m) - q(m) and the fitted growth exponent.

    Every m in [m_lo, m_hi] gets a record of m, r(m), the exact q(m) as
    eis (the whole range is one ``coefficients`` pass), the deviation
    and a radius, always 0 (the cusp_pdet5 benchmark workload reads it).
    The exponent is the least-squares slope of log|deviation| against
    log m over the nonzero deviations.
    """
    counts = representation_counts(lattice, m_hi)
    records = []
    for qv in coefficients(lattice, range(max(1, m_lo), m_hi + 1)):
        m = qv.m
        records.append({"m": m, "r": counts[m], "eis": qv.value,
                        "radius": 0, "deviation": counts[m] - qv.value})
    xs = []
    ys = []
    for rec in records:
        if rec["deviation"] != 0:
            xs.append(math.log(rec["m"]))
            ys.append(math.log(abs(rec["deviation"])))
    slope = float("nan")
    if len(xs) >= 2:
        slope = float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
    return records, slope

import hashlib
import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest

from froblat import enumeration
from froblat.budget import derive_chain
from froblat.cli import read_gram
from froblat.enumeration import (build_T_set, cusp_deviation,
                                 prime_rep_count, representation_counts,
                                 short_vectors, square_rep_count)
from froblat.errors import InvalidParameter, NotPositiveDefinite
from froblat.linalg import pivot_rows
from froblat.quadforms import IntLattice

Z4 = IntLattice([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
                "Z4")
Z5 = IntLattice([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                 [0, 0, 0, 2, 0], [0, 0, 0, 0, 2]], "Z5")
HEAD = [[2, 0, -1, -1], [0, 2, -1, 0], [-1, -1, 6, -2], [-1, 0, -2, 18]]
# L_{2,2} of derive_chain(HEAD, 5, 3): scale * bound passes 2^52 at 500
L22 = derive_chain(IntLattice(HEAD), 5, 3)[0][2][1]


def _lattice(name):
    """A fixture Gram by file name, or L22 as chain_p5_L22."""
    if name == "chain_p5_L22":
        return IntLattice(L22, name)
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                        f"{name}.gram")
    return IntLattice(read_gram(path), name)


def _box_oracle(lattice, bound):
    """Independent brute-force enumeration over the dual-quadratic box."""
    n = lattice.rank
    A = [[Fraction(x, 2) for x in row] for row in lattice.gram]
    # inverse of A with Fractions
    aug = [[A[r][c] for c in range(n)] + [Fraction(int(r == c))
                                          for c in range(n)]
           for r in range(n)]
    for i in range(n):
        piv = next(r for r in range(i, n) if aug[r][i] != 0)
        aug[i], aug[piv] = aug[piv], aug[i]
        inv = 1 / aug[i][i]
        aug[i] = [x * inv for x in aug[i]]
        for r in range(n):
            if r != i and aug[r][i]:
                f = aug[r][i]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[i])]
    counts = [0] * (bound + 1)
    limits = []
    for i in range(n):
        # (e_i . v)^2 <= bound * (A^-1)_ii
        lim = int(math.isqrt(int(bound * aug[i][n + i])) + 1)
        limits.append(lim)
    import itertools
    for v in itertools.product(*[range(-l, l + 1) for l in limits]):
        q = lattice.q_value(list(v))
        if 0 <= q <= bound:
            counts[q] += 1
    counts[0] -= 0
    return counts


@pytest.mark.parametrize("gram", [
    [[2, 0], [0, 2]],
    [[2, 1], [1, 4]],
    [[2, 0, 0], [0, 4, 1], [0, 1, 6]],
    [[4, 1, -1], [1, 2, 0], [-1, 0, 6]],
], ids=["2sq", "bin7", "tern", "tern2"])
def test_enumeration_matches_box_oracle(gram):
    lat = IntLattice(gram)
    mine = representation_counts(lat, 50)
    oracle = _box_oracle(lat, 50)
    assert mine == oracle


def test_four_squares_values():
    counts = representation_counts(Z4, 10)
    assert counts[1] == 8 and counts[2] == 24
    # Jacobi: r(m) = 8 sum of divisors not divisible by 4
    for m in range(1, 11):
        want = 8 * sum(d for d in range(1, m + 1)
                       if m % d == 0 and d % 4 != 0)
        assert counts[m] == want


def test_zero_bound():
    assert short_vectors(Z4, 0) == []
    assert representation_counts(Z4, 0) == [1]


def test_not_positive_definite():
    U = IntLattice([[0, 1], [1, 0]])
    with pytest.raises(NotPositiveDefinite):
        short_vectors(U, 5)


def test_sublattice_monotone():
    big = IntLattice([[2, 0], [0, 2]])
    small = IntLattice([[8, 0], [0, 2]])  # first vector doubled
    cb = representation_counts(big, 30)
    cs = representation_counts(small, 30)
    assert all(cs[m] <= cb[m] for m in range(31))


def test_square_and_prime_counts():
    counts = representation_counts(Z5, 10)
    assert square_rep_count(counts, 1) == counts[4] + counts[9]
    assert prime_rep_count(counts) == sum(
        counts[q] for q in (2, 3, 5, 7))
    scaled = IntLattice([[50, 0], [0, 50]])  # 25 * (x^2 + y^2)
    base = IntLattice([[2, 0], [0, 2]])
    for D in (1, 2):
        s1 = square_rep_count(representation_counts(scaled, 500), D)
        # counts of D l^2 <= 500 with 25 | D l^2 match base at D l^2/25
        total = 0
        cb = representation_counts(base, 20)
        import sympy
        for ell in sympy.primerange(2, 23):
            m = D * ell * ell
            if m <= 500 and m % 25 == 0:
                total += cb[m // 25]
        assert s1 >= total  # scaling only reaches multiples of 25


def test_counts_do_not_wrap_int64():
    # r(m) of Z^24 passes 2^63 at m = 75 within this range
    bound = 120
    counts = representation_counts(
        IntLattice([[2 * (i == j) for j in range(24)] for i in range(24)]),
        bound)
    one = [0] * (bound + 1)
    for x in range(math.isqrt(bound) + 1):
        one[x * x] = 1 if x == 0 else 2
    exact = [1] + [0] * bound
    for _ in range(24):
        exact = [sum(exact[k] * one[m - k] for k in range(m + 1))
                 for m in range(bound + 1)]
    assert counts == exact
    assert counts[75] == 9779536667840774848


def test_counts_past_the_cap_raise_before_allocating():
    import tracemalloc
    # the largest bound asked for anywhere is the 79202 of
    # test_binary_density_trivial_families
    assert 79202 < enumeration.COUNTS_MAX
    z4 = IntLattice([[2 * (i == j) for j in range(4)] for i in range(4)])
    tracemalloc.start()
    try:
        for bound in (enumeration.COUNTS_MAX, 1 << 40):
            with pytest.raises(InvalidParameter, match="counts are held"):
                representation_counts(z4, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_hilbert_t_set_reads_the_field_from_the_lattice():
    """lh_f13 has det 13: its hilbert T-set is the one that states
    disc_F = 13, the m with some q || m inert in Q(sqrt 13)."""
    import sympy
    lat = _lattice("lh_f13")
    assert lat.det() == 13
    for p, C in ((5, 1), (5, 2), (7, 1)):
        for M in (60, 500):
            want = []
            for m in range(2, M + 1):
                fac = sympy.factorint(m)
                if (m % p and fac.get(2, 0) <= C and fac.get(13, 0) <= C
                        and any(e == 1 and sympy.jacobi_symbol(q, 13) == -1
                                for q, e in fac.items())):
                    want.append(m)
            got = build_T_set("hilbert", p, {"N": 0, "C": C,
                                             "det2": 2 * lat.det()}, M)
            assert got == want, (p, C, M)


def test_t_sets():
    assert build_T_set("square", 5, {"D": 1}, 20) == [4, 9]
    assert build_T_set("prime_qr", 5, {}, 50) == [11, 19, 31]
    T = build_T_set("hilbert", 5, {"N": 0, "C": 1, "det2": 26}, 60)
    from froblat.quadforms import kronecker
    import sympy
    for m in T:
        assert m % 5 != 0
        assert any(e == 1 and kronecker(13, q) == -1
                   for q, e in sympy.factorint(m).items())
    # v_l(m) <= 2 + v_l(D) automatically for square-type sets
    for D in (1, 3, 8):
        for m in build_T_set("square", 5, {"D": D}, 400):
            for ell in (2, 3, 5, 7):
                v, mm = 0, m
                while mm % ell == 0:
                    mm //= ell
                    v += 1
                vD, dd = 0, D
                while dd % ell == 0:
                    dd //= ell
                    vD += 1
                assert v <= 2 + vD


def test_cusp_deviation_single_class():
    D5 = IntLattice([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0],
                     [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
                     [0, 0, -1, 0, 2]], "D5")
    recs, slope = cusp_deviation(D5, 1, 50)
    assert len(recs) == 50
    for rec in recs:
        assert rec["deviation"] == 0 and rec["radius"] == 0
    assert math.isnan(slope)  # no nonzero deviation to fit


@pytest.mark.parametrize("gram,bound", [
    ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
      [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], 12),
    ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
      [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]], 12),
    ([[4, 1, -1], [1, 2, 0], [-1, 0, 6]], 40),
    (L22, 5000),  # past the int64 guard: the walk runs in Python ints
], ids=["D5", "A5", "tern2", "L22"])
def test_counts_from_descent_match_vector_tally(gram, bound):
    lat = IntLattice(gram)
    tally = [1] + [0] * bound
    for v in short_vectors(lat, bound):
        tally[lat.q_value(list(v))] += 1
    assert representation_counts(lat, bound) == tally


# sha256 of repr(short_vectors(lattice, bound)), order included, as the
# recursive descents gave them (chain_p5_L22 the integer one, the rest the
# Fraction one): the level-wise walk keeps their order
DESCENT_SHA256 = {
    ("d5", 12): "9f570c16fd71754809ed4bcbc18af254"
                "0ab3b1fd3b981efcb59b5c456d084f25",
    ("a5", 12): "712be1ad17cef5cf03fcfca81bccc813"
                "2361e6891ad585474d7b634aea2f18b1",
    ("z5", 10): "13aba9d25e900bd7e3dbd91a846c4ce0"
                "8b1934379befb08aea4dfa34b7db9b0a",
    ("chain_head_p5", 40): "fca5121de72619773d2da4c9d79d1cb6"
                           "e993c5215568fbd29e3236222a42d18e",
    ("chain_p5_L22", 5000): "4ff8d856f7bb3745d2993969e9afb5e0"
                            "dcfd552ce6637a86ca8b6aa1ca408896",
}


@pytest.mark.parametrize("name,bound", sorted(DESCENT_SHA256))
def test_descent_order_pinned(name, bound):
    vecs = short_vectors(_lattice(name), bound)
    digest = hashlib.sha256(repr(vecs).encode()).hexdigest()
    assert digest == DESCENT_SHA256[name, bound]


@pytest.mark.parametrize("name,bound,dtype", [
    ("chain_head_p5", 500, np.int64), ("d5", 50, np.int64),
    ("chain_p5_L22", 5000, object)])
def test_walk_dtype_follows_the_proven_bound(name, bound, dtype):
    """int64 only where every budget and shift is proven below 2^52."""
    coords, norms = next(enumeration._descend(_lattice(name), bound))
    assert coords.dtype == norms.dtype == dtype


def test_coefficients_past_int64_take_python_ints():
    # c_i near 10^20 is no int64 operand, however small the bound
    assert representation_counts(IntLattice([[2 * 10 ** 20]]), 10) == \
        [1] + [0] * 10
    wide = IntLattice([[2, 1], [1, 2 * 10 ** 20]])
    assert representation_counts(wide, 10) == \
        representation_counts(IntLattice([[2]]), 10)
    assert short_vectors(IntLattice([[2 * 10 ** 20]]), 0) == []


def test_python_int_walk_equals_the_int64_walk(monkeypatch):
    lats = [_lattice(name) for name in ("d5", "a5", "z5")]
    lats += [IntLattice(g) for g in ([[2, 1], [1, 4]],
                                     [[4, 1, -1], [1, 2, 0], [-1, 0, 6]])]
    fast = [(short_vectors(lat, 12), representation_counts(lat, 12))
            for lat in lats]
    monkeypatch.setattr(enumeration, "EXACT_FLOAT", 0)
    assert next(enumeration._descend(lats[0], 12))[0].dtype == object
    assert [(short_vectors(lat, 12), representation_counts(lat, 12))
            for lat in lats] == fast


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_size_does_not_change_the_walk(monkeypatch, chunk):
    """Chunks split a node's children anywhere; the order stays."""
    lats = [_lattice(name) for name in ("d5", "chain_head_p5")]
    want = [(short_vectors(lat, 10), representation_counts(lat, 10))
            for lat in lats]
    monkeypatch.setattr(enumeration, "CHUNK", chunk)
    assert [(short_vectors(lat, 10), representation_counts(lat, 10))
            for lat in lats] == want


def test_int64_isqrt_is_exact_below_2_52():
    rng = random.Random(52)
    roots = [0, 1, 2, 3, math.isqrt(2 ** 52 - 1)]
    roots += [rng.randrange(2 ** 26) for _ in range(2000)]
    x = np.array(sorted({max(r * r + e, 0) for r in roots
                         for e in (-1, 0, 1)}), dtype=np.int64)
    assert x.max() < enumeration.EXACT_FLOAT
    assert enumeration._isqrt(x).tolist() == [math.isqrt(int(v))
                                              for v in x]


@pytest.mark.parametrize("name,bound", [("chain_head_p5", 500), ("d5", 50)])
def test_enumeration_working_set_is_bounded(name, bound):
    """Counts are binned chunk by chunk: no list of all the norms.  A
    recursive descent that kept one did peak at 5.2 MiB on the chain
    head and 2.1 MiB on D5."""
    import tracemalloc
    lat = _lattice(name)
    representation_counts(lat, bound)
    tracemalloc.start()
    try:
        representation_counts(lat, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_ldl_from_pivot_rows_reproduces_q_matrix():
    """The descent's integers: d_i and w_ij are pivot row i divided by
    the gcd of its entries from the diagonal on, q_i = P_i / (2 P_(i-1)).
    Then Q = sum_i (q_i / d_i^2) r_i^T r_i with r_i = (d_i, w_ij)."""
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 6)
        B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        gram = [[2 * sum(b[i] * b[j] for b in B) + 2 * (i == j)
                 * rng.randint(0, 2) for j in range(n)] for i in range(n)]
        rows = pivot_rows(gram)
        if rows is None:
            continue
        pivots = [1] + [r[i] for i, r in enumerate(rows)]
        got = [[Fraction(0)] * n for _ in range(n)]
        for i, r in enumerate(rows):
            g = math.gcd(*r[i:])
            w = [x // g for x in r]
            assert w[:i] == [0] * i and w[i] > 0
            q = Fraction(pivots[i + 1], 2 * pivots[i] * w[i] ** 2)
            for a in range(i, n):
                for b in range(i, n):
                    got[a][b] += q * w[a] * w[b]
        assert got == [[Fraction(x, 2) for x in row] for row in gram]
        checked += 1

import math
import pathlib
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from froblat import linalg, quadforms
from froblat.cli import read_gram
from froblat.crystals import (HILBERT_INERT_SG, HILBERT_INERT_SSP,
                              HILBERT_SPLIT, SIEGEL_SG, SIEGEL_SSP,
                              local_gram)
from froblat.errors import BadDiscriminant, InvalidParameter
from froblat.padics import _valuation, smallest_nonresidue
from froblat.quadforms import (TABLE_MAX, IntLattice, hanke_density,
                               kronecker, local_density, sigma_s,
                               _distribution_1x1, _distribution_2x2,
                               _residue_table, _square_classes,
                               count_representations_mod)


def test_kronecker_values():
    assert kronecker(5, 1) == 1
    assert kronecker(-4, 3) == -1   # Legendre(-4|3) = (2/3)^2 (-1/3)
    assert kronecker(12, 2) == 0
    assert kronecker(13, 17) == 1
    with pytest.raises(BadDiscriminant):
        kronecker(3, 5)
    with pytest.raises(BadDiscriminant):
        kronecker(0, 5)


def test_kronecker_multiplicative():
    rng = random.Random(2)
    for _ in range(100):
        D = rng.choice([-4, -8, 5, 12, 13, -20, 28])
        a, b = rng.randint(1, 60), rng.randint(1, 60)
        assert kronecker(D, a * b) == kronecker(D, a) * kronecker(D, b)


def test_sigma_s():
    assert sigma_s(1, -1) == 1
    assert sigma_s(4, -3) == Fraction(73, 64)
    for q in (3, 7, 11):
        chi = lambda d: kronecker(-4, d)
        assert sigma_s(q, -1, chi) == 1 + Fraction(kronecker(-4, q), q)


@pytest.mark.parametrize("s", [-3, -1, 1])
@pytest.mark.parametrize("D", [None, -4, 5, -23])
def test_sigma_s_matches_the_divisor_sum(s, D):
    chi = None if D is None else (lambda d: kronecker(D, d))
    for m in range(1, 301):
        naive = sum(((1 if chi is None else chi(d)) * Fraction(d) ** s
                     for d in range(1, m + 1) if m % d == 0), Fraction(0))
        got = sigma_s(m, s, chi)
        assert type(got) is Fraction and got == naive, (m, s, D)


def test_two_squares_density():
    L = IntLattice([[2, 0], [0, 2]])
    assert local_density(5, L, 1) == Fraction(4, 5)
    # brute oracle mod 5
    count = sum(1 for x in range(5) for y in range(5)
                if (x * x + y * y) % 5 == 1)
    assert count == 4


GOLDEN = [
    (HILBERT_INERT_SSP, 0, lambda p: 1 - Fraction(1, p)),
    (HILBERT_SPLIT, 0, lambda p: 1 + Fraction(1, p)),
    (HILBERT_INERT_SG, 0, lambda p: Fraction(0)),
    (SIEGEL_SSP, 1, lambda p: 1 + Fraction(1, p ** 3)),
    (SIEGEL_SG, 1, lambda p: 1 + Fraction(1, p ** 2)),
]


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_golden_densities(p):
    eps = smallest_nonresidue(p)
    for case, vp, expect in GOLDEN:
        lat = IntLattice(local_gram(case, p, eps), case)
        seen = 0
        m = 0
        while seen < 20:
            m += 1
            v, mm = 0, m
            while mm % p == 0:
                mm //= p
                v += 1
            if v != vp:
                continue
            seen += 1
            assert local_density(p, lat, m) == expect(p), (case, p, m)
            assert hanke_density(p, lat, m) == expect(p), (case, p, m)


def test_siegel_sg_unit_values(p=5):
    lat = IntLattice(local_gram(SIEGEL_SG, p, smallest_nonresidue(p)))
    vals = {local_density(p, lat, m) for m in range(1, 40) if m % p}
    assert vals == {Fraction(0), Fraction(2)}


def test_hanke_matches_stable_count():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        p = rng.choice([2, 3, 5, 7, 11, 13])
        rk = rng.randint(1, 5)
        G = [[0] * rk for _ in range(rk)]
        for i in range(rk):
            G[i][i] = 2 * rng.choice([1, 2, 3, p, 2 * p, 3 * p]) \
                * rng.choice([1, -1])
            for j in range(i):
                G[i][j] = G[j][i] = rng.randint(-2, 2)
        lat = IntLattice(G)
        if lat.det() == 0:
            continue
        m = rng.randint(1, 200)
        v, mm = 0, m
        while mm % p == 0:
            mm //= p
            v += 1
        if v > 3:
            continue
        assert hanke_density(p, lat, m) == local_density(p, lat, m), (G, p, m)
        checked += 1


@pytest.mark.parametrize("ell", [0, 1, 4, 6, -3])
def test_non_prime_ell_is_rejected(ell):
    # ell = 1 used to loop forever in the valuation of 2m, and ell = 4
    # returned a "density"
    lat = IntLattice([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                      [0, 0, 0, 2]])
    with pytest.raises(InvalidParameter):
        local_density(ell, lat, 5)
    with pytest.raises(InvalidParameter):
        hanke_density(ell, lat, 5)
    with pytest.raises(InvalidParameter):
        count_representations_mod(lat, ell, 5, 1)


def test_stabilization():
    lat = IntLattice([[2, 1, 0], [1, 4, 1], [0, 1, 6]])
    for ell in (2, 3, 5):
        for m in (1, 4, 6, 18):
            v, mm = 0, 2 * m
            while mm % ell == 0:
                mm //= ell
                v += 1
            a0 = 1 + 2 * v
            assert local_density(ell, lat, m, a0) \
                == local_density(ell, lat, m, a0 + 2)


def _assert_square_class_of_det(lat, loc, p):
    """prod c_i and det(G / 2) share valuation and unit square class."""
    prod = math.prod(loc.diag)
    d = lat.det() * 2 ** lat.rank       # 2^n and 2^-n share a square class
    v = _valuation(prod, p)
    assert v == _valuation(d, p)
    assert pow(prod // p ** v * (d // p ** v), (p - 1) // 2, p) == 1


def test_diagonalize_hyperbolic():
    U = IntLattice([[0, 1], [1, 0]], "U")
    loc = U.local(5)
    vals = sorted(_valuation(a, 5) for a in loc.diag)
    assert vals == [0, 0]
    assert all(isinstance(a, int) for a in loc.diag)
    _assert_square_class_of_det(U, loc, 5)


def test_diagonalize_fixed_point():
    lat = IntLattice([[2, 0], [0, -6]])
    loc = lat.local(5)
    # x^2 - 3y^2: -3 is a non-residue mod 5, so the symbol is (1, eps)
    assert sorted(loc.diag) == [1, 2]
    _assert_square_class_of_det(lat, loc, 5)


def test_siegel_ssp_diag_shape():
    lat = IntLattice(local_gram(SIEGEL_SSP, 5, 2))
    loc = lat.local(5)
    vals = sorted(_valuation(a, 5) for a in loc.diag)
    assert vals == [0, 0, 0, 1, 1]
    _assert_square_class_of_det(lat, loc, 5)


def _random_gram(rng, rk, ell):
    """A nondegenerate even Gram matrix, off-diagonal for rank >= 2."""
    while True:
        G = [[0] * rk for _ in range(rk)]
        for i in range(rk):
            G[i][i] = 2 * rng.choice([1, 2, 3, 4, 5, 6, 8, 12, ell, 2 * ell]) \
                * rng.choice([1, -1])
            for j in range(i):
                G[i][j] = G[j][i] = rng.randint(-3, 3)
        lat = IntLattice(G)
        if lat.det() and (rk == 1 or any(G[i][j] for i in range(rk)
                                         for j in range(i))):
            return lat


def _branch_gram(rng, rk, ell):
    """A random Gram for the rarer pivot branches of the split: maybe the
    diagonal times l (a first pivot off the diagonal), and basis vector i
    scaled by l^e_i, e_i <= 2 (a block divided by l, at times twice)."""
    while True:
        G, t = _random_gram(rng, rk, ell).gram, rng.choice([1, ell])
        e = [rng.randint(0, 2) for _ in range(rk)]
        lat = IntLattice([[G[i][j] * t ** (i == j) * ell ** (e[i] + e[j])
                           for j in range(rk)] for i in range(rk)])
        if lat.det():
            return lat


def _pivot_branches(lat, ell):
    """The pivot branches a split of lat at l is seen to take: "unit" (a
    diagonal unit), "off" (only an off-diagonal unit) and "divided twice"
    (the block divided by l at least twice).  At odd l the first two are
    read off the first step, from the Gram; at l = 2 every diagonal entry
    of the split is a diagonal unit and every block an off-diagonal one.
    A split pivots at valuation k on c = l^k u (2^(k-1) u at l = 2) and
    on blocks with b = 2^k u."""
    loc, g = lat.local(ell), lat.gram
    ks = [_valuation(c, ell) + (ell == 2) for c in loc.diag] \
        + [_valuation(b, ell) for _, b, _ in loc.blocks2]
    if ell == 2:
        unit, off = bool(loc.diag), bool(loc.blocks2)
    else:
        unit = any(g[i][i] % ell for i in range(lat.rank))
        off = not unit and any(x % ell for row in g for x in row)
    return {name for name, seen in (("unit", unit), ("off", off),
                                    ("divided twice", max(ks) >= 2)) if seen}


def test_split_coefficients_are_reduced_mod_l_to_the_k():
    """jordan_split works mod l^K, K = v_l(det) + 1 (+ 3 at l = 2), and
    returns coefficients in [0, l^K) that cover the rank; a wrong
    determinant, which leaves a zero block mod l^K, is refused."""
    rng = random.Random(5)
    for trial in range(300):
        ell = rng.choice([2, 3, 5, 7])
        rk = rng.randint(1, 5)
        lat = (_random_gram if trial % 2 else _branch_gram)(rng, rk, ell)
        q = ell ** (_valuation(lat.det(), ell) + (3 if ell == 2 else 1))
        diag, blocks = linalg.jordan_split(lat.gram, ell, lat.det())
        assert len(diag) + 2 * len(blocks) == rk
        assert all(0 <= x < q for x in diag + [x for b in blocks for x in b])
    with pytest.raises(InvalidParameter, match="not the determinant"):
        linalg.jordan_split([[6]], 3, 1)


def _brute_counts(gram, ell, a):
    """#{v mod l^a : Q(v) = r mod l^a} for every r, by enumerating v."""
    q = ell ** a
    n = len(gram)
    v = np.indices((q,) * n).reshape(n, -1)
    values = np.einsum("ik,ij,jk->k", v, np.array(gram), v) // 2
    return np.bincount(values % q, minlength=q)


def test_counts_match_brute_force():
    """count_representations_mod against every v mod l^a.

    At l = 2 the cases include forms that split off a 2x2 block and forms
    with v_2(det) >= 3, whose class needs the Gram mod 2^(v_2(det) + 3).
    """
    rng = random.Random(31)
    blocks = deep = 0
    branches = Counter()
    for ell in (2, 3, 5):
        for rk in (1, 2, 3):
            a_max = max(a for a in range(1, 20)
                        if ell ** (a * rk) <= 10 ** 5)
            for trial in range(24):
                make = _random_gram if trial < 16 else _branch_gram
                lat = make(rng, rk, ell)
                branches.update((ell == 2, b)
                                for b in _pivot_branches(lat, ell))
                if ell == 2:
                    blocks += bool(lat.local(2).blocks2)
                    deep += _valuation(lat.det(), 2) >= 3
                for a in {a_max, rng.randint(1, a_max)}:
                    q = ell ** a
                    brute = _brute_counts(lat.gram, ell, a)
                    ms = range(q) if q <= 2048 else rng.sample(range(q), 2048)
                    for m in ms:
                        assert count_representations_mod(lat, ell, m, a) \
                            == brute[m], (lat.gram, ell, a, m)
    assert blocks >= 10 and deep >= 5
    assert len(branches) == 6 and min(branches.values()) >= 5, branches


def _unimodular(rng, n):
    """A product of elementary integer matrices and sign changes."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j or rng.random() < 0.2:
            U[i] = [-x for x in U[i]]
        else:
            t = rng.choice([-2, -1, 1, 2])
            U[i] = [x + t * y for x, y in zip(U[i], U[j])]
    return U


def test_local_shape_is_a_class_invariant():
    """U G U^T gives the same LocalLattice at odd p, the same tables at 2."""
    rng = random.Random(77)
    branches = Counter()
    for trial in range(200):
        ell = rng.choice([2, 3, 5, 7])
        rk = rng.randint(1, 4 if ell == 2 else 5)
        lat = (_random_gram if trial % 4 else _branch_gram)(rng, rk, ell)
        branches.update((ell == 2, b) for b in _pivot_branches(lat, ell))
        U = _unimodular(rng, rk)
        moved = [[sum(U[i][k] * lat.gram[k][l] * U[j][l]
                      for k in range(rk) for l in range(rk))
                  for j in range(rk)] for i in range(rk)]
        loc, loc2 = lat.local(ell), IntLattice(moved).local(ell)
        if ell != 2:
            assert (loc.diag, loc.blocks2) == (loc2.diag, loc2.blocks2), \
                (lat.gram, moved, ell)
            continue
        for a in range(1, 8 - rk):
            assert np.array_equal(
                _residue_table(2, a, loc.diag, loc.blocks2),
                _residue_table(2, a, loc2.diag, loc2.blocks2)), \
                (lat.gram, moved, a)
    assert len(branches) == 6 and min(branches.values()) >= 5, branches


def _index_p_sublattice(gram, p, k):
    """Scale the k-th basis vector by p."""
    n = len(gram)
    out = [[gram[i][j] for j in range(n)] for i in range(n)]
    for j in range(n):
        out[k][j] *= p
        out[j][k] *= p
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_sublattice_density_bounds(p):
    eps = smallest_nonresidue(p)
    base = local_gram(SIEGEL_SSP, p, eps)
    rng = random.Random(p)
    for _ in range(15):
        g = base
        for _ in range(rng.randint(1, 3)):
            g = _index_p_sublattice(g, p, rng.randrange(5))
        lat = IntLattice(g)
        m = rng.randint(1, 60)
        if m % p:
            assert local_density(p, lat, m) <= 2
        elif (m // p) % p:
            assert local_density(p, lat, m) <= 2 + 2 * p
    # superspecial with index exactly p
    g1 = _index_p_sublattice(base, p, 2)
    lat1 = IntLattice(g1)
    for m in (p, 2 * p, 3 * p):
        if (m // p) % p:
            assert local_density(p, lat1, m) <= 4


I8 = IntLattice([[2 * (i == j) for j in range(8)] for i in range(8)], "I8")


def _i8_count(m, a):
    """#{v mod 2^a : sum v_i^2 = m} in Python ints, by Gauss sums.

    (1/q) sum_t S(t)^8 e(-t m / q) with q = 2^a: t = 2^(a-k) u (u odd)
    has S(t)^8 = 2^(8(a-k)) 16 2^(4k) for k >= 2 and 0 for k = 1, and the
    sum of e(-u m / 2^k) over odd u is a Ramanujan sum.
    """
    q = 2 ** a
    total = q ** 8
    for k in range(2, a + 1):
        if m % 2 ** k == 0:
            ramanujan = 2 ** (k - 1)
        elif m % 2 ** (k - 1) == 0:
            ramanujan = -2 ** (k - 1)
        else:
            ramanujan = 0
        total += 2 ** (8 * (a - k) + 4 + 4 * k) * ramanujan
    assert total % q == 0
    return total // q


def test_i8_reference_matches_direct_convolution():
    for a in range(1, 7):
        q = 2 ** a
        squares = [0] * q
        for x in range(q):
            squares[x * x % q] += 1
        dist = squares
        for _ in range(7):
            dist = [sum(dist[s] * squares[(r - s) % q] for s in range(q))
                    for r in range(q)]
        assert dist == [_i8_count(m, a) for m in range(q)], a


@pytest.mark.parametrize("m", [8, 16, 32, 64])
def test_i8_densities_do_not_wrap(m):
    # at a >= 9 the counts of sum x_i^2 mod 2^a pass 2^63
    a = 1 + 2 * ((2 * m).bit_length() - 1)
    got = []
    for aa in (a, a + 2):
        count = count_representations_mod(I8, 2, m, aa)
        assert count == _i8_count(m, aa)
        got.append(Fraction(count, 2 ** (7 * aa)))
    assert got[0] == got[1] == local_density(2, I8, m) > 0



def test_residue_table_past_the_cap_is_refused_before_building():
    import tracemalloc
    # criterion 2's generator asks for at most 13^5 entries (m = 169),
    # and `froblat density --ell 2 --m-range 256..256` for 2^19; m = 512
    # needs 2^21
    assert 13 ** 5 < 2 ** 19 <= TABLE_MAX < 2 ** 21
    lat = IntLattice([[2 * (i == j) for j in range(4)] for i in range(4)])
    lat.local(2)  # the Jordan split, before tracing
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter, match="residue table"):
            local_density(2, lat, 512)
        with pytest.raises(InvalidParameter, match="residue table"):
            count_representations_mod(lat, 3, 1, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16

def _clear_density_memos():
    for memo in (_residue_table, _square_classes):
        memo.cache_clear()


DENSITY_GRAMS = [local_gram(SIEGEL_SSP, 5, 2),
                 [[2, 1, 0], [1, 4, 1], [0, 1, 6]],
                 [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                  [0, 0, 0, 10, 0], [0, 0, 0, 0, 10]]]


def test_density_memos_match_cold_calls():
    """Each cold call gets a fresh lattice and empty residue memos."""
    calls = [(ell, k, m) for k in range(len(DENSITY_GRAMS))
             for ell in (2, 3, 5) for m in (1, 5, 4, 25, 12, 2, 50, 8, 1)]
    cold = []
    for ell, k, m in calls:
        _clear_density_memos()
        cold.append(local_density(ell, IntLattice(DENSITY_GRAMS[k]), m))
        _clear_density_memos()
        cold.append(hanke_density(ell, IntLattice(DENSITY_GRAMS[k]), m))
    _clear_density_memos()
    lats = [IntLattice(g) for g in DENSITY_GRAMS]
    for _ in range(2):  # first with empty memos, then warm
        order = list(range(len(calls)))
        random.Random(len(calls)).shuffle(order)
        got = {}
        for i in order:
            ell, k, m = calls[i]
            got[i] = [local_density(ell, lats[k], m),
                      hanke_density(ell, lats[k], m)]
        assert [d for i in range(len(calls)) for d in got[i]] == cold
    assert _residue_table.cache_info().hits > len(calls)


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_tables_built_on_prefixes_match_the_full_convolution(ell):
    """Each cold table, built through the memoized tables of its
    prefixes, is the left-to-right convolution of all its factors."""
    rng = random.Random(ell)
    for _ in range(12):
        diag = tuple(rng.choice([1, 2, 3, 6, ell, 2 * ell, ell * ell])
                     for _ in range(rng.randint(0, 3)))
        blocks = tuple(tuple(rng.randint(0, 4) for _ in range(3))
                       for _ in range(rng.randint(0 if diag else 1, 2)))
        for a in (1, 2, 3):
            q = ell ** a
            full = [1] + [0] * (q - 1)
            for f in [_distribution_1x1(c, ell, a) for c in diag] \
                    + [_distribution_2x2(b, ell, a) for b in blocks]:
                full = [sum(full[t] * int(f[(r - t) % q]) for t in range(q))
                        for r in range(q)]
            _clear_density_memos()
            assert _residue_table(ell, a, diag, blocks).tolist() == full, \
                (diag, blocks, a)


def test_a_new_table_is_one_convolution_onto_its_prefix(monkeypatch):
    """Canonical symbols share prefixes: once the table of (1, 1, 1) is
    built, the table of (1, 1, 1, eps) needs one convolution, not three."""
    calls = []
    convolve = quadforms._convolve_mod

    def counting(*args):
        calls.append(args)
        return convolve(*args)

    monkeypatch.setattr(quadforms, "_convolve_mod", counting)
    eps = smallest_nonresidue(5)
    _clear_density_memos()
    _residue_table(5, 2, (1, 1, 1), ())
    assert len(calls) == 2
    calls.clear()
    _residue_table(5, 2, (1, 1, 1, eps), ())
    assert len(calls) == 1
    _clear_density_memos()
    calls.clear()
    _residue_table(5, 2, (1, 1, 1, eps), ())
    assert len(calls) == 3


def test_one_split_per_prime_and_one_determinant(monkeypatch):
    """A lattice splits once per l, from the one determinant it caches."""
    splits, pivots = [], []
    jordan_split, bareiss = linalg.jordan_split, linalg._bareiss

    def split(gram, ell, d):
        splits.append(ell)
        return jordan_split(gram, ell, d)

    def elimination(rows):
        pivots.append(rows)
        return bareiss(rows)

    monkeypatch.setattr(linalg, "jordan_split", split)
    monkeypatch.setattr(linalg, "_bareiss", elimination)
    for gram in DENSITY_GRAMS:
        splits.clear()
        pivots.clear()
        lat = IntLattice(gram)
        for _ in range(3):
            for ell in (2, 3, 5):
                for m in (1, 5, 12, 3):
                    local_density(ell, lat, m)
                    hanke_density(ell, lat, m)
        assert sorted(splits) == [2, 3, 5] and len(pivots) == 1, gram


def test_local_lattice_is_its_own_splitting():
    lat = IntLattice(local_gram(SIEGEL_SSP, 5, 2))
    loc = lat.local(5)
    assert lat.local(5) is loc and loc.local(5) is loc
    assert local_density(5, loc, 10) == local_density(5, lat, 10)
    with pytest.raises(InvalidParameter):
        loc.local(3)


def _kronecker_canonical_symbol(ell, diag):
    """The canonical symbol as it was first built: the units of each
    constituent listed, their product's Kronecker symbol taken."""
    units = {}
    for a in diag:
        k = _valuation(a, ell)
        units.setdefault(k, []).append(a // ell ** k)
    out = []
    for k in sorted(units):
        square = quadforms._kronecker_symbol(math.prod(units[k]), ell) == 1
        eps = 1 if square else smallest_nonresidue(ell)
        out += [ell ** k] * (len(units[k]) - 1) + [ell ** k * eps]
    return tuple(out)


def test_canonical_symbol_matches_the_kronecker_oracle():
    """Euler's criterion on the unit product mod l decides eps as the
    Kronecker symbol of the full product did."""
    rng = random.Random(2510)
    for _ in range(5000):
        ell = rng.choice([3, 5, 7, 11, 13])
        diag = []
        for _ in range(rng.randint(1, 6)):
            unit = rng.choice([u for u in range(1, 4 * ell) if u % ell])
            diag.append(rng.choice([1, -1]) * unit
                        * ell ** rng.randint(0, 3))
        assert quadforms._canonical_symbol(ell, diag) \
            == _kronecker_canonical_symbol(ell, diag), (ell, diag)


def test_canonical_symbol_of_every_fixture_lattice_and_its_L_I():
    """The splitting at each odd l <= 13 of every fixture Gram, and its
    L_I, carry the symbol the Kronecker oracle gives."""
    fixtures = pathlib.Path(__file__).resolve().parents[1] / "fixtures"
    paths = sorted(fixtures.glob("*.gram"))
    seen = deep = 0
    for path in paths:
        lat = IntLattice(read_gram(str(path)))
        for ell in (3, 5, 7, 11, 13):
            diag, _ = linalg.jordan_split(lat.gram, ell, lat.det())
            loc = lat.local(ell)
            assert loc.diag == _kronecker_canonical_symbol(ell, diag), \
                (path.name, ell)
            scaled = loc._rescaled(lambda c: c * ell, lambda c: c // ell)[0]
            L_I = loc.scaled_for_bad_type()[2]
            assert L_I.diag == _kronecker_canonical_symbol(ell, scaled), \
                (path.name, ell)
            seen += 1
            deep += any(c % ell == 0 for c in loc.diag)
    assert seen == 5 * len(paths) and deep >= 10, (seen, deep)

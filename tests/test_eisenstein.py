import ast
import hashlib
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from eisenstein_oracle import _chi_table, l2_over_pi2, l_value
from froblat import eisenstein, quadforms
from froblat.cli import dispatch
from froblat.eisenstein import (H2_TABLE_MAX, bernoulli_2, cohen_h2,
                                fundamental_part, middle_divisor_sum, q_L_hilbert, q_L_siegel,
                                q_positive_definite, ratio_bound)
from froblat.errors import InvalidParameter
from froblat.padics import primefactors
from froblat.enumeration import cusp_deviation, representation_counts
from froblat.quadforms import IntLattice, kronecker, sigma_s

ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854

LS = IntLattice([[2, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                 [0, 0, 0, 0, -1], [0, 0, 0, -1, 0]], "sig32")
UU = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                "UU")
D5 = IntLattice([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
                 [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], "D5")
A5 = IntLattice([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, 0],
                 [0, 0, -1, 2, -1], [0, 0, 0, -1, 2]], "A5")


def test_trivial_character_is_zeta2():
    assert l2_over_pi2(1) == (Fraction(1, 6), 1)
    with mpmath.workdps(30):
        assert abs(l_value(1) - mpmath.zeta(2)) < mpmath.mpf(10) ** -25


def test_l_values_in_window():
    # zeta(4)/zeta(2) <= L(2, chi_D) <= zeta(2): the exact value for D > 0,
    # mpmath's for D < 0
    with mpmath.workdps(30):
        eps = mpmath.mpf(10) ** -25
        lo, hi = mpmath.zeta(4) / mpmath.zeta(2), mpmath.zeta(2)
        for D in range(-100, 101):
            if D == 0 or D % 4 not in (0, 1):
                continue
            assert lo - eps <= l_value(D) <= hi + eps, D


def test_fundamental_part():
    assert fundamental_part(-4) == (-4, 1)
    assert fundamental_part(-16) == (-4, 2)
    assert fundamental_part(9) == (1, 3)
    assert fundamental_part(13) == (13, 1)
    assert fundamental_part(52) == (13, 2)


def test_euler_correction_square_character():
    # chi_9 is principal away from 3: L = zeta(2)(1 - 1/9)
    assert l2_over_pi2(9) == (Fraction(1, 6) * Fraction(8, 9), 1)


def test_hilbert_sign_and_vanishing():
    q = q_L_hilbert(UU, 4)
    assert q.sign() < 0
    assert q.value < 0


def test_hilbert_growth_normalization():
    chi_vals = {}
    from froblat.quadforms import kronecker, local_density, sigma_s
    ms = [3, 7, 5, 13, 11]
    base = {}
    for m in ms:
        r = q_L_hilbert(UU, m)
        key = local_density(2, UU, m)
        c = r.value / (m * sigma_s(m, -1, lambda d: kronecker(4, d)))
        base.setdefault(key, c)
        assert base[key] == c


# sha256 over "m value" lines, one per coefficient; a change to the
# coefficient formulas that moves any value changes the digest
PDET5 = IntLattice([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                    [0, 0, 0, 10, 0], [0, 0, 0, 0, 10]], "pdet5")
LH13 = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, -6]],
                  "LH13")


def _digest(pairs):
    return hashlib.sha256("".join(f"{m} {v}\n" for m, v in pairs)
                          .encode()).hexdigest()


def test_cusp_coefficients_are_pinned():
    # the m divisible by 64 or 125 have their own digest: they were once
    # skipped, and the first digest predates them
    records, _ = cusp_deviation(PDET5, 100, 2000)
    assert [rec["m"] for rec in records] == list(range(100, 2001))
    deep = [not (rec["m"] % 64 and rec["m"] % 125) for rec in records]
    assert _digest((rec["m"], rec["eis"])
                   for rec, d in zip(records, deep) if not d) \
        == "a9340bb0d219603b25829a5706b3348bfea26fe73b66da241debe99ce67d875c"
    assert sum(deep) == 46
    assert _digest((rec["m"], rec["eis"])
                   for rec, d in zip(records, deep) if d) \
        == "f4af378e24eba98a17d3d4b7fe63b9af8b96ed558ebd1a9545d57a218ae42e0f"


def test_coefficients_read_no_table_beyond_mod_8(monkeypatch):
    """The coefficient paths read residue tables mod l or mod 8 only;
    the stable count, with its l^(1 + 2 v_l(2m)) entries, is an oracle."""
    moduli = []
    table = quadforms._residue_table

    def spy(ell, a_exp, diag, blocks2):
        moduli.append((ell, ell ** a_exp))
        return table(ell, a_exp, diag, blocks2)

    monkeypatch.setattr(quadforms, "_residue_table", spy)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    cusp_deviation(PDET5, 100, 2000)
    for m in range(1, 400):
        q_L_hilbert(LH13, m)
    out = io.StringIO()
    assert dispatch(["budget", "--config", "fixtures/budget_p5.cfg"],
                    out=out) == 0
    assert {ell for ell, _ in moduli} == {2, 5, 13}
    assert all(q <= max(ell, 8) for ell, q in moduli)


def test_hilbert_coefficients_are_pinned():
    assert _digest((m, q_L_hilbert(LH13, m).value) for m in range(1, 400)) \
        == "020017e11a307493e036c26e2015a5aecd92b4734fe7a98d981f4abd9e23e380"


def test_rank4_formula_is_exact_on_four_squares():
    Z4 = IntLattice([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                     [0, 0, 0, 2]], "Z4")
    counts = representation_counts(Z4, 30)
    for m in range(1, 31):
        assert q_positive_definite(Z4, m).value == counts[m], m


@pytest.mark.parametrize("lat", [D5, A5], ids=["D5", "A5"])
def test_rank5_calibration_one_class_genus(lat):
    counts = representation_counts(lat, 60)
    for m in range(1, 61):
        assert q_positive_definite(lat, m).value == counts[m], m


def test_siegel_window():
    import sympy
    vals = []
    for qp in sympy.primerange(2, 23):
        if qp == 5:
            continue
        m = qp * qp
        if m > 500:
            break
        r = q_L_siegel(LS, m)
        assert r.sign() < 0
        vals.append(-r.midpoint() / m ** 1.5)
    assert max(vals) / min(vals) <= 5 * ZETA2 ** 2 * ZETA3


def test_middle_sum_window():
    for m0, f in [(1, 3), (2, 15), (3, 7), (1, 30), (7, 11)]:
        s = middle_divisor_sum(m0, f, 2)
        assert Fraction(1, 5) <= s <= Fraction(2)
        assert float(s) <= ZETA2 * ZETA3 + 1e-12


def test_middle_sum_matches_divisor_mobius_reference():
    import sympy
    for m0, det in [(1, 4), (3, -2), (5, 2), (6, 10)]:
        D = 2 * m0 * abs(det)
        for f in range(1, 301):
            want = sum(int(sympy.mobius(d)) * kronecker(D, d)
                       * Fraction(1, d * d) * sigma_s(f // d, -3)
                       for d in sympy.divisors(f))
            assert middle_divisor_sum(m0, f, det) == want, (m0, det, f)


def test_ratio_bounds_table():
    assert ratio_bound("superspecial", 5) == Fraction(1, 4)
    assert ratio_bound("hilbert", 5) == Fraction(1, 4)
    assert ratio_bound("supergeneric", 5) == Fraction(2, 24)
    assert ratio_bound("superspecial", 5, idx_sqrt=5, vp_m=1,
                       index_is_p=True) == Fraction(4, 24)
    b = ratio_bound("superspecial", 5, idx_sqrt=25)
    assert b == Fraction(2 * 25, 25 * 24)


def test_exact_ratio_and_bound_check():
    # the ratio bounds compare a definite sublattice coefficient against
    # the ambient self-dual-at-p lattice (here the det-13 surface lattice)
    LH = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1],
                     [0, 0, 1, -6]], "LH13")
    head = [[2, 0, -1, -1], [0, 2, -1, 0], [-1, -1, 6, -2], [-1, 0, -2, 18]]
    sub = [row[:] for row in head]
    k = 2
    for j in range(4):
        sub[k][j] *= 5
        sub[j][k] *= 5
    Lhead = IntLattice(head, "head")
    Lsub = IntLattice(sub, "sub")
    rng = random.Random(4)
    checked = 0
    for _ in range(30):
        m = rng.randint(1, 80)
        if m % 5 == 0:
            continue
        qg = q_L_hilbert(LH, m)
        if qg.value == 0:
            continue
        for lat, idx_sqrt in ((Lhead, 5), (Lsub, 25)):
            qs = q_positive_definite(lat, m)
            ratio = qs.value / qg.value
            assert isinstance(ratio, Fraction)
            bound = ratio_bound("superspecial", 5, idx_sqrt=idx_sqrt)
            assert -ratio <= bound
        checked += 1
    assert checked > 10


def test_radius_only_from_l_value():
    # coefficients are exact: the L-value enters through B_{2,chi}
    q = q_L_hilbert(UU, 7)
    assert isinstance(q.value, Fraction)
    assert q.radius() == 0 and q.midpoint() == q.value


def test_hilbert_growth_window():
    """m^(1-eps) << |q(m)| << m^(1+eps) over an admissible m-set."""
    from froblat.enumeration import build_T_set
    T = build_T_set("hilbert", 5, {"N": 0, "C": 1, "det2": 26}, 500)
    LH = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1],
                     [0, 0, 1, -6]], "LH13")
    eps = 0.35
    lows, highs = [], []
    for m in T:
        q = q_L_hilbert(LH, m)
        mag = -q.midpoint()
        assert mag > 0
        lows.append(mag / m ** (1 - eps))
        highs.append(mag / m ** (1 + eps))
    # fitted constants: the normalized ratios stay inside fixed windows
    assert min(lows) > 0.1
    assert max(highs) < 10.0


def test_hilbert_partial_sum_growth():
    """sum_{m in T_M} |q(m)| grows like M^2: the ratio to M^2 is stable
    within a fixed window as M doubles."""
    from froblat.enumeration import build_T_set
    LH = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1],
                     [0, 0, 1, -6]], "LH13")
    cache = {}

    def mass(M):
        total = 0.0
        for m in build_T_set("hilbert", 5, {"N": 0, "C": 1, "det2": 26}, M):
            if m not in cache:
                cache[m] = -q_L_hilbert(LH, m).midpoint()
            total += cache[m]
        return total / M ** 2

    values = [mass(M) for M in (125, 250, 500)]
    assert max(values) / min(values) < 2.0


def _fundamental(D):
    if D in (0, 1) or D % 4 not in (0, 1):
        return False
    return fundamental_part(D) == (D, 1)


def test_sieved_chi_table_matches_kronecker():
    discs = [D for D in range(-3000, 3000) if _fundamental(D)]
    # around 16000, the top of the direct-sum oracle for B_{2,chi} below
    near = [15997, 16001, -15995, 16012, -16004, 16024]
    assert all(map(_fundamental, near))
    discs += near
    for D0 in discs:
        table = _chi_table(D0)
        assert [int(c) for c in table] \
            == [kronecker(D0, n) for n in range(abs(D0))], D0


def _b2_by_kronecker(D0):
    """(1/f) sum_{a=1}^{f} chi(a) a^2, valid for even chi with f > 1."""
    return Fraction(sum(kronecker(D0, a) * a * a for a in range(1, D0)), D0)


def test_bernoulli_matches_kronecker_sum():
    assert bernoulli_2(1) == Fraction(1, 6)
    assert bernoulli_2(5) == Fraction(4, 5)
    discs = [D for D in range(2, 3000) if _fundamental(D)]
    assert len(discs) > 900
    for D0 in discs:
        assert bernoulli_2(D0) == _b2_by_kronecker(D0), D0


def test_bernoulli_large_conductor_is_exact():
    # D0^3 >= 2^63, a table of g past 2 * 10^6; the reference uses
    # chi_q(a) = 1 exactly on the nonzero squares mod the prime q
    import sympy
    q = sympy.nextprime(2 ** 21)
    while q % 4 != 1:
        q = sympy.nextprime(q)
    assert q ** 3 >= 2 ** 63
    squares = {x * x % q for x in range(1, (q + 1) // 2)}
    s2 = 2 * sum(r * r for r in squares) - sum(a * a for a in range(1, q))
    assert bernoulli_2(q) == Fraction(s2, q)


def _b2_direct(D0):
    """f sum_{a=1}^{f} chi(a) B_2(a/f), f = D0: the character table dotted
    with 6 a (a - f) + f^2, over 6 f (exact in int64 for f <= 16000)."""
    f = D0
    a = np.arange(1, f + 1, dtype=np.int64)
    chi = np.roll(_chi_table(D0), -1).astype(np.int64)
    return Fraction(int(np.dot(chi, 6 * a * (a - f) + f * f)), 6 * f)


def test_bernoulli_matches_direct_sum_to_16000():
    # independent of the sigma_1 sieve, which is built from theta^5
    discs = [1] + [D for D in range(2, 16001) if _fundamental(D)]
    assert len(discs) == 4866
    for D0 in discs:
        assert bernoulli_2(D0) == _b2_direct(D0), D0


def test_cohen_h2_vanishes_off_discriminants():
    for N in range(1, 2001):
        if N % 4 in (2, 3):
            assert cohen_h2(N) == 0, N


def test_cohen_h2_at_non_fundamental_discriminants():
    # H(2, D0 f^2) = L(-1, chi_{D0}) sum_{d | f} mu(d) chi(d) d sigma_3(f/d)
    import sympy
    checked = 0
    for N in range(1, 2001):
        if N % 4 not in (0, 1):
            continue
        D0, f = fundamental_part(N)
        s = sum(int(sympy.mobius(d)) * kronecker(D0, d) * d
                * int(sympy.divisor_sigma(f // d, 3))
                for d in sympy.divisors(f))
        assert cohen_h2(N) == -_b2_direct(D0) / 2 * s, N
        checked += f > 1
    assert checked > 300


def test_cohen_h2_raises_past_the_table_cap_before_building():
    import tracemalloc

    def bound(N):
        return (2 * math.isqrt(N) + 1) * 28 * N * (1 + math.log(N))

    # the int64 gather cannot wrap anywhere below the cap, and the largest
    # D0 asked for anywhere is the 2097169 of
    # test_bernoulli_large_conductor_is_exact
    assert bound(H2_TABLE_MAX) < 2 ** 63
    assert 2097169 < H2_TABLE_MAX
    size = len(eisenstein._g)
    tracemalloc.start()
    try:
        for N in (H2_TABLE_MAX, 34887503850):
            for call in (cohen_h2, bernoulli_2):
                with pytest.raises(InvalidParameter, match="g table"):
                    call(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(eisenstein._g) == size
    assert peak < 1 << 16


def test_the_batch_equals_the_per_n_sum_below_20000():
    # one batch of every N < 20000 against the direct sum
    # g(N) + 2 sum_{k >= 1} g(N - k^2), N by N in Python ints
    got = eisenstein.cohen_h2_batch(range(1, 20000))
    assert list(got) == list(range(1, 20000))
    assert len(eisenstein._h2) <= eisenstein.H2_MEMO_MAX
    g = eisenstein._g[:20000].tolist()
    for N in range(1, 20000):
        total = g[N] + 2 * sum(g[N - k * k]
                               for k in range(1, math.isqrt(N) + 1))
        assert got[N] == Fraction(total, 120), N


def test_g_table_matches_divisor_sums():
    """g(n) = 8 sigma(n) - 32 sigma(n/4) - 20 [n odd] sigma(n), g(0) = 1,
    entry by entry for n < 2^12, sigma summed over the divisors."""
    X = 1 << 12
    cohen_h2(X - 1)
    sigma = [0] * X
    for d in range(1, X):
        for n in range(d, X, d):
            sigma[n] += d
    want = [1] + [8 * sigma[n] - 32 * sigma[n // 4] * (n % 4 == 0)
                  - 20 * sigma[n] * (n % 2) for n in range(1, X)]
    assert eisenstein._g[:X].tolist() == want


def test_the_full_g_table_is_built_in_place():
    # a full table is 32 MiB of int64; the sieve's largest temporary is
    # its d = 2 term, half a table (+48 MiB in all); a sieve holding
    # three table-sized arrays reads +80 MiB and fails the bound
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    probe = ("import resource; from froblat import eisenstein as e; "
             "peak = lambda: resource.getrusage(resource.RUSAGE_SELF)"
             ".ru_maxrss; before = peak(); "
             "e.cohen_h2(e.H2_TABLE_MAX - 1); "
             "print(len(e._g), peak() - before)")
    # a child inherits the high-water mark of the process that starts it,
    # so a fresh interpreter, not this one, starts the probe
    fresh = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"
    proc = subprocess.run([sys.executable, "-c", fresh, sys.executable, "-c",
                           probe], env=env, check=True, capture_output=True,
                          text=True, timeout=120)
    size, kib = map(int, proc.stdout.split())
    assert size == H2_TABLE_MAX
    assert kib < 60 * 1024, kib


def test_l_values_contain_mpmath_reference():
    # every discriminant 0 < D <= 100, fundamental or not
    with mpmath.workdps(30):
        for D in range(1, 101):
            if D % 4 not in (0, 1):
                continue
            chi = [kronecker(D, n) for n in range(D)]
            ref = mpmath.dirichlet(2, chi)
            assert abs(l_value(D) - ref) < mpmath.mpf(10) ** -25, D


def test_eisenstein_module_has_no_float():
    # everything the module computes is exact: no float literal, no float
    # name, no nextafter and no numpy float type
    tree = ast.parse(Path(eisenstein.__file__).read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, float)
             or isinstance(node, ast.Name) and node.id == "float"
             or isinstance(node, ast.Attribute)
             and (node.attr == "nextafter" or node.attr.startswith("float"))]
    assert found == []


def test_every_coefficient_is_a_fraction():
    LH = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1],
                     [0, 0, 1, -6]], "LH13")
    for m in range(1, 41):
        for q in (q_L_hilbert(LH, m), q_L_hilbert(UU, m), q_L_siegel(LS, m),
                  q_positive_definite(D5, m)):
            assert type(q.value) is Fraction, (q, m)


@pytest.mark.parametrize("qfun, lat", [
    (q_L_hilbert, IntLattice([[2, 1], [1, 4]])),
    (q_L_hilbert, LS),
    (q_L_siegel, IntLattice([[2, 1, 0], [1, 2, 0], [0, 0, 2]])),
    (q_L_siegel, UU),
    (q_positive_definite, IntLattice([[2, 1], [1, 4]])),
], ids=["hilbert-rank2", "hilbert-rank5", "siegel-rank3", "siegel-rank4",
        "definite-rank2"])
def test_coefficient_formulas_check_the_rank(qfun, lat):
    with pytest.raises(InvalidParameter, match="rank"):
        qfun(lat, 3)


# -- the batch against the per-m oracle ---------------------------------

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture(name):
    from froblat.cli import read_gram
    return IntLattice(read_gram(os.path.join(FIXTURES, name + ".gram")),
                      name)


def _fields(res):
    return res.m, res.value, type(res.value), res.l_fund, res.m0, res.f


@pytest.mark.parametrize("name, m_hi, sign", [
    ("rank5_pdet5", 2000, 1), ("ls_global", 3000, -1), ("lh_f13", 3000, -1),
    ("d5", 60, 1), ("a5", 60, 1), ("z4", 60, 1), ("z5", 60, 1)])
def test_batch_equals_the_per_m_oracle(name, m_hi, sign):
    import eisenstein_oracle
    got = list(eisenstein.coefficients(_fixture(name), range(1, m_hi + 1)))
    assert len(got) == m_hi
    oracle = _fixture(name)
    for m, res in zip(range(1, m_hi + 1), got):
        want = eisenstein_oracle.coefficient(oracle, m, sign)
        assert _fields(res) == _fields(want), (name, m)


def test_batch_of_a_shuffled_list_with_repeats():
    import eisenstein_oracle
    rng = random.Random(29)
    for name, sign in (("rank5_pdet5", 1), ("lh_f13", -1)):
        ms = [rng.randint(1, 400) for _ in range(300)] + [7, 7, 1]
        rng.shuffle(ms)
        lat = _fixture(name)
        got = eisenstein.coefficients(lat, ms)
        assert [_fields(r) for r in got] == [
            _fields(eisenstein_oracle.coefficient(lat, m, sign)) for m in ms]


def test_single_m_forms_are_the_one_element_batch():
    for m in (1, 9, 250):
        assert q_L_siegel(LS, m) == next(eisenstein.coefficients(LS, [m]))
        assert q_L_hilbert(LH13, m) \
            == next(eisenstein.coefficients(LH13, [m]))
        assert q_positive_definite(D5, m, tol=1e-10) \
            == next(eisenstein.coefficients(D5, [m]))


def test_a_range_is_read_as_it_streams():
    # nothing past the m read so far, or past a rank-5 pass's read-ahead
    # chunk of H2_READ_AHEAD m, is computed, however long the range
    for lat in (LS, LH13, D5):
        it = eisenstein.coefficients(lat, range(1, 10 ** 15))
        assert [next(it).m for _ in range(3)] == [1, 2, 3]


def test_a_refused_m_is_refused_after_the_m_before_it():
    # m = 0 sits in the read-ahead chunk of m = 5, but m = 5 comes first
    it = eisenstein.coefficients(_fixture("ls_global"), [5, 0])
    assert next(it).m == 5
    with pytest.raises(InvalidParameter, match="m must be positive"):
        next(it)


RANK_45 = ["a5", "chain_head_p5", "d5", "hilbert_inert_sg_p5",
           "hilbert_inert_ssp_p5", "hilbert_split_p5", "lh_f13", "ls_global",
           "rank5_pdet5", "siegel_sg_p5", "siegel_ssp_p5", "z4", "z5"]


@pytest.mark.parametrize("name", RANK_45)
def test_density_key_reproduces_hanke_density(name):
    # a batch reads each density from a memo keyed by (l, v_l(m), unit
    # part mod l or mod 8); a key that merged two densities shows here
    lat, plain = _fixture(name), _fixture(name)
    for ell in primefactors(2 * lat.det()):
        ms = range(1, 2001)
        for m, num, den in eisenstein._densities(lat, [ell], ms):
            delta = quadforms.hanke_density(ell, plain, m)
            assert (num, den) == (delta.numerator, delta.denominator), \
                (name, ell, m)

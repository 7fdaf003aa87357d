"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and runtime bound is pinned here; the suite is the exit
gate for the package.  Run with ``pytest -s tests/test_acceptance.py`` to
see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import mpmath
import pytest
import sympy

from eisenstein_oracle import l2_over_pi2, l_value
from froblat.budget import alpha_const, eisenstein_budget, run_budget
from froblat.crystals import LOCAL_DENSITIES, SIEGEL_SG, local_gram
from froblat.eisenstein import q_L_siegel, q_positive_definite
from froblat.enumeration import (build_T_set, cusp_deviation,
                                 representation_counts)
from froblat.padics import smallest_nonresidue
from froblat.quadforms import IntLattice, hanke_density, local_density
from froblat.regression import (decay_fixture_table, run_decay_fixture,
                                split_equal_decay_indices)

ZETA2 = math.pi ** 2 / 6
ZETA3 = 1.2020569031595942854


def _report(name, elapsed, budget):
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s < {budget}s)")
    assert elapsed < budget


def test_criterion_1_golden_densities():
    start = time.time()
    families = [(case, vp, lambda p, d, want=want: d == want(p))
                for case, vp, want in LOCAL_DENSITIES]
    families.append((SIEGEL_SG, 0,
                     lambda p, d: d in (Fraction(0), Fraction(2))))
    for p in (5, 7, 11, 13):
        eps = smallest_nonresidue(p)
        for case, vp, ok in families:
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
                assert ok(p, local_density(p, lat, m)), (case, p, m)
    _report("1 golden-densities", time.time() - start, 10)


def test_criterion_2_hanke_vs_brute_force():
    import random
    start = time.time()
    rng = random.Random(20260810)
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
        assert hanke_density(p, lat, m) == local_density(p, lat, m)
        checked += 1
    _report("2 hanke-vs-brute", time.time() - start, 60)


def test_criterion_3_decay_regression_matrix():
    start = time.time()
    table = decay_fixture_table(5)
    assert len(table) >= 15
    for fix in table:
        res = run_decay_fixture(fix, n_max=2)
        assert res["nt"] >= fix["A"] * (1 + 5 + 25) + 1
        assert res["A"] == fix["A"]
        assert len(res["basis"]) == 3
        if fix["want_witness"]:
            assert res["witness"] is not None
    assert split_equal_decay_indices(5, 2) == [2, 12, 62]
    _report("3 decay-matrix", time.time() - start, 300)


def test_criterion_4_alpha_and_budget_closed_form():
    start = time.time()
    for p in sympy.primerange(5, 98):
        assert alpha_const(p) == Fraction(p + 2, 2 * p) \
            + Fraction(p, p * p - 1)
        assert alpha_const(p) < Fraction(11, 12)
    for p in (5, 7, 13):
        # the 14-level chain with indices p^(3n) and p^(3n+1)
        chain = [(p ** (3 * n), p ** (3 * n + 1)) for n in range(14)]
        for A in (1, 2, 5):
            closed = eisenstein_budget("superspecial", A, p, "geometric")
            assert closed == Fraction(A, p - 1) * alpha_const(p)
            finite = eisenstein_budget("superspecial", A, p, chain)
            assert 0 < closed - finite < Fraction(1, p ** 20)
    _report("4 alpha-constants", time.time() - start, 1)


def test_criterion_5_l_value_sanity():
    # for D > 0 the exact pi^2 E B_{2,chi} / D0^(3/2) the package computes,
    # for D < 0 (the package computes none) mpmath's sum, at 30 digits
    start = time.time()
    assert l2_over_pi2(1) == (Fraction(1, 6), 1)  # zeta(2) = pi^2 / 6
    with mpmath.workdps(30):
        eps = mpmath.mpf(10) ** -25
        lo, hi = mpmath.zeta(4) / mpmath.zeta(2), mpmath.zeta(2)
        for D in range(-100, 101):
            if D == 0 or D % 4 not in (0, 1):
                continue
            assert lo - eps <= l_value(D) <= hi + eps, D
    _report("5 l-values", time.time() - start, 10)


def test_criterion_6_eisenstein_asymptotics():
    start = time.time()
    LS = IntLattice([[2, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                     [0, 0, 0, 0, -1], [0, 0, 0, -1, 0]], "sig32")
    ratios = []
    for m in build_T_set("square", 5, {"D": 1}, 500):
        r = q_L_siegel(LS, m)
        assert r.sign() < 0
        ratios.append(-r.midpoint() / m ** 1.5)
    assert ratios
    assert max(ratios) / min(ratios) <= 5 * ZETA2 ** 2 * ZETA3
    _report("6 eisenstein-window", time.time() - start, 30)


def test_criterion_7_enumeration_oracle():
    import itertools
    start = time.time()
    grams = [[[2, 0], [0, 2]], [[2, 1], [1, 4]],
             [[2, 0, 0], [0, 4, 1], [0, 1, 6]],
             [[4, 1, -1], [1, 2, 0], [-1, 0, 6]]]
    for gram in grams:
        lat = IntLattice(gram)
        mine = representation_counts(lat, 50)
        # independent box enumeration via the inverse quadratic form
        n = lat.rank
        A = [[Fraction(x, 2) for x in row] for row in lat.gram]
        aug = [[A[r][c] for c in range(n)]
               + [Fraction(int(r == c)) for c in range(n)]
               for r in range(n)]
        for i in range(n):
            piv = next(r for r in range(i, n) if aug[r][i] != 0)
            aug[i], aug[piv] = aug[piv], aug[i]
            s = 1 / aug[i][i]
            aug[i] = [x * s for x in aug[i]]
            for r in range(n):
                if r != i and aug[r][i]:
                    f = aug[r][i]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[i])]
        lims = [int(math.isqrt(int(50 * aug[i][n + i])) + 1)
                for i in range(n)]
        oracle = [0] * 51
        for v in itertools.product(*[range(-l, l + 1) for l in lims]):
            q = lat.q_value(list(v))
            if 0 <= q <= 50:
                oracle[q] += 1
        assert mine == oracle
    Z4 = IntLattice([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0],
                     [0, 0, 0, 2]])
    counts = representation_counts(Z4, 2)
    assert counts[1] == 8 and counts[2] == 24
    _report("7 enumeration-oracle", time.time() - start, 10)


def test_criterion_8_cusp_deviation():
    start = time.time()
    # single-class calibration: theta equals the Eisenstein part
    D5 = IntLattice([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0],
                     [0, -1, 2, -1, -1], [0, 0, -1, 2, 0],
                     [0, 0, -1, 0, 2]], "D5")
    counts = representation_counts(D5, 60)
    for m in range(1, 61):
        assert counts[m] == q_positive_definite(D5, m).value
    # growth of the deviation on a rank-5 lattice with p | det
    L5 = IntLattice([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                     [0, 0, 0, 10, 0], [0, 0, 0, 0, 10]], "pdet5")
    records, slope = cusp_deviation(L5, 100, 2000)
    assert len(records) > 1500
    assert slope <= 1.3
    _report("8 cusp-deviation", time.time() - start, 300)


def test_criterion_9_budget_pipeline():
    start = time.time()
    head = [[2, 0, -1, -1], [0, 2, -1, 0], [-1, -1, 6, -2],
            [-1, 0, -2, 18]]
    lh = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, -6]]
    rep = run_budget(p=5, A=2, case="superspecial", global_gram=lh,
                     chain_head=head, depth=3, M=500, t_kind="hilbert",
                     t_params={"N": 0, "C": 1},
                     exclude_deep=True)
    assert len(rep.T) > 100
    assert rep.global_sum == 282196
    assert rep.ratio <= Fraction(11, 12)
    _report("9 budget-pipeline", time.time() - start, 300)

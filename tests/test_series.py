import random
from collections import Counter
from fractions import Fraction

import pytest

from froblat.crystals import f_infinity
from froblat.errors import InvalidParameter, NonConvergent
from froblat.padics import INF, PAdicParams, PAdicScalar, _fold
from froblat.regression import build_fixture, decay_fixture_table
from froblat.series import (DecayProfile, MatSeries, TruncSeries, _build,
                            _fused, _term, column_valuation_profile,
                            truncated_product)
from series_oracle import assert_agree, coeffs, scalar


@pytest.fixture(scope="module")
def P():
    return PAdicParams(5, 1, 8)


@pytest.fixture(scope="module")
def W(P):
    return PAdicParams(5, 2, 8)


def test_unit_and_truncation(P):
    a = TruncSeries(P, 10, {0: P.one(), 3: P.from_int(2)})
    one = TruncSeries.constant(P, 10, P.one())
    prod = a * one
    assert sorted(coeffs(prod)) == [0, 3]
    t6 = TruncSeries(P, 10, {6: P.one()})
    t7 = TruncSeries(P, 10, {7: P.one()})
    assert (t6 * t7).terms == []


def test_one_plus_t_times_one_minus_t(P):
    a = TruncSeries(P, 10, {0: P.one(), 1: P.one()})
    b = TruncSeries(P, 10, {0: P.one(), 1: P.from_int(-1)})
    prod = coeffs(a * b)
    assert sorted(prod) == [0, 2]
    assert prod[2].coeffs[0] == -1


def test_twist_definition(W):
    lam = W.lam()
    s = TruncSeries(W, 60, {2: lam})
    tw = coeffs(s.frobenius_twist())
    assert list(tw) == [10]
    assert (tw[10] + lam).is_precision_zero() or (tw[10] + lam).is_zero()


def test_twist_is_substitution_for_teichmuller_series(W):
    rng = random.Random(3)
    rf = W.residue_field
    exps = rng.sample(range(1, 12), 3)
    residues = [(rng.randrange(5), rng.randrange(5)) for _ in range(3)]
    s = TruncSeries(W, 80, {e: W.teichmuller(r)
                            for e, r in zip(exps, residues)})
    tw = s.frobenius_twist()
    # oracle: lift r -> r^p on residues, then send t to t^p
    expected = TruncSeries(W, 80, {e * 5: W.teichmuller(rf.pow(rf.element(r),
                                                              5))
                                   for e, r in zip(exps, residues)})
    assert_agree(tw, expected)


def test_twist_multiplicative(W):
    rng = random.Random(5)
    for _ in range(10):
        a = TruncSeries(W, 40, {rng.randrange(1, 8):
                                W.teichmuller((rng.randrange(5),
                                               rng.randrange(5)))
                                for _ in range(2)})
        b = TruncSeries(W, 40, {rng.randrange(1, 8):
                                W.teichmuller((rng.randrange(5),
                                               rng.randrange(5)))
                                for _ in range(2)})
        lhs = (a * b).frobenius_twist()
        rhs = a.frobenius_twist() * b.frobenius_twist()
        assert_agree(lhs, rhs)


def test_matmul_associative(P):
    rng = random.Random(7)

    def rand_mat():
        return MatSeries(P, 12, [[TruncSeries(P, 12, {rng.randrange(4):
                                                      P.from_int(rng.randint(-3, 3))})
                                  for _ in range(2)] for _ in range(2)])

    for _ in range(5):
        A, B, C = rand_mat(), rand_mat(), rand_mat()
        lhs = A.mul_add(B).mul_add(C)
        rhs = A.mul_add(B.mul_add(C))
        for i in range(2):
            for j in range(2):
                assert_agree(lhs.entries[i][j], rhs.entries[i][j])


def test_shape_mismatch(P):
    A = MatSeries.zero(P, 10, 2, 3)
    B = MatSeries.zero(P, 10, 2, 3)
    with pytest.raises(InvalidParameter):
        A.mul_add(B)


def test_mixed_contexts_rejected(P, W):
    with pytest.raises(InvalidParameter):
        TruncSeries.constant(P, 10, P.one()).scale(W.one())
    with pytest.raises(InvalidParameter):
        MatSeries.identity(P, 10, 2).mul_add(MatSeries.identity(W, 10, 2))
    with pytest.raises(InvalidParameter):
        MatSeries.identity(P, 10, 2).mul_add(MatSeries.identity(P, 10, 2),
                                             MatSeries.identity(P, 11, 2))


def test_scalar_product_example(P):
    # F = [t/5] at p = 5, N_t = 30: the t^(1+p) coefficient has
    # valuation -2, the t^1 coefficient valuation -1
    F = MatSeries(P, 30, [[TruncSeries(
        P, 30, {1: P.from_rational(Fraction(1, 5))})]])
    prod = truncated_product(F)
    prof = column_valuation_profile(prod, [1])
    assert prof.minvals.get(1, INF) == -1
    assert prof.minvals.get(6, INF) == -2
    # independent oracle over exact rationals
    oracle = {0: Fraction(1)}
    for i in range(0, 3):
        step = 5 ** i
        new = dict(oracle)
        for k, c in oracle.items():
            if k + step <= 30:
                new[k + step] = new.get(k + step, Fraction(0)) + c / 5
        oracle = new
    for k, c in oracle.items():
        if c and k <= 30:
            want = -0
            num = c
            v = 0
            while num.denominator % 5 == 0:
                num *= 5
                v -= 1
            assert prof.minvals.get(k, INF) == v


def test_zero_matrix_gives_identity(P):
    F = MatSeries.zero(P, 10, 3, 3)
    prod = truncated_product(F)
    for i in range(3):
        for j in range(3):
            ks = [t[0] for t in prod.entries[i][j].terms]
            assert ks == ([0] if i == j else [])


def test_nonconvergent_rejected(P):
    F = MatSeries(P, 10, [[TruncSeries.constant(P, 10, P.one())]])
    with pytest.raises(NonConvergent):
        truncated_product(F)


def test_factor_count_stabilizes(P):
    F = MatSeries(P, 30, [[TruncSeries(
        P, 30, {1: P.from_rational(Fraction(1, 5))})]])
    auto = truncated_product(F)
    k = 0
    while 5 ** (k + 1) <= 30:
        k += 1
    # one factor past the product's last: (I + sigma^(k+1) F) is I
    # modulo t^(N_t + 1), so it changes no coefficient
    twisted = F
    for _ in range(k + 1):
        twisted = twisted.frobenius_twist()
    more = auto.mul_add(twisted, auto)
    assert_agree(auto.entries[0][0], more.entries[0][0])


def test_profile_trivial_cases(P):
    M = MatSeries.identity(P, 10, 2)
    prof = column_valuation_profile(M, [0, 0])
    assert all(prof.minvals.get(k, INF) == INF for k in range(11))
    prof2 = column_valuation_profile(M, [3, 5])
    assert prof2.minvals.get(0, INF) >= 0


def test_decay_index_hit_after_a_masked_floor_is_unsound():
    """A hit after a masked floor names that floor's (k, row, bound)."""
    profile = DecayProfile(10, minvals={5: -1}, floors={3: (-2, 1)})
    assert profile.decay_index(0) == (5, (3, 1, -2))
    assert profile.decay_index(0, kmax=2) == (INF, None)
    assert profile.decay_index(1) == (INF, (3, 1, -2))
    assert profile.decay_index(2) == (INF, None)
    assert DecayProfile(10, {5: -1}, {}).decay_index(0) == (5, None)


# -- the fused kernel against chained scalar arithmetic ---------------------

def chained(pairs, addend, nt):
    """sum a * b + addend, one PAdicScalar multiply or add at a time, and
    the least known bound among the terms at each exponent."""
    out = coeffs(addend)
    least = {k: c.known_bound() for k, c in out.items()}
    for a, b in pairs:
        for i, x in coeffs(a).items():
            for j, y in coeffs(b).items():
                k = i + j
                if k > nt:
                    continue
                prod = x * y
                least[k] = min(least.get(k, INF), prod.known_bound())
                if prod.is_zero():
                    continue
                s = out[k] + prod if k in out else prod
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
    return out, least


def random_scalar(params, rng):
    p, d, M = params.p, params.d, params.precision_M
    shift = rng.randint(-3, 3)
    kind = rng.random()
    if kind < 0.15:
        return PAdicScalar.masked(params, shift + rng.randint(1, M))
    if kind < 0.4:
        # one digit c g^i, exact or not: the kernel's main traffic
        unit = [0] * d
        unit[rng.randrange(d)] = rng.randrange(1, p)
        rel = None if kind < 0.25 else rng.randint(1, M)
        return PAdicScalar(params, shift, tuple(unit), rel)
    if kind < 0.6:
        unit = [rng.randint(-30, 30) for _ in range(d)]
        unit[0] = rng.choice((-1, 1)) * rng.randrange(1, p)
        return PAdicScalar(params, shift, tuple(unit), None)._normalize()
    unit = [rng.randrange(p ** M) for _ in range(d)]
    unit[rng.randrange(d)] = rng.randrange(1, p)
    return PAdicScalar(params, shift, tuple(unit),
                       rng.randint(1, M))._normalize()


def random_series(params, nt, rng):
    return TruncSeries(params, nt, {rng.randrange(nt + 1):
                                    random_scalar(params, rng)
                                    for _ in range(rng.randint(0, 5))})


def digits(c, shift, bound):
    """c as integer digits at ``shift``, mod p^(bound - shift); masked 0."""
    p = c.params.p
    if c.is_precision_zero():
        return (0,) * c.params.d
    return tuple(x * p ** (c.shift - shift) % p ** (bound - shift)
                 for x in c.coeffs)


# x^3 + x + 1 at p = 5, x^8 + x^2 + 2 at p = 3 and x^4 + x + 1 at p = 7
# fold through rows with several nonzero entries
@pytest.mark.parametrize("p, d", [(5, 1), (5, 2), (5, 4), (5, 3), (5, 8),
                                  (3, 8), (7, 4)])
def test_fused_kernel_matches_chained_oracle(p, d):
    params = PAdicParams(p, d, 6)
    nt = 8
    rng = random.Random(100 * p + d)
    for _ in range(150):
        pairs = [(random_series(params, nt, rng),
                  random_series(params, nt, rng))
                 for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            # a later term cancels an earlier one exactly
            pairs.append((-pairs[0][0], pairs[0][1]))
        addend = random_series(params, nt, rng)
        out = _fused(params, nt, pairs, (addend,))
        fused = coeffs(out)
        # the kernel's views are those of the scalars they stand for
        assert TruncSeries(params, nt, fused).terms == out.terms
        want, least = chained(pairs, addend, nt)
        assert set(fused) == set(want)
        for k, c in fused.items():
            w = want[k]
            # never fewer digits than the chain, never more than the terms
            assert w.known_bound() <= c.known_bound() <= least[k]
            bound = min(c.known_bound(), w.known_bound())
            if bound == INF:
                assert (c.shift, c.coeffs) == (w.shift, w.coeffs)
                continue
            visible = [x.shift for x in (c, w) if not x.is_precision_zero()]
            shift = min(visible + [bound])
            assert digits(c, shift, bound) == digits(w, shift, bound)


# -- the right-to-left product against the left-to-right one ---------------

def left_to_right(F):
    """prod = prod (I + sigma_t^i F) for i = 0 .. K: the order F_inf was
    formed in before, carrying the full n x n product at every step."""
    v, p = F.min_vt(), F.params.p
    K = 0
    while v * p ** (K + 1) <= F.nt:
        K += 1
    prod = MatSeries.identity(F.params, F.nt, F.rows)
    factor = F
    for i in range(K + 1):
        prod = prod.mul_add(factor, prod)
        if i < K:
            factor = factor.frobenius_twist()
    return prod


# every decay fixture
ORDER_CASES = {fix["name"]: fix for fix in decay_fixture_table(5)}


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_right_to_left_product_loses_no_digit(name):
    """Same exponents in every entry; every coefficient agrees with the
    left-to-right product modulo that product's known bound, and is known
    to at least that bound; no more coefficients are masked."""
    model, curve = build_fixture(ORDER_CASES[name])
    new = f_infinity(model, curve, n_max=2)
    old = left_to_right(model.perturbation_matrix(curve))
    masked = {"new": 0, "old": 0}
    for new_row, old_row in zip(new.entries, old.entries, strict=True):
        for a, b in zip(new_row, old_row, strict=True):
            a, b = coeffs(a), coeffs(b)
            assert a.keys() == b.keys()
            for k, c in a.items():
                w = b[k]
                bound = w.known_bound()
                assert c.known_bound() >= bound
                if bound == INF:
                    assert (c.shift, c.coeffs) == (w.shift, w.coeffs)
                    continue
                visible = [x.shift for x in (c, w)
                           if not x.is_precision_zero()]
                shift = min(visible + [bound])
                assert digits(c, shift, bound) == digits(w, shift, bound)
                masked["new"] += c.is_precision_zero()
                masked["old"] += w.is_precision_zero()
    assert masked["new"] <= masked["old"]


# -- the kernel's view: a series holds no scalar ------------------------------

def test_truncated_product_builds_no_intermediate_scalar(monkeypatch):
    """Forming F_inf builds one PAdicScalar, the identity's ``one``: the
    K intermediate products and the four twists of F build none."""
    model, curve = build_fixture(
        ORDER_CASES["supergeneric-deep-cancel-strict"])
    factor = model.perturbation_matrix(curve)
    v = factor.min_vt()
    assert v * 5 ** 4 <= curve.nt < v * 5 ** 5  # F and four twists
    held = 0
    for _ in range(5):
        held += sum(len(e.terms) for row in factor.entries for e in row)
        factor = factor.frobenius_twist()
    assert held == 207
    F = model.perturbation_matrix(curve)
    built = 0
    init = PAdicScalar.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(PAdicScalar, "__init__", counting)
    truncated_product(F)
    monkeypatch.undo()
    assert built <= 1, built


@pytest.mark.parametrize("p, d", [(5, 1), (5, 2), (3, 4), (7, 3)])
def test_scalar_from_a_view_is_the_eager_scalar(p, d):
    """A coefficient built from the view ``_build`` makes equals the one
    ``PAdicScalar.from_digits`` (or, exact, ``_normalize``) makes from the
    same folded digits: masked, capped at M digits, exact or neither."""
    params = PAdicParams(p, d, 4)
    rng = random.Random(97 * p + d)
    kinds = Counter()
    for _ in range(600):
        shift, n = rng.randint(-4, 4), rng.randint(1, 9)
        scale = p ** rng.choice([0, 0, 1, 3, n])
        slots = [rng.choice([0, rng.randint(-p ** 6, p ** 6)]) * scale
                 for _ in range(2 * d - 1)]
        bound = INF if rng.random() < 0.2 else shift + n
        view = _build(params, 7, bound, shift, slots)
        folded = _fold(slots, params.rows)
        if bound == INF:
            eager = PAdicScalar(params, shift, tuple(folded),
                                None)._normalize()
            if eager.is_zero():
                assert view is None
                kinds["zero"] += 1
                continue
        else:
            eager = PAdicScalar.from_digits(params, shift,
                                            enumerate(folded), n)
        assert view[0] == 7
        built = scalar(params, view)
        assert (built.shift, built.coeffs, built.rel_prec) \
            == (eager.shift, eager.coeffs, eager.rel_prec), (slots, view)
        assert TruncSeries(params, 9, {7: eager}).terms == [view]
        kinds["exact" if bound == INF else "masked" if view[2] is None
              else "capped" if n - (view[1] - shift) > params.precision_M
              else "plain"] += 1
    assert min(kinds[k] for k in ("exact", "masked", "capped", "plain")) \
        >= 10, kinds


def scalar_of_kind(params, kind, rng):
    """A scalar as a model constant or a series coefficient may arrive:
    digits may be negative, unreduced or share a power of p."""
    p, d, M = params.p, params.d, params.precision_M
    shift = rng.randint(-3, 3)
    if kind == "masked":
        return PAdicScalar.masked(params, shift + rng.randint(1, M))
    unit = [rng.choice([0, rng.randint(-p ** (M + 3), p ** (M + 3))])
            for _ in range(d)]
    unit[rng.randrange(d)] = rng.choice((-1, 1)) * rng.randrange(1, p) \
        * p ** rng.choice([0, 0, 1, M])
    if kind == "zp":
        unit[1:] = [0] * (d - 1)
        unit[0] = unit[0] or 1
    rel = {"exact": None, "capped": rng.randint(M + 1, M + 3)}.get(
        kind, rng.randint(1, M))
    return PAdicScalar(params, shift, tuple(unit), rel)


@pytest.mark.parametrize("p, d", [(5, 1), (5, 2), (3, 4), (7, 3)])
def test_twist_and_negation_of_a_view_are_those_of_its_scalar(p, d):
    """sigma_t and negation map each view as ``PAdicScalar.frobenius`` and
    ``__neg__`` map the scalar it was read from, exponent by exponent:
    exact, capped past M, masked, Z_p-only and plain scalars."""
    params = PAdicParams(p, d, 4)
    rng = random.Random(31 * p + d)
    nt = 4 * p
    kinds = ("exact", "capped", "masked", "zp", "plain")
    for kind in kinds * 60:
        c = scalar_of_kind(params, kind, rng)
        k = rng.choice([rng.randrange(5), rng.randrange(nt + 1)])
        series = TruncSeries(params, nt, {k: c})
        want = [_term(k * p, c.frobenius())] if k * p <= nt else []
        assert series.frobenius_twist().terms == want, (c, k)
        assert (-series).terms == [_term(k, -c)], c

import io
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

from froblat import cli, crystals, regression
from froblat.crystals import (HILBERT_INERT_SG, HILBERT_INERT_SSP,
                              HILBERT_SPLIT, SIEGEL_SG, SIEGEL_SSP,
                              CrystalModel, FormalCurve, _combine,
                              _span_certificate,
                              build_model, check_DR, check_DvR, f_infinity,
                              find_decaying_submodule, local_gram)
from froblat.errors import (Indeterminate, InvalidParameter, NotFound,
                            NotGenericallyOrdinary,
                            ThresholdExceedsTruncation)
from froblat.linalg import primitive_kernel_vector as _primitive_kernel_vector
from froblat.padics import INF, PAdicParams, PAdicScalar
from froblat.regression import build_fixture, decay_fixture_table
from froblat.series import MatSeries, TruncSeries, column_valuation_profile
from series_oracle import coeffs

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


@pytest.fixture(scope="module")
def split_model():
    return build_model(HILBERT_SPLIT, 5, 2, 10)


@pytest.fixture(scope="module")
def split_xy(split_model):
    curve = FormalCurve(x={1: 1}, y={1: 1}, nt=63)
    return curve, f_infinity(split_model, curve)


def test_case_parameter_dichotomy():
    # superspecial requires sigma^2(c) = c; supergeneric the opposite
    with pytest.raises(InvalidParameter):
        build_model(SIEGEL_SG, 5, 2, 8, c_residue=(2, 1))  # c in F_25
    P4 = PAdicParams(5, 4, 8)
    rf = P4.residue_field
    quartic = next(e for e in rf.elements()
                   if not rf.is_zero(e) and rf.pow(e, 25) != e)
    with pytest.raises(InvalidParameter):
        CrystalModel(SIEGEL_SSP, P4, c_residue=quartic)
    CrystalModel(SIEGEL_SG, P4, c_residue=quartic)  # accepted
    with pytest.raises(InvalidParameter):
        build_model(HILBERT_SPLIT, 5, 2, 8, c_residue=3)


def test_siegel_template_entries():
    model = build_model(SIEGEL_SSP, 5, 2, 8, c_residue=2)
    curve = FormalCurve(x={1: 1}, y={1: 1}, z={1: 1}, nt=20)
    F = model.perturbation_matrix(curve)
    # top-left entry is (x y + z^2 / 4 eps) / 2p: t-adic order 2, val -1
    e00 = coeffs(F.entries[0][0])
    assert min(e00) == 2
    assert e00[2].maybe_val() == -1
    # split case: entry (1,3) is (x + y)/2p
    sp = build_model(HILBERT_SPLIT, 5, 2, 8)
    Fs = sp.perturbation_matrix(FormalCurve(x={1: 1}, y={2: 1}, nt=20))
    e02 = coeffs(Fs.entries[0][2])
    assert sorted(e02) == [1, 2]
    assert e02[1].maybe_val() == -1


def test_non_ordinary_valuations():
    m = build_model(SIEGEL_SSP, 5, 2, 8, c_residue=2)
    assert m.non_ordinary_valuation(
        FormalCurve(x={1: 1}, y={2: 1}, nt=30)) == 3
    hs = build_model(HILBERT_SPLIT, 5, 2, 8)
    assert hs.non_ordinary_valuation(
        FormalCurve(x={1: 1}, y={1: 1}, nt=30)) == 2


def test_cancellation_raises_when_total():
    m = build_model(SIEGEL_SSP, 5, 2, 8, c_residue=2)
    beta = _beta(m)
    with pytest.raises(NotGenericallyOrdinary):
        m.non_ordinary_valuation(
            FormalCurve(x={1: 1}, y={1: beta}, z={1: 1}, nt=30))
    # with a higher-order term the valuation jumps past 2
    curve = FormalCurve(x={1: 1}, y={1: beta, 7: 1}, z={1: 1}, nt=30)
    A = m.non_ordinary_valuation(curve)
    assert A == 8 > 2
    # the W-coefficient of t^2 is not 0, only divisible by p
    q = coeffs(m._series(curve)[3])[2]
    assert not q.is_zero() and q.maybe_val() >= 1


def test_degenerate_curve():
    m = build_model(SIEGEL_SSP, 5, 2, 8, c_residue=2)
    with pytest.raises(NotGenericallyOrdinary):
        m.non_ordinary_valuation(FormalCurve(nt=20))
    finf = f_infinity(m, FormalCurve(nt=20))
    for i in range(5):
        for j in range(5):
            ks = [t[0] for t in finf.entries[i][j].terms]
            assert ks == ([0] if i == j else [])


def _reference_valuation(model, curve):
    """The non-ordinary equation computed in the residue field, term by
    term: its t-adic order, or None when it vanishes up to t^nt."""
    rf = model.params.residue_field
    nt = curve.nt

    def comp(c):
        return {e: rf.element(r) for e, r in c.items()
                if not rf.is_zero(rf.element(r))}

    def add(a, b):
        out = dict(a)
        for k, bk in b.items():
            s = rf.add(out.get(k, rf.element(0)), bk)
            if rf.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
        return out

    def conv(a, b):
        out = {}
        for i, ai in a.items():
            for j, bj in b.items():
                if i + j <= nt:
                    out = add(out, {i + j: rf.mul(ai, bj)})
        return out

    x, y, z = comp(curve.x), comp(curve.y), comp(curve.z)
    if model.case in (HILBERT_INERT_SSP, HILBERT_SPLIT):
        eq = conv(x, y)
    elif model.case == HILBERT_INERT_SG:
        eq = y
    else:
        inv4eps = rf.inv(rf.element(4 * model.params.eps_int))
        z2 = {k: rf.mul(v, inv4eps) for k, v in conv(z, z).items()}
        if model.case == SIEGEL_SG:
            x = add(x, {0: model.a_frob.residue()})
        eq = add(conv(x, y), z2)
    return min(eq, default=None)


def _beta(model):
    """beta = -1/(4 eps) in the residue field: x = t, y = beta t, z = t
    cancels x y + z^2/(4 eps) at t^2 mod p."""
    rf = model.params.residue_field
    return rf.neg(rf.inv(rf.element(4 * model.params.eps_int)))


def _models():
    P2, P4 = PAdicParams(5, 2, 6), PAdicParams(5, 4, 6)
    rf4 = P4.residue_field
    quartic = next(e for e in rf4.elements()
                   if not rf4.is_zero(e) and rf4.pow(e, 25) != e)
    return [CrystalModel(HILBERT_INERT_SSP, P2, c_residue=2),
            CrystalModel(HILBERT_SPLIT, P2),
            CrystalModel(SIEGEL_SSP, P2, c_residue=2),
            CrystalModel(HILBERT_INERT_SG, P4, c_residue=quartic),
            CrystalModel(SIEGEL_SG, P4, c_residue=quartic)]


@pytest.mark.parametrize("model", _models(), ids=lambda m: m.case)
def test_non_ordinary_valuation_matches_residue_field(model):
    """A read from the W_M series of F agrees with the residue-field
    equation on random sparse curves, both on A and on which curves
    raise NotGenericallyOrdinary."""
    rng = random.Random(model.case)
    rf = model.params.residue_field
    elements = list(rf.elements())
    nt = 12
    beta = _beta(model)
    curves = [FormalCurve(x={1: 1}, y={1: beta}, z={1: 1}, nt=nt),
              FormalCurve(x={1: 1}, y={1: beta, 7: 1}, z={1: 1}, nt=nt)]
    for _ in range(60):
        comps = [{rng.randint(1, nt): rng.choice(elements)
                  for _ in range(rng.randint(0, 3))} for _ in "xyz"]
        if rng.random() < 0.3:   # force the t^2 cancellation above
            comps[0][1], comps[1][1], comps[2][1] = (1,), beta, (1,)
        curves.append(FormalCurve(*comps, nt=nt))
    raised = 0
    for curve in curves:
        want = _reference_valuation(model, curve)
        if want is None:
            raised += 1
            with pytest.raises(NotGenericallyOrdinary):
                model.non_ordinary_valuation(curve)
        else:
            assert model.non_ordinary_valuation(curve) == want
    assert 0 < raised < len(curves)


def test_split_decay_indices(split_xy):
    curve, finf = split_xy
    w1 = column_valuation_profile(finf, [1, 0, 0, 0])
    for n, expect in [(0, 2), (1, 12), (2, 62)]:
        idx, masked = w1.decay_index(n)
        assert masked is None and idx == expect
    w3 = column_valuation_profile(finf, [0, 0, 1, 0])
    for n, expect in [(0, 1), (1, 7), (2, 37)]:
        idx, _ = w3.decay_index(n)
        assert idx == expect


def test_fourth_vector_is_killed_when_x_equals_y(split_xy):
    _, finf = split_xy
    idx, masked = column_valuation_profile(finf, [0, 0, 0, 1]).decay_index(0)
    assert idx == INF and masked is None


def test_scaling_shifts_depth(split_xy):
    _, finf = split_xy
    i1, _ = column_valuation_profile(finf, [5, 0, 0, 0]).decay_index(1)
    i2, _ = column_valuation_profile(finf, [1, 0, 0, 0]).decay_index(2)
    assert i1 == i2


def test_check_DR_and_DvR(split_model, split_xy):
    curve, finf = split_xy
    A = split_model.non_ordinary_valuation(curve)
    assert check_DR(finf, [1, 0, 0, 0], A, 2)
    assert check_DR(finf, [0, 1, 0, 0], A, 2)
    assert not check_DR(finf, [0, 0, 0, 1], A, 2)
    assert check_DvR(finf, [0, 0, 1, 0], A, 1, 2)
    with pytest.raises(InvalidParameter):
        check_DvR(finf, [0, 0, 1, 0], A, 2, 2)  # a_dvr > A/2
    with pytest.raises(ThresholdExceedsTruncation):
        check_DR(finf, [1, 0, 0, 0], A, 3)


def test_search_returns_asserted_span(split_model, split_xy):
    curve, finf = split_xy
    basis, witness = find_decaying_submodule(split_model, finf, 2, n_max=2)
    assert basis == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert witness == [0, 0, 1, 0]


def test_search_without_a_decaying_candidate_names_the_falsifier(
        split_model, split_xy):
    finf = split_xy[1]
    with pytest.raises(NotFound) as exc:
        find_decaying_submodule(split_model, finf, 2, n_max=2, candidates=[
            ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))])
    assert exc.value.falsifier == [0, 0, 0, 1]
    assert not check_DR(finf, exc.value.falsifier, 2, 2)


SPLIT_SPAN = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0))


def test_span_without_a_witness_blames_no_decaying_vector(
        monkeypatch, split_model, split_xy):
    """A certified span with no very-rapid witness has no falsifier: the
    error keeps the last real one and counts the spans left witnessless."""
    finf = split_xy[1]
    monkeypatch.setattr(crystals, "check_DvR", lambda *args: False)
    with pytest.raises(NotFound, match="1 certified span") as exc:
        find_decaying_submodule(split_model, finf, 2, n_max=2,
                                candidates=[SPLIT_SPAN])
    assert exc.value.falsifier is None
    falsified = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(NotFound, match="1 certified span") as exc:
        find_decaying_submodule(split_model, finf, 2, n_max=2,
                                candidates=[falsified, SPLIT_SPAN])
    assert exc.value.falsifier == [0, 0, 0, 1]
    assert not check_DR(finf, exc.value.falsifier, 2, 2)


@pytest.mark.parametrize("refusal", ["false", "indeterminate"])
def test_witness_search_goes_on_to_mod_p_combinations(
        monkeypatch, split_model, split_xy, refusal):
    """With every single basis vector refused, by a False verdict or by
    Indeterminate, the first mod-p combination e_2 + e_3 is the witness."""
    finf = split_xy[1]

    def refusing(finf, w, A, a_dvr, n_max):
        if tuple(w) in SPLIT_SPAN:
            if refusal == "false":
                return False
            raise Indeterminate("refused", n=0)
        return check_DvR(finf, w, A, a_dvr, n_max)

    monkeypatch.setattr(crystals, "check_DvR", refusing)
    basis, witness = find_decaying_submodule(split_model, finf, 2, n_max=2,
                                             candidates=[SPLIT_SPAN])
    assert basis == [list(v) for v in SPLIT_SPAN]
    assert witness == [0, 1, 1, 0]
    assert check_DvR(finf, witness, 2, 1, 2)


def test_witness_checks_all_masked_make_the_search_indeterminate(
        monkeypatch, split_model, split_xy):
    """When every very-rapid check raises Indeterminate, no span has a
    witness only because of masked digits: the search raises the first
    such Indeterminate, and the command line exits 2 with its n and k."""
    finf = split_xy[1]
    calls = []

    def masked(finf, w, A, a_dvr, n_max):
        calls.append(w)
        raise Indeterminate("masked", n=len(calls), k=7)

    monkeypatch.setattr(crystals, "check_DvR", masked)
    with pytest.raises(Indeterminate) as info:
        find_decaying_submodule(split_model, finf, 2, n_max=2)
    assert (info.value.n, info.value.k) == (1, 7) and len(calls) > 1
    calls.clear()
    out = io.StringIO()
    code = cli.dispatch(["decay", "--curve", str(FIXTURES / "xt_yt.curve"),
                         "--search"], out)
    assert code == 2
    assert out.getvalue().splitlines()[-1] \
        == "error=indeterminate n=1 k=7 detail=masked"


def test_search_past_the_truncation_is_refused(split_model, split_xy):
    finf = split_xy[1]
    with pytest.raises(ThresholdExceedsTruncation,
                       match="threshold 312 exceeds truncation 63"):
        find_decaying_submodule(split_model, finf, 2, n_max=3)


def test_precision_budget_enforced(split_model):
    curve = FormalCurve(x={1: 1}, y={1: 1}, nt=63)
    small = build_model(HILBERT_SPLIT, 5, 2, 4)
    with pytest.raises(InvalidParameter):
        f_infinity(small, curve, n_max=2)


def test_local_gram_shapes():
    for case, rank in [(HILBERT_INERT_SSP, 4), (HILBERT_SPLIT, 4),
                       (HILBERT_INERT_SG, 4), (SIEGEL_SSP, 5),
                       (SIEGEL_SG, 5)]:
        g = local_gram(case, 5, 2)
        assert len(g) == rank
        assert all(g[i][j] == g[j][i] for i in range(rank)
                   for j in range(rank))
        assert all(g[i][i] % 2 == 0 for i in range(rank))


def test_supergeneric_unit_a():
    P4 = PAdicParams(5, 4, 8)
    rf = P4.residue_field
    quartic = next(e for e in rf.elements()
                   if not rf.is_zero(e) and rf.pow(e, 25) != e)
    m = CrystalModel(SIEGEL_SG, P4, c_residue=quartic)
    assert m.a_frob.maybe_val() == 0


def test_column_valuations_bounded_by_factor_count(split_xy):
    """Each product factor contributes at most one inverse power of p."""
    _, finf = split_xy
    K = 0
    while 5 ** (K + 1) <= finf.nt:
        K += 1
    for i in range(4):
        w = [1 if j == i else 0 for j in range(4)]
        prof = column_valuation_profile(finf, w)
        finite = [v for v in prof.minvals.values()]
        assert all(v >= -(K + 1) for v in finite)


def test_decay_index_monotone_in_depth(split_xy):
    _, finf = split_xy
    for w in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 2, 0, 0]):
        profile = column_valuation_profile(finf, w)
        prev = -1
        for n in range(3):
            idx, _ = profile.decay_index(n)
            assert idx >= prev
            prev = idx


def _classes_mod_p(p, k):
    """Primitive vectors of F_p^k up to scaling: leading coordinate 1."""
    out = []
    for lead in range(k):
        for tail in itertools.product(range(p), repeat=k - lead - 1):
            out.append((0,) * lead + (1,) + tail)
    return out


def test_span_certificate_against_definition():
    """The kernel verdict agrees with check_DR on every class mod p."""
    table = {f["name"]: f for f in decay_fixture_table(5)}
    rng = random.Random(20261018)
    seen = set()
    for name in ("split-equal", "supergeneric-z-dominant", "siegel-3.2"):
        fix = table[name]
        model, curve = build_fixture(fix)
        A = fix["A"]
        finf = f_infinity(model, curve, n_max=2)
        spans = fix["asserted"][:8]
        spans += [tuple(tuple(rng.randrange(-3, 4) for _ in range(model.rank))
                        for _ in range(3)) for _ in range(3)]
        for basis in spans:
            verdict, falsifier = _span_certificate(finf, basis, A, 2)
            seen.add(verdict)
            decays = [check_DR(finf, _combine(basis, c), A, 2)
                      for c in _classes_mod_p(5, 3)]
            if verdict:
                assert all(decays), (name, basis)
            else:
                assert verdict is False
                assert not check_DR(finf, falsifier, A, 2), (name, basis)
            if not all(decays):
                assert verdict is False, (name, basis)
    assert seen == {True, False}


def test_primitive_kernel_vector_against_brute_force():
    rng = random.Random(5)
    for p, E in [(2, 3), (3, 2)] * 20:
        q = p ** E
        rows = [[rng.choice([0, 1, p, p * p, rng.randrange(q)])
                 for _ in range(3)] for _ in range(rng.randrange(1, 4))]
        brute = [c for c in itertools.product(range(q), repeat=3)
                 if any(x % p for x in c)
                 and all(sum(a * b for a, b in zip(r, c)) % q == 0
                         for r in rows)]
        c = _primitive_kernel_vector(rows, 3, p, E)
        if c is None:
            assert not brute, (p, E, rows)
        else:
            assert any(x % p for x in c)
            assert all(sum(a * b for a, b in zip(r, c)) % q == 0
                       for r in rows), (p, E, rows, c)


def masked_finf(params, nt, cancel):
    """A hand-built rank-4 F_inf: row 3 has two masked t^1 coefficients,
    known only to bound = -1.  With ``cancel`` the visible t^1 entries of
    row 0 cancel on c = (1, 1, 0), and precision blocks the span
    (e1, e2, e3) at n = 0."""
    one = params.one()
    p1, p2, p3 = (params.from_rational(Fraction(1, 5 ** e))
                  for e in (1, 2, 3))
    masked = [PAdicScalar(params, -2, (u, 0), 1) for u in (1, 4)]
    assert masked[0].known_bound() == -1
    finf = MatSeries.identity(params, nt, 4)
    e = finf.entries
    e[0][0] = TruncSeries(params, nt, {0: one, 1: p2})
    if cancel:
        e[0][1] = TruncSeries(params, nt, {1: -p2})
    e[2][2] = TruncSeries(params, nt, {0: one, 1: p1})
    e[3][0] = TruncSeries(params, nt, {1: masked[0]})
    e[3][1] = TruncSeries(params, nt, {1: masked[1]})
    # levels 1 and 2: one visible p^-3 coefficient per basis vector
    e[1][0] = TruncSeries(params, nt, {6: p3})
    e[1][1] = TruncSeries(params, nt, {0: one, 5: p3})
    e[1][2] = TruncSeries(params, nt, {4: p3})
    return finf


def test_masked_coefficient_blocks_only_when_it_matters():
    """At n = 0 the visible rows leave c = (1, 1, 0) failing, and the
    masked coefficients of row 3 cancel on it to an unknown digit: the
    verdict is indeterminate, and names that coefficient.  Without the
    cancelling entry the visible rows decide every level and the span
    certificate holds."""
    model = build_model(HILBERT_SPLIT, 5, 2, 10)
    nt = 31                                   # thresholds 1, 6, 31 at A = 1
    basis = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    blocked = masked_finf(model.params, nt, cancel=True)
    with pytest.raises(Indeterminate) as info:
        find_decaying_submodule(model, blocked, 1, n_max=2,
                                candidates=[basis])
    exc = info.value
    assert (exc.n, exc.k, exc.row, exc.bound) == (0, 1, 3, -1)
    msg = str(exc)
    assert "n = 0" in msg and "k = 1" in msg
    assert "row = 3" in msg and "bound = -1" in msg
    # one vector: the same coefficient, in the same message form
    with pytest.raises(Indeterminate) as info:
        check_DR(blocked, [1, 1, 0, 0], 1, 2)
    exc = info.value
    assert (exc.n, exc.k, exc.row, exc.bound) == (0, 1, 3, -1)
    assert str(exc) == msg.replace("decay search", "decay verdict")
    assert _span_certificate(masked_finf(model.params, nt, cancel=False),
                             basis, 1, 2) == (True, None)


def test_masked_split_equal_index_is_indeterminate(monkeypatch):
    """A decay index that a masked coefficient may undercut is
    Indeterminate, naming that coefficient, not a parameter error."""
    def finf(model, curve, n_max, columns):
        params, nt = model.params, curve.nt
        out = masked_finf(params, nt, cancel=True)
        out.entries[3][0] = TruncSeries(
            params, nt, {1: PAdicScalar.masked(params, -1)})
        return out

    monkeypatch.setattr(regression, "f_infinity", finf)
    with pytest.raises(Indeterminate) as info:
        regression.split_equal_decay_indices(5, 2)
    exc = info.value
    assert (exc.n, exc.k, exc.row, exc.bound) == (0, 1, 3, -1)
    assert str(exc).startswith("decay index blocked by precision")


def test_indeterminate_record_names_the_coefficient(monkeypatch):
    """The command line prints the blocking coefficient as fields of the
    error record, before its detail, and exits 2."""
    monkeypatch.setattr(cli, "f_infinity", lambda model, curve, n_max:
                        masked_finf(model.params, curve.nt, cancel=True))
    out = io.StringIO()
    code = cli.dispatch(["decay", "--curve", str(FIXTURES / "xt_yt.curve"),
                         "--search"], out)
    assert code == 2
    last = out.getvalue().splitlines()[-1]
    assert last.startswith("error=indeterminate n=0 k=1 row=3 bound=-1 "
                           "detail=decay search blocked by precision")


# -- the certificate table reads the kernel views ---------------------------

def _coefficient_table(finf, basis, kmax):
    """The certificate table as it was built from the dense coefficients
    and their known bounds, a precision-zero coefficient read at its
    bound: the oracle of ``_certificate_table``."""
    p = finf.params.p
    cols = [[coeffs(series) for series in finf.apply_int_vector(list(v))]
            for v in basis]
    cells = sorted({(k, i) for col in cols for i, cs in enumerate(col)
                    for k in cs if k <= kmax})
    s_min = min((c.known_bound() if c.is_precision_zero() else c.shift
                 for col in cols for cs in col
                 for k, c in cs.items() if k <= kmax), default=0)
    q0 = p ** max(-s_min, 0)
    zero = (0,) * finf.params.d
    table = []
    for k, i in cells:
        cs = [col[i].get(k) for col in cols]
        bound = min(c.known_bound() for c in cs if c is not None)
        scaled = [zero if c is None else
                  [x * p ** (c.shift - s_min) % q0 for x in c.coeffs]
                  for c in cs]
        table.append((k, i, bound, {r for r in zip(*scaled) if any(r)}))
    return s_min, table


def _assert_same_certificates(finf, spans, A, monkeypatch):
    """The view-read table equals the oracle's on every span, and so do
    the verdicts and details of ``_span_certificate`` with either one."""
    kmax = crystals.decay_thresholds(A, finf.params.p, 2)[-1]
    got = [_span_certificate(finf, basis, A, 2) for basis in spans]
    for basis in spans:
        assert crystals._certificate_table(finf, basis, kmax) \
            == _coefficient_table(finf, basis, kmax), basis
    monkeypatch.setattr(crystals, "_certificate_table", _coefficient_table)
    assert [_span_certificate(finf, basis, A, 2) for basis in spans] == got
    monkeypatch.undo()
    return got


@pytest.mark.parametrize("fix", decay_fixture_table(5),
                         ids=lambda fix: fix["name"])
def test_certificate_table_reads_views_as_coefficients(fix, monkeypatch):
    """Every asserted candidate of every fixture, and the default
    candidates of two, get the oracle's verdict and detail."""
    model, curve = build_fixture(fix)
    finf = f_infinity(model, curve, n_max=2)
    spans = list(fix["asserted"])
    if fix["name"] in ("split-equal", "supergeneric-z-dominant"):
        spans += crystals._default_candidates(model.rank, fix["p"])
    got = _assert_same_certificates(finf, spans, fix["A"], monkeypatch)
    assert got[0][0] is True


def test_certificate_table_reads_masked_views(monkeypatch):
    """The hand-built matrices of ``masked_finf``, and one with a masked
    coefficient below every visible one: a masked view's shift is its
    bound, and the table reads it there."""
    params = build_model(HILBERT_SPLIT, 5, 2, 10).params
    nt = 31
    e = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    spans = [(e[0], e[1], e[2]), ((1, 1, 0, 0), e[2], e[3]),
             ((1, 4, 0, 0), (0, 1, 1, 0), e[3]), (e[1], e[2], e[3])]
    verdicts = set()
    for cancel in (True, False):
        finf = masked_finf(params, nt, cancel)
        verdicts.update(v for v, _ in
                        _assert_same_certificates(finf, spans, 1,
                                                  monkeypatch))
    deep = masked_finf(params, nt, cancel=True)
    deep.entries[3][3] = TruncSeries(params, nt,
                                     {2: PAdicScalar.masked(params, -4)})
    _assert_same_certificates(deep, spans, 1, monkeypatch)
    assert crystals._certificate_table(deep, spans[1], nt)[0] == -4
    # the sum (1, 1, 0, 0) makes row 3's t^1 a masked view in the kernel
    row3 = deep.apply_int_vector([1, 1, 0, 0])[3]
    assert row3.terms[0] == (1, -1, None, -1)
    assert verdicts == {None, False, True}

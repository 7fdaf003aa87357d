"""Named decay fixtures: one formal curve per case of the decay analysis.

Each fixture realizes one branch of the case analysis (split Hilbert by
the relation of a = v_t(x) and b = v_t(y); Siegel by the interplay of
A = v_t of the non-ordinary equation and B = v_t of its Frobenius
companion x y^p + x^p y + z^(1+p)/(2 eps); supergeneric by the relation
of v_y and 2 v_z).  It states its curve, A, precision and ``asserted``,
the candidate spans the analysis proves to decay; ``build_fixture``
alone makes its model and its curve, truncated for any depth.  Its
``make(residue_field, eps_int)`` gives the parameter c (or None) and the
curve's components, solving in the residue field for leading
coefficients that must cancel, including the degree-8 subcase where the
z-coefficient satisfies g^2 = -4 eps (sigma(c) - sigma^{-1}(c)) and
provably does not exist in F_{p^4}.
"""

from .crystals import (HILBERT_INERT_SG, HILBERT_INERT_SSP, HILBERT_SPLIT,
                       SIEGEL_SG, SIEGEL_SSP, CrystalModel, FormalCurve,
                       _blocked, _combos, _triples, decay_thresholds,
                       f_infinity, find_decaying_submodule,
                       required_precision)
from .errors import InvalidParameter
from .padics import PAdicParams
from .series import column_valuation_profile


def _pair_plus_span(rank, pair, span, p):
    """Candidates pair + (each coordinate of span, then mod-p combos)."""
    out = _triples(rank, *[(pair[0], pair[1], k) for k in span])
    if len(span) == 2:
        out += _combos(rank, pair, *span, p)
    return out


def _first_quartic(rf):
    """First residue element outside F_{p^2} (scan order is canonical)."""
    for el in rf.elements():
        if not rf.is_zero(el) and rf.pow(el, rf.p ** 2) != el:
            return el
    raise InvalidParameter("no supergeneric residue found")


def _curve(c=None, **comps):
    """make(rf, eps_int) for a curve with fixed coefficients; c is the
    parameter, or a function of the residue field giving it."""
    def make(rf, eps_int):
        return (c(rf) if callable(c) else c), comps
    return make


def _siegel_cancel(y, z):
    """make(rf, eps_int) for a superspecial Siegel curve whose leading
    coefficients cancel: gamma with gamma^2 = eps and beta = -gamma^2 /
    (4 eps) in the residue field.  y and z are exponent tuples; beta sits
    at y[0], gamma at z[0], and every later exponent has coefficient 1.
    """
    def make(rf, eps_int):
        gamma = rf.sqrt(rf.element(eps_int))
        if gamma is None:
            raise InvalidParameter("eps must become a square in F_{p^d}")
        beta = rf.neg(rf.mul(rf.mul(gamma, gamma),
                             rf.inv(rf.element(4 * eps_int))))
        return 3, dict(x={1: 1}, y={y[0]: beta, **{e: 1 for e in y[1:]}},
                       z={z[0]: gamma, **{e: 1 for e in z[1:]}})
    return make


def decay_fixture_table(p=5):
    """The regression matrix at the given prime (fixtures assume p >= 5);
    ``want_witness`` expects a witness, as a model without ``a_frob`` must."""
    fixtures = []

    def add(name, case, d, M, A, make, asserted, witness, nt_floor=0):
        fixtures.append({
            "name": name, "case": case, "p": p, "d": d, "precision": M,
            "nt_floor": nt_floor, "A": A, "make": make,
            "asserted": asserted, "want_witness": witness})

    rk4, rk5 = 4, 5

    # ---- split Hilbert: four branches of (a, b) --------------------------
    add("split-equal", HILBERT_SPLIT, 2, 10, 2,
        _curve(x={1: 1}, y={1: 1}), _triples(rk4, (0, 1, 2)), True)
    add("split-equal-mirror", HILBERT_SPLIT, 2, 10, 2,
        _curve(x={1: 1}, y={1: p - 1}), _triples(rk4, (0, 1, 3)), True)
    add("split-even-power", HILBERT_SPLIT, 2, 12, 1 + p * p,
        _curve(x={1: 1}, y={p * p: 1}),
        _pair_plus_span(rk4, (0, 1), (2, 3), p), True)
    add("split-odd-power", HILBERT_SPLIT, 2, 11, 1 + p,
        _curve(x={1: 1}, y={p: 1}),
        _pair_plus_span(rk4, (2, 3), (0, 1), p), True)
    add("split-generic", HILBERT_SPLIT, 2, 10, 3,
        _curve(x={1: 1}, y={2: 1}),
        _triples(rk4, (0, 1, 2), (0, 1, 3)), True)

    # ---- inert Hilbert --------------------------------------------------
    add("inert-superspecial", HILBERT_INERT_SSP, 2, 10, 2,
        _curve((2, 1), x={1: 1}, y={1: 1}), _triples(rk4, (0, 1, 2)), True)
    add("inert-supergeneric", HILBERT_INERT_SG, 4, 10, 1,
        _curve(_first_quartic, x={1: 1}, y={1: 1}),
        _triples(rk4, (0, 1, 2)), False)

    # ---- Siegel superspecial --------------------------------------------
    add("siegel-A-below-B", SIEGEL_SSP, 2, 10, 3,
        _curve(3, x={1: 1}, y={2: 1}, z={3: 1}),
        _triples(rk5, (0, 1, 2)), True)

    add("siegel-2.1", SIEGEL_SSP, 2, 11, 2 * p,
        _siegel_cancel((3,), (2, 8)),
        _triples(rk5, (0, 1, 2), (0, 1, 3), (0, 1, 4)), True)
    add("siegel-2.2", SIEGEL_SSP, 2, 11, 8,
        _siegel_cancel((3,), (2, 6)), _triples(rk5, (2, 3, 4)), True)
    # gamma is not in F_p, so B = a(1+p)
    add("siegel-3.1", SIEGEL_SSP, 2, 11, 8,
        _siegel_cancel((1, 7), (1,)),
        _triples(rk5, (0, 1, 2), (0, 1, 4)), True)
    add("siegel-3.1-special", SIEGEL_SSP, 2, 12, 1 + p * p,
        _siegel_cancel((1, p * p), (1,)),
        _triples(rk5, (0, 1, 2), (0, 1, 4)), True)
    add("siegel-3.2", SIEGEL_SSP, 2, 11, 6,
        _siegel_cancel((1, p), (1,)),
        _pair_plus_span(rk5, (2, 3), (0, 1), p)
        + _pair_plus_span(rk5, (2, 4), (0, 1), p)
        + _pair_plus_span(rk5, (3, 4), (0, 1), p), True)

    # ---- Siegel supergeneric (d = 4, and d = 8 where forced) -------------
    # the rule gives nt = 63, but this fixture's FINF_SHA256 pin and
    # HEADROOM entry (tests/test_decay_matrix.py) were taken at nt = 94
    add("supergeneric-y-dominant", SIEGEL_SG, 4, 10, 2,
        _curve(_first_quartic, x={5: 1}, y={3: 1}, z={1: 1}),
        _triples(rk5, (0, 1, 3)), False, nt_floor=94)
    add("supergeneric-z-dominant", SIEGEL_SG, 4, 10, 1,
        _curve(_first_quartic, x={1: 1}, y={1: 1}, z={2: 1}),
        _triples(rk5, (0, 1, 2)), False)
    # alpha = gamma^2/(4 eps) with gamma = 1 differs from
    # sigma^{-1}(c) - sigma(c) for this c; checked by the A value
    add("supergeneric-balanced", SIEGEL_SG, 4, 10, 2,
        _curve(_first_quartic, x={3: 1}, y={2: 1}, z={1: 1}),
        _triples(rk5, (0, 2, 4), (1, 2, 4)), False)

    def _deg8_cancel(tail_exp, x_exp):
        def make(rf, eps_int):
            g = rf.element((0, 1))
            c = rf.mul(g, g)     # degree-4 element inside F_{p^8}
            a = rf.add(rf.pow(c, p), rf.neg(rf.pow(c, p ** 7)))
            target = rf.neg(rf.mul(rf.element(4 * eps_int), a))
            gamma = rf.sqrt(target)
            if gamma is None:
                raise InvalidParameter("cancellation coefficient must "
                                       "exist in F_{p^8}")
            return c, dict(x={x_exp: 1}, y={2: 1}, z={1: gamma, tail_exp: 1})
        return make

    add("supergeneric-deep-cancel-strict", SIEGEL_SG, 8, 9,
        2 * p ** 2 - p + 2, _deg8_cancel(46, 46),
        _triples(rk5, (0, 1, 2)), False)
    add("supergeneric-deep-cancel-equal", SIEGEL_SG, 8, 9,
        2 * p ** 2 - p + 1, _deg8_cancel(45, 46),
        _pair_plus_span(rk5, (0, 4), (1, 2), p)
        + _pair_plus_span(rk5, (1, 4), (0, 2), p)
        + _pair_plus_span(rk5, (2, 4), (0, 1), p), False)

    return fixtures


def build_fixture(fix, n_max=2):
    """The fixture's (model, curve) for verdicts up to n_max: nt past the
    last threshold (or at the stated floor), so an inf is sound at every
    level, and M covering nt and n_max (or the stated precision)."""
    p = fix["p"]
    nt = max(fix["nt_floor"], decay_thresholds(fix["A"], p, n_max)[-1] + 1)
    M = max(fix["precision"], required_precision(p, nt, n_max))
    params = PAdicParams(p, fix["d"], M)
    c_res, comps = fix["make"](params.residue_field, params.eps_int)
    curve = FormalCurve(nt=nt, **comps)
    model = CrystalModel(fix["case"], params, c_residue=c_res)
    A = model.non_ordinary_valuation(curve)
    if A != fix["A"]:
        raise InvalidParameter(
            f"{fix['name']}: built curve has A = {A}, expected {fix['A']}")
    return model, curve


def run_decay_fixture(fix, n_max=2, search_depth_B=None):
    """Build and verify one fixture; returns a result record.

    ``search_depth_B`` is ignored: the span certificate covers every
    primitive vector, so there is no enumeration depth left to choose.
    """
    model, curve = build_fixture(fix, n_max)
    cols = {j for v in sum(fix["asserted"], ()) for j, x in enumerate(v) if x}
    finf = f_infinity(model, curve, n_max=n_max, columns=cols)
    basis, witness = find_decaying_submodule(
        model, finf, fix["A"], n_max=n_max, candidates=fix["asserted"])
    return {"name": fix["name"], "A": fix["A"], "basis": basis,
            "witness": witness, "nt": curve.nt}


def split_equal_decay_indices(p=5, n_max=2):
    """Decay indices of w_1 for each n <= n_max along the split-equal
    fixture, x = y = t (A = 2), built for depth n_max; Indeterminate
    names a coefficient that masks one."""
    fix = next(f for f in decay_fixture_table(p)
               if f["name"] == "split-equal")
    model, curve = build_fixture(fix, n_max)
    finf = f_infinity(model, curve, n_max=n_max, columns=[0])
    profile = column_valuation_profile(finf, [1, 0, 0, 0])
    out = []
    for n in range(n_max + 1):
        idx, masked = profile.decay_index(n)
        if masked:
            raise _blocked("decay index", n, *masked)
        out.append(idx)
    return out

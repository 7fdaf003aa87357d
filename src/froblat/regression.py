"""Named decay fixtures: one formal curve per case of the decay analysis.

Each fixture realizes one branch of the case analysis (split Hilbert by
the relation of a = v_t(x) and b = v_t(y); Siegel by the interplay of
A = v_t of the non-ordinary equation and B = v_t of its Frobenius
companion x y^p + x^p y + z^(1+p)/(2 eps); supergeneric by the relation
of v_y and 2 v_z).  ``asserted`` lists the candidate spans the analysis
proves to decay; verification certifies that every primitive vector of
the candidate span decays (one kernel computation per level).  Each
fixture's ``make(residue_field, eps_int, nt)`` returns the parameter c
(or None) and the curve truncated at the fixture's nt.  Leading
coefficients that must cancel are solved for in the residue field,
including the degree-8 subcase where the z-coefficient satisfies
g^2 = -4 eps (sigma(c) - sigma^{-1}(c)) and provably does not exist in
F_{p^4}.
"""

from .crystals import (HILBERT_INERT_SG, HILBERT_INERT_SSP, HILBERT_SPLIT,
                       SIEGEL_SG, SIEGEL_SSP, CrystalModel, FormalCurve,
                       _combos, _triples, build_model, decay_thresholds,
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
    """make(rf, eps_int, nt) for a curve with fixed coefficients; c is the
    parameter, or a function of the residue field giving it."""
    def make(rf, eps_int, nt):
        return (c(rf) if callable(c) else c), FormalCurve(nt=nt, **comps)
    return make


def _siegel_cancel(y, z):
    """make(rf, eps_int, nt) for a superspecial Siegel curve whose leading
    coefficients cancel: gamma with gamma^2 = eps and beta = -gamma^2 /
    (4 eps) in the residue field.  y and z are exponent tuples; beta sits
    at y[0], gamma at z[0], and every later exponent has coefficient 1.
    """
    def make(rf, eps_int, nt):
        gamma = rf.sqrt(rf.element(eps_int))
        if gamma is None:
            raise InvalidParameter("eps must become a square in F_{p^d}")
        beta = rf.neg(rf.mul(rf.mul(gamma, gamma),
                             rf.inv(rf.element(4 * eps_int))))
        return (3, FormalCurve(
            x={1: 1}, y={y[0]: beta, **{e: 1 for e in y[1:]}},
            z={z[0]: gamma, **{e: 1 for e in z[1:]}}, nt=nt))
    return make


def decay_fixture_table(p=5):
    """The regression matrix at the given prime (fixtures assume p >= 5);
    ``want_witness`` expects a witness, as a model without ``a_frob`` must."""
    fixtures = []

    def add(name, case, d, M, nt, A, make, asserted, witness):
        fixtures.append({
            "name": name, "case": case, "p": p, "d": d, "precision": M,
            "nt": nt, "A": A, "make": make, "asserted": asserted,
            "want_witness": witness})

    rk4, rk5 = 4, 5

    # ---- split Hilbert: four branches of (a, b) --------------------------
    add("split-equal", HILBERT_SPLIT, 2, 10, 63, 2,
        _curve(x={1: 1}, y={1: 1}), _triples(rk4, (0, 1, 2)), True)
    add("split-equal-mirror", HILBERT_SPLIT, 2, 10, 63, 2,
        _curve(x={1: 1}, y={1: p - 1}), _triples(rk4, (0, 1, 3)), True)
    add("split-even-power", HILBERT_SPLIT, 2, 12, 807, 1 + p * p,
        _curve(x={1: 1}, y={p * p: 1}),
        _pair_plus_span(rk4, (0, 1), (2, 3), p), True)
    add("split-odd-power", HILBERT_SPLIT, 2, 11, 187, 1 + p,
        _curve(x={1: 1}, y={p: 1}),
        _pair_plus_span(rk4, (2, 3), (0, 1), p), True)
    add("split-generic", HILBERT_SPLIT, 2, 10, 94, 3,
        _curve(x={1: 1}, y={2: 1}),
        _triples(rk4, (0, 1, 2), (0, 1, 3)), True)

    # ---- inert Hilbert --------------------------------------------------
    add("inert-superspecial", HILBERT_INERT_SSP, 2, 10, 63, 2,
        _curve((2, 1), x={1: 1}, y={1: 1}), _triples(rk4, (0, 1, 2)), True)
    add("inert-supergeneric", HILBERT_INERT_SG, 4, 10, 32, 1,
        _curve(_first_quartic, x={1: 1}, y={1: 1}),
        _triples(rk4, (0, 1, 2)), False)

    # ---- Siegel superspecial --------------------------------------------
    add("siegel-A-below-B", SIEGEL_SSP, 2, 10, 94, 3,
        _curve(3, x={1: 1}, y={2: 1}, z={3: 1}),
        _triples(rk5, (0, 1, 2)), True)

    add("siegel-2.1", SIEGEL_SSP, 2, 11, 311, 2 * p,
        _siegel_cancel((3,), (2, 8)),
        _triples(rk5, (0, 1, 2), (0, 1, 3), (0, 1, 4)), True)
    add("siegel-2.2", SIEGEL_SSP, 2, 11, 249, 8,
        _siegel_cancel((3,), (2, 6)), _triples(rk5, (2, 3, 4)), True)
    # gamma is not in F_p, so B = a(1+p)
    add("siegel-3.1", SIEGEL_SSP, 2, 11, 249, 8,
        _siegel_cancel((1, 7), (1,)),
        _triples(rk5, (0, 1, 2), (0, 1, 4)), True)
    add("siegel-3.1-special", SIEGEL_SSP, 2, 12, 807, 1 + p * p,
        _siegel_cancel((1, p * p), (1,)),
        _triples(rk5, (0, 1, 2), (0, 1, 4)), True)
    add("siegel-3.2", SIEGEL_SSP, 2, 11, 187, 6,
        _siegel_cancel((1, p), (1,)),
        _pair_plus_span(rk5, (2, 3), (0, 1), p)
        + _pair_plus_span(rk5, (2, 4), (0, 1), p)
        + _pair_plus_span(rk5, (3, 4), (0, 1), p), True)

    # ---- Siegel supergeneric (d = 4, and d = 8 where forced) -------------
    add("supergeneric-y-dominant", SIEGEL_SG, 4, 10, 94, 2,
        _curve(_first_quartic, x={5: 1}, y={3: 1}, z={1: 1}),
        _triples(rk5, (0, 1, 3)), False)
    add("supergeneric-z-dominant", SIEGEL_SG, 4, 10, 32, 1,
        _curve(_first_quartic, x={1: 1}, y={1: 1}, z={2: 1}),
        _triples(rk5, (0, 1, 2)), False)
    # alpha = gamma^2/(4 eps) with gamma = 1 differs from
    # sigma^{-1}(c) - sigma(c) for this c; checked by the A value
    add("supergeneric-balanced", SIEGEL_SG, 4, 10, 63, 2,
        _curve(_first_quartic, x={3: 1}, y={2: 1}, z={1: 1}),
        _triples(rk5, (0, 2, 4), (1, 2, 4)), False)

    def _deg8_cancel(tail_exp, x_exp):
        def make(rf, eps_int, nt):
            g = rf.element((0, 1))
            c = rf.mul(g, g)     # degree-4 element inside F_{p^8}
            a = rf.add(rf.pow(c, p), rf.neg(rf.pow(c, p ** 7)))
            target = rf.neg(rf.mul(rf.element(4 * eps_int), a))
            gamma = rf.sqrt(target)
            if gamma is None:
                raise InvalidParameter("cancellation coefficient must "
                                       "exist in F_{p^8}")
            return (c, FormalCurve(x={x_exp: 1}, y={2: 1},
                                   z={1: gamma, tail_exp: 1}, nt=nt))
        return make

    add("supergeneric-deep-cancel-strict", SIEGEL_SG, 8, 9, 1458,
        2 * p ** 2 - p + 2, _deg8_cancel(46, 46),
        _triples(rk5, (0, 1, 2)), False)
    add("supergeneric-deep-cancel-equal", SIEGEL_SG, 8, 9, 1427,
        2 * p ** 2 - p + 1, _deg8_cancel(45, 46),
        _pair_plus_span(rk5, (0, 4), (1, 2), p)
        + _pair_plus_span(rk5, (1, 4), (0, 2), p)
        + _pair_plus_span(rk5, (2, 4), (0, 1), p), False)

    return fixtures


def run_decay_fixture(fix, n_max=2, search_depth_B=None):
    """Build and verify one fixture; returns a result record.

    ``search_depth_B`` is ignored: the span certificate covers every
    primitive vector, so there is no enumeration depth left to choose.
    """
    params = PAdicParams(fix["p"], fix["d"], fix["precision"])
    c_res, curve = fix["make"](params.residue_field, params.eps_int,
                               fix["nt"])
    model = CrystalModel(fix["case"], params, c_residue=c_res)
    A = model.non_ordinary_valuation(curve)
    if A != fix["A"]:
        raise InvalidParameter(
            f"{fix['name']}: built curve has A = {A}, expected {fix['A']}")
    cols = {j for v in sum(fix["asserted"], ()) for j, x in enumerate(v) if x}
    finf = f_infinity(model, curve, n_max=n_max, columns=cols)
    basis, witness = find_decaying_submodule(
        model, finf, A, n_max=n_max, candidates=fix["asserted"])
    return {"name": fix["name"], "A": A, "basis": basis,
            "witness": witness, "nt": fix["nt"]}


def split_equal_decay_indices(p=5, n_max=2):
    """Decay indices of w_1 for the split x = y = t curve (A = 2), for
    each n <= n_max: nt is the last threshold plus one, so an inf is
    sound, and M is at least 10 and the precision floor."""
    nt = decay_thresholds(2, p, n_max)[-1] + 1
    model = build_model(HILBERT_SPLIT, p, 2,
                        max(10, required_precision(p, nt, n_max)))
    curve = FormalCurve(x={1: 1}, y={1: 1}, nt=nt)
    finf = f_infinity(model, curve, n_max=n_max, columns=[0])
    profile = column_valuation_profile(finf, [1, 0, 0, 0])
    out = []
    for n in range(n_max + 1):
        idx, sound = profile.decay_index(n)
        if not sound:
            raise InvalidParameter("precision masked a regression verdict")
        out.append(idx)
    return out

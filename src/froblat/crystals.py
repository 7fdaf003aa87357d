"""Frobenius perturbation matrices at supersingular points and decay checks.

Five explicit models are supported, distinguished by the ambient family
(Hilbert-type rank 4 or Siegel-type rank 5), the splitting behaviour, and
whether the point is superspecial (sigma^2 fixes the Teichmuller parameter
c) or supergeneric (it does not).  Along a formal curve (x(t), y(t), z(t))
with Teichmuller coefficients each model gives F = sum_j s_j M_j as a
sparse table of terms: a series s_j (from x, y, z and Q = x y, plus
z^2/(4 eps) for Siegel) with the nonzero entries of M_j.  The mod-p
equation of the non-ordinary locus is Q, y or Q + a y among these series.
Each model also knows the Gram matrix of the quadratic form on the
special-endomorphism lattice at p.

Decay of a vector w is measured through the infinite product
F_inf = prod_i (1 + sigma_t^i(F)): w decays rapidly when, for every n up
to n_max, some coefficient of t^k, k <= A(1 + p + ... + p^n), of
F_inf * w has valuation below -n.  Very rapid decay uses the shifted
thresholds A(1 + ... + p^(n-1)) + a*p^n with a <= A/2.  A rank-3 span
is certified whole: the coefficient vectors failing level n form a
Z_p-submodule, and the span decays iff none of these holds a primitive
vector.
"""

import itertools
from fractions import Fraction

from . import linalg
from .errors import (Indeterminate, InvalidParameter, NotFound,
                     NotGenericallyOrdinary, ThresholdExceedsTruncation)
from .padics import INF, PAdicParams
from .series import (MatSeries, TruncSeries, _fused,
                     column_valuation_profile, truncated_product)

HILBERT_INERT_SSP = "hilbert-inert-superspecial"
HILBERT_INERT_SG = "hilbert-inert-supergeneric"
HILBERT_SPLIT = "hilbert-split"
SIEGEL_SSP = "siegel-superspecial"
SIEGEL_SG = "siegel-supergeneric"

CASES = (HILBERT_INERT_SSP, HILBERT_INERT_SG, HILBERT_SPLIT,
         SIEGEL_SSP, SIEGEL_SG)

class FormalCurve:
    """A map Spf k[[t]] -> Spf k[[x,y,z]] with Teichmuller coefficients.

    Coefficients are residue-field elements; they are lifted to their
    Teichmuller representatives when series are materialized, which makes
    the coefficient Frobenius compatible with substitution of t^p.
    The z component is absent for Hilbert models.  nt is the truncation
    N_t of every series built from the curve.
    """

    def __init__(self, x=None, y=None, z=None, *, nt):
        self.x = dict(x or {})
        self.y = dict(y or {})
        self.z = dict(z or {})
        self.nt = nt
        for name, comp in (("x", self.x), ("y", self.y), ("z", self.z)):
            for e in comp:
                if e < 1:
                    raise InvalidParameter(
                        f"{name}(t) must vanish at t = 0 (exponent {e})")

    def component_series(self, params, which):
        comp = {"x": self.x, "y": self.y, "z": self.z}[which]
        coeffs = {}
        for e, r in comp.items():
            if e <= self.nt:
                lift = params.teichmuller(r)
                if not lift.is_zero():
                    coeffs[e] = lift
        return TruncSeries(params, self.nt, coeffs)


class CrystalModel:
    """One Frobenius model: parameters, term table, local Gram.

    A supergeneric model is exactly one with ``a_frob``, the unit
    sigma(c) - sigma^(-1)(c); ``rank`` is 4 for the Hilbert models and 5
    for the Siegel ones.
    """

    def __init__(self, case, params, c_residue=None):
        if case not in CASES:
            raise InvalidParameter(f"unknown case {case!r}")
        self.case = case
        self.params = params
        self.rank = 5 if case.startswith("siegel") else 4
        if params.d % 2 != 0:
            raise InvalidParameter(
                "models need lambda in W(F_{p^2}); use even degree d")
        self.eps = params.eps()
        self.inv2eps = (self.eps * params.from_int(2)).inv()
        self.lam = params.lam()
        self.c = None
        self.a_frob = None
        if case == HILBERT_SPLIT:
            if c_residue is not None:
                raise InvalidParameter("split case carries no parameter c")
            return
        if c_residue is None:
            raise InvalidParameter(f"case {case} needs the parameter c")
        rf = params.residue_field
        cbar = rf.element(c_residue)
        fixed = rf.pow(cbar, params.p ** 2) == cbar
        supergeneric = case.endswith("supergeneric")
        if fixed == supergeneric:
            raise InvalidParameter(
                "supergeneric case needs sigma^2(c) != c" if supergeneric
                else "superspecial case needs sigma^2(c) = c")
        self.c = params.teichmuller(cbar)
        if supergeneric:
            cm1 = self.c.frobenius_power(params.d - 1)
            self.a_frob = self.c.frobenius() - cm1
            if self.a_frob.maybe_val() != 0:
                raise InvalidParameter(
                    "supergeneric parameter must have unit a = "
                    "sigma(c) - sigma^(-1)(c)")

    # -- term table ------------------------------------------------------
    def _series(self, curve):
        """x, y, z and Q = x y (+ z^2 / (4 eps) for Siegel) as series."""
        X, Y, Z = (curve.component_series(self.params, w) for w in "xyz")
        Q = X * Y
        if self.rank == 5:
            half = self.params.from_rational(Fraction(1, 2))
            Q = Q + (Z * Z).scale(self.inv2eps * half)
        return X, Y, Z, Q

    def _terms(self, curve):
        """F = sum_j s_j M_j as a list of (s_j, {(i, j): scalar}), zero
        entries of M_j left out; an entry sums its terms in list order."""
        P = self.params
        X, Y, Z, Q = self._series(curve)
        one, lam, li = P.one(), self.lam, self.lam.inv()
        h = P.from_rational(Fraction(1, 2))
        hp = P.from_rational(Fraction(1, 2 * P.p))
        pinv = P.from_rational(Fraction(1, P.p))
        if self.case == HILBERT_INERT_SSP:
            return [
                (Q, {(0, 0): -hp, (0, 1): hp * lam, (1, 0): -hp * li,
                     (1, 1): hp}),
                (X, {(0, 2): hp, (1, 2): hp * li, (3, 0): -one,
                     (3, 1): lam}),
                (Y, {(0, 3): hp, (1, 3): hp * li, (2, 0): -one,
                     (2, 1): lam})]
        if self.case == HILBERT_SPLIT:
            return [
                (Q, {(0, 0): hp, (0, 1): -hp * lam, (1, 0): hp * li,
                     (1, 1): -hp}),
                (X + Y, {(0, 2): hp, (1, 2): hp * li, (2, 0): h,
                         (2, 1): -h * lam}),
                (X - Y, {(0, 3): -hp * lam, (1, 3): -hp, (3, 0): h * li,
                         (3, 1): -h})]
        if self.case == SIEGEL_SSP:
            return [
                (Q, {(0, 0): hp, (0, 1): -hp * li, (1, 0): hp * lam,
                     (1, 1): -hp}),
                (X, {(0, 2): hp * li, (1, 2): hp, (3, 0): lam,
                     (3, 1): -one}),
                (Y, {(0, 3): hp * li, (1, 3): hp, (2, 0): lam,
                     (2, 1): -one}),
                (Z, {(0, 4): hp * li, (1, 4): hp,
                     (4, 0): lam * self.inv2eps, (4, 1): -self.inv2eps})]
        c = self.c
        c2 = c * c
        Yp, Qp = Y.scale(pinv), Q.scale(pinv)
        if self.case == HILBERT_INERT_SG:
            # F = (y/p) A + x B0 + (Q/p) B1
            return [
                (Yp, {(0, 0): -c, (0, 1): -c2, (0, 2): -(lam * c2),
                      (1, 0): h, (1, 2): lam * c, (1, 3): h * c2,
                      (2, 0): h * li, (2, 1): c * li,
                      (2, 3): -(h * c2 * li),
                      (3, 1): -one, (3, 2): lam, (3, 3): c}),
                (X, {(0, 1): -one, (0, 2): lam, (1, 3): h, (2, 3): h * li}),
                (Qp, {(0, 1): c, (0, 2): lam * c, (0, 3): -c2,
                      (1, 1): -h, (1, 2): h * lam, (1, 3): h * c,
                      (2, 1): -(h * li), (2, 2): h, (2, 3): h * c * li})]
        # SIEGEL_SG: F = (y/p) A + (Q/p) B + x C + z D
        ei = self.eps.inv()
        return [
            (Yp, {(0, 1): c * lam, (0, 2): h, (0, 3): h * c2,
                  (1, 0): c * li, (1, 2): h * li, (1, 3): -(h * c2 * li),
                  (2, 0): -c2, (2, 1): -(lam * c2), (2, 2): -c,
                  (3, 0): -one, (3, 1): lam, (3, 3): c}),
            (Qp, {(0, 0): -h, (0, 1): h * lam, (0, 3): h * c,
                  (1, 0): -(h * li), (1, 1): h, (1, 3): h * c * li,
                  (2, 0): c, (2, 1): -(c * lam), (2, 3): -c2}),
            (X, {(0, 3): h, (1, 3): h * li, (2, 0): -one, (2, 1): lam}),
            (Z, {(0, 4): hp, (1, 4): hp * li, (2, 4): -(c * pinv),
                 (4, 0): -(h * ei), (4, 1): lam * h * ei,
                 (4, 3): c * h * ei})]

    def perturbation_matrix(self, curve):
        """The matrix F with Frob = (I + F) o sigma, specialized at the curve."""
        P, n, nt = self.params, self.rank, curve.nt
        pairs = [[[] for _ in range(n)] for _ in range(n)]
        for series, scalars in self._terms(curve):
            for (i, j), a in scalars.items():
                pairs[i][j].append((series, TruncSeries.constant(P, 0, a)))
        return MatSeries(P, nt, [[_fused(P, nt, e) for e in row]
                                 for row in pairs])

    # -- non-ordinary locus ----------------------------------------------
    def non_ordinary_valuation(self, curve):
        """t-adic order A of the non-ordinary locus along the curve: the
        first exponent whose coefficient is a unit in its equation, Q, or
        y (Hilbert) and Q + a y (Siegel) at a supergeneric point."""
        _, Y, _, eq = self._series(curve)
        if self.a_frob is not None:
            eq = Y if self.rank == 4 else eq + Y.scale(self.a_frob)
        A = next((k for k, shift, digits, _ in eq.terms
                  if digits is not None and shift == 0), None)
        if A is None:
            raise NotGenericallyOrdinary(
                "non-ordinary equation vanishes up to t^nt")
        return A


def build_model(case, p, d, precision_M, c_residue=None):
    params = PAdicParams(p, d, precision_M)
    return CrystalModel(case, params, c_residue)


def required_precision(p, nt, n_max):
    """Precision floor: the deepest queried digit plus product losses."""
    k = 0
    while p ** k < nt:
        k += 1
    return n_max + 2 + k


def f_infinity(model, curve, n_max=2, columns=None):
    """F_inf at the curve, or only its ``columns`` (see truncated_product).

    The all-zero curve gives the identity matrix (degenerate; callers that
    need generic ordinariness should call non_ordinary_valuation first).
    """
    need = required_precision(model.params.p, curve.nt, n_max)
    if model.params.precision_M < need:
        raise InvalidParameter(
            f"precision_M = {model.params.precision_M} below required "
            f"{need} for nt = {curve.nt}, n_max = {n_max}")
    F = model.perturbation_matrix(curve)
    return truncated_product(F, columns)


def decay_thresholds(A, p, n_max):
    return [A * sum(p ** i for i in range(n + 1)) for n in range(n_max + 1)]


def check_truncation(thr, nt):
    """Refuse a threshold past nt, where a coefficient is unknown, not 0."""
    if thr > nt:
        raise ThresholdExceedsTruncation(
            f"threshold {thr} exceeds truncation {nt}")


def dvr_thresholds(A, p, a_dvr, n_max):
    base = [A // p] + decay_thresholds(A, p, n_max - 1)
    return [b + a_dvr * p ** n for n, b in enumerate(base)]


def check_DR(finf, w, A, n_max):
    """Rapid decay of a single vector; raises Indeterminate when masked."""
    return _decays_within(finf, w,
                          decay_thresholds(A, finf.params.p, n_max))


def check_DvR(finf, w, A, a_dvr, n_max):
    """Very rapid decay with constant a_dvr (sound, else Indeterminate)."""
    if a_dvr * 2 > A:
        raise InvalidParameter("very rapid decay needs a_dvr <= A/2")
    return _decays_within(finf, w,
                          dvr_thresholds(A, finf.params.p, a_dvr, n_max))


def _decays_within(finf, w, thrs):
    """True iff for every n some t^k coefficient of F_inf w with
    k <= thrs[n] has valuation < -n; Indeterminate when masked."""
    check_truncation(max(thrs), finf.nt)
    profile = column_valuation_profile(finf, w)
    for n, thr in enumerate(thrs):
        idx, masked = profile.decay_index(n, thr)
        if idx == INF:
            if masked:
                raise _blocked("decay verdict", n, *masked)
            return False
    return True


def _blocked(what, n, k, row, bound):
    """Indeterminate naming the masked coefficient ``what`` rests on."""
    return Indeterminate(
        f"{what} blocked by precision: coefficient n = {n}, k = {k}, "
        f"row = {row} is known only to bound = {bound}",
        n=n, k=k, row=row, bound=bound)


# -- submodule search ------------------------------------------------------

def _combine(basis, coeffs):
    rank = len(basis[0])
    return [sum(c * v[i] for c, v in zip(coeffs, basis)) for i in range(rank)]


def _span_certificate(finf, basis, A, n_max):
    """Rapid decay of every primitive vector of the span at once.

    The coefficient vectors c whose combination sum c_b w_b fails level n
    form a Z_p-submodule N_n: every W-coordinate of every t^k coefficient
    (k <= thrs[n]) of F_inf * w must lie in p^(-n) W, one congruence on c
    per coordinate.  A coefficient known only modulo p^bound, bound < -n,
    gives its congruence modulo p^bound instead.  Returns (True, None)
    when no N_n holds a primitive vector, (False, falsifier) when one
    does at an unmasked level, else (None, (n, k, row, bound)) naming the
    first masked coefficient of the blocked level.
    """
    p = finf.params.p
    thrs = decay_thresholds(A, p, n_max)
    check_truncation(thrs[-1], finf.nt)
    s_min, table = _certificate_table(finf, basis, thrs[-1])
    blocked = None
    for n, thr in enumerate(thrs):
        q = p ** max(-n - s_min, 0)
        rows = set()
        masked = None
        for k, i, bound, coord_rows in table:
            if k > thr:
                break
            lift = 1
            if bound <= -(n + 1):
                masked = masked or (n, k, i, bound)
                lift = p ** (-n - bound)
            rows.update(tuple(x * lift % q for x in r) for r in coord_rows)
        c = linalg.primitive_kernel_vector(rows, len(basis), p, -n - s_min)
        if c is None:
            continue
        if masked is None:
            return False, _combine(basis, c)
        blocked = blocked or masked
    if blocked is not None:
        return None, blocked
    return True, None


def _certificate_table(finf, basis, kmax):
    """(s_min, table) of the span certificate: s_min the least shift of a
    t^k coefficient, k <= kmax, of a basis column, and per such (k, row)
    its least known bound and the distinct nonzero integer rows, one per
    W-coordinate, scaled by p^(-s_min) so that level n reads them modulo
    p^(-n - s_min).  It reads each column's kernel view."""
    p = finf.params.p
    cells = {}  # (k, row) -> [(column, view), ...]
    for b, v in enumerate(basis):
        for i, series in enumerate(finf.apply_int_vector(list(v))):
            for term in series.terms:
                if term[0] <= kmax:
                    cells.setdefault((term[0], i), []).append((b, term))
    s_min = min((s for views in cells.values()
                 for _, (_, s, _, _) in views), default=0)
    q0 = p ** max(-s_min, 0)
    table = []
    for (k, i), views in sorted(cells.items()):
        coords = {}
        for b, (_, s, c, _) in views:
            for u, x in c or ():
                coords.setdefault(u, [0] * len(basis))[b] = \
                    x * p ** (s - s_min) % q0
        table.append((k, i, min(t[3] for _, t in views),
                      {tuple(r) for r in coords.values() if any(r)}))
    return s_min, table


def _e(i, rank):
    v = [0] * rank
    v[i] = 1
    return tuple(v)


def _triples(rank, *idx_groups):
    """Candidate bases: one coordinate triple per index triple."""
    return [tuple(_e(i, rank) for i in tri) for tri in idx_groups]


def _combos(rank, pair, k, l, p):
    """Candidate bases pair + (e_k + m e_l) for m = 1 .. p-1."""
    return [(_e(pair[0], rank), _e(pair[1], rank),
             tuple(1 if i == k else m if i == l else 0 for i in range(rank)))
            for m in range(1, p)]


def _default_candidates(rank, p):
    """Coordinate triples first, then pairs completed by mod-p combos."""
    cands = _triples(rank, *itertools.combinations(range(rank), 3))
    for pair in itertools.combinations(range(rank), 2):
        rest = [i for i in range(rank) if i not in pair]
        for k, l in itertools.combinations(rest, 2):
            cands += _combos(rank, pair, k, l, p)
    return cands


def find_decaying_submodule(model, finf, A, n_max=2, candidates=None):
    """Certify a rank-3 submodule all of whose primitive vectors decay.

    Each candidate span, taken in a deterministic order, is certified
    whole by ``_span_certificate``: for every level n the coefficient
    vectors failing it form a submodule, and one elimination over
    Z/p^E decides whether it holds a primitive vector.  A model without
    ``a_frob`` (superspecial or split) additionally requires a
    very-rapidly-decaying witness inside the span (a = [A/2]).  Returns
    (basis, witness_or_None).  Raises NotFound with the last falsifying
    vector (None if no span had one) and the number of certified spans
    without a witness, or Indeterminate naming the masked coefficient
    (n, k, row, bound) when precision blocked the only remaining
    candidates: a span's certificate, or else the first witness check.
    """
    p = model.params.p
    if candidates is None:
        candidates = _default_candidates(model.rank, p)
    last_falsifier = None
    blocked = None
    no_witness = 0
    for basis in candidates:
        verdict, detail = _span_certificate(finf, basis, A, n_max)
        if verdict is False:
            last_falsifier = detail
            continue
        if verdict is None:
            blocked = _blocked("decay search", *detail)
            continue
        witness = None
        if model.a_frob is None:
            a_dvr = A // 2
            for coeffs in _witness_order(p, len(basis)):
                w = _combine(basis, coeffs)
                try:
                    if check_DvR(finf, w, A, a_dvr, n_max):
                        witness = w
                        break
                except Indeterminate as exc:
                    blocked = blocked or exc
            if witness is None:
                no_witness += 1
                continue
        return [list(v) for v in basis], witness
    if blocked is not None:
        raise blocked
    raise NotFound("no decaying rank-3 submodule certified" + (
        f" with a very-rapid witness: {no_witness} certified span(s) had "
        f"none" if no_witness else ""), falsifier=last_falsifier)


def _witness_order(p, k):
    """Single basis vectors first, then mod-p combinations."""
    yield from (_e(i, k) for i in range(k))
    for coeffs in itertools.product(range(p), repeat=k):
        if sum(c > 0 for c in coeffs) >= 2:
            yield coeffs


def local_gram(case, p, eps):
    """Bilinear Gram matrix of Q' on the special-endomorphism lattice at p.

    Entries are integers; Q(v) = v^T G v / 2.  The shapes match the five
    closed-form local densities of ``LOCAL_DENSITIES``.
    """
    U = [[0, 1], [1, 0]]
    if case == HILBERT_INERT_SSP:
        # x y + p z^2 - p eps w^2 in coordinates (z, w, x, y)
        return _block_diag([[2 * p]], [[-2 * p * eps]], U)
    if case == HILBERT_SPLIT:
        # x^2 - eps y^2 - p z^2 + eps p w^2
        return _block_diag([[2]], [[-2 * eps]], [[-2 * p]], [[2 * eps * p]])
    if case == HILBERT_INERT_SG:
        # p times a unimodular lattice: p(x y + z^2 - eps w^2)
        return _block_diag([[0, p], [p, 0]], [[2 * p]], [[-2 * p * eps]])
    if case == SIEGEL_SSP:
        # x y + eps z^2 + p w^2 - p eps u^2 in coordinates (u, w, x, y, z)
        return _block_diag([[-2 * p * eps]], [[2 * p]], U, [[2 * eps]])
    if case == SIEGEL_SG:
        # p x y + eps z^2 + p w^2 - p eps u^2
        return _block_diag([[0, p], [p, 0]], [[2 * eps]], [[2 * p]],
                           [[-2 * p * eps]])
    raise InvalidParameter(f"unknown case {case!r}")


# (case, v_p(m), p -> delta(p, L, m)): the closed-form local density at p
# of the shape local_gram(case, p, eps) for every m of that valuation
LOCAL_DENSITIES = (
    (HILBERT_INERT_SSP, 0, lambda p: Fraction(p - 1, p)),
    (HILBERT_SPLIT, 0, lambda p: Fraction(p + 1, p)),
    (HILBERT_INERT_SG, 0, lambda p: Fraction(0)),
    (SIEGEL_SSP, 1, lambda p: 1 + Fraction(1, p ** 3)),
    (SIEGEL_SG, 1, lambda p: 1 + Fraction(1, p ** 2)),
)


def _block_diag(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[off + i][off + j] = v
        off += len(b)
    return out

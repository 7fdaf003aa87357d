"""Truncated power series in t over p-adic scalars, and matrices of them.

Series are sparse maps from t-exponent to coefficient, truncated at a
shared order N_t.  The twisted Frobenius sigma_t applies sigma to each
coefficient and sends t to t^p.  Infinite products prod_i (1 + sigma_t^i F)
stop before the first factor congruent to the identity mod t^(N_t + 1),
the first i with p^i v_t(F) > N_t.  They are formed from right to left,
and only on the columns a caller reads; a column not formed is None.

Every product and sum of series goes through one kernel, ``_fused``: for
each output exponent it multiplies only the nonzero digits of its terms
into unfolded integer accumulators, folds them by the modulus once,
keeps the least known bound among the terms, and reduces and normalizes
the coefficient once.  A series holds only the kernel's view of each
coefficient (``_term``): a scalar given to the constructor is read into
a view once, and no series operation builds a scalar.
"""

import math

from .errors import InvalidParameter, NonConvergent
from .padics import INF, _fold, _normal_digits, _valuation


def _term(k, c):
    """Kernel view of the t^k coefficient c: (k, valuation bound, nonzero
    digits ((i, x), ...) of its integer coefficients, known bound).  A
    masked c, known only to vanish mod p^bound, has no digits and bound
    as its valuation bound."""
    digits = tuple([(i, x) for i, x in enumerate(c.coeffs) if x])
    if c.rel_prec is None:  # exact
        return k, c.shift, digits, INF
    bound = c.shift + c.rel_prec
    return (k, c.shift, digits, bound) if digits else (k, bound, None, bound)


def _series(params, nt, terms):
    """The series whose views by exponent are ``terms``."""
    series = TruncSeries(params, nt)
    series.terms = terms
    return series


def _fused(params, nt, pairs, addends=()):
    """sum(a * b for a, b in pairs) + sum(addends) for series, at N_t.

    Each output exponent has one record: the least known bound among its
    terms, and the unfolded sum of its terms at their least shift, 2d - 1
    integer slots.  A product adds x * y into slot i + j for each nonzero
    digit x g^i of a and y g^j of b, and its bound is
    min(v(a) + bound(b), v(b) + bound(a)), as in ``PAdicScalar.__mul__``,
    so a masked factor contributes only a bound.  Each coefficient's view
    is then made once (``_build``); a coefficient that only one addend
    supplies is that addend's view, untouched.
    """
    p, width = params.p, 2 * params.d - 1
    acc = {}   # k -> [least bound, least shift, slots at that shift]
    kept = {}  # k -> the view of the first addend with digits there
    for series in addends:
        for term in series.terms:
            k = term[0]
            if k in kept or term[2] is None:
                _add(acc.setdefault(k, [INF, INF, None]), term, p, width)
            else:
                kept[k] = term
    for a, b in pairs:
        right = b.terms
        for i, sa, ca, ba in a.terms:
            for j, sb, cb, bb in right:
                k = i + j
                if k > nt:
                    break
                bound = sa + bb if sa + bb < sb + ba else sb + ba
                rec = acc.get(k)
                if rec is None:
                    rec = acc[k] = [bound, INF, None]
                elif bound < rec[0]:
                    rec[0] = bound
                if ca is not None and cb is not None:
                    s = sa + sb
                    if s == rec[1]:
                        slots, f = rec[2], 1
                    else:
                        slots, f = _align(rec, s, p, width)
                    for u, x in ca:
                        x *= f
                        for v, y in cb:
                            slots[u + v] += x * y

    view = []
    for k in sorted(acc.keys() | kept.keys()):
        rec = acc.get(k)
        if rec is None:
            term = kept[k]
        else:
            if k in kept:
                _add(rec, kept[k], p, width)
            term = _build(params, k, *rec)
            if term is None:
                continue
        view.append(term)
    return _series(params, nt, view)


def _add(rec, term, p, width):
    """Add an addend's term to a record."""
    _, t, c, bound = term
    rec[0] = min(rec[0], bound)
    if c is not None:
        slots, f = _align(rec, t, p, width)
        for u, x in c:
            slots[u] += x * f


def _align(rec, s, p, width):
    """The slots of a record and the power of p that puts a term at shift
    s on them; the slots move down to s first when s is less."""
    if rec[2] is None:
        rec[1], rec[2] = s, [0] * width
        return rec[2], 1
    if s < rec[1]:
        f = p ** (rec[1] - s)
        rec[1], rec[2] = s, [x * f for x in rec[2]]
        return rec[2], 1
    return rec[2], p ** (s - rec[1])


def _build(params, k, bound, shift, slots):
    """The view of the t^k coefficient from its record; None if it is
    exactly 0.  Slots d .. 2d - 2 are folded once by the rows of the
    modulus; exact digits give up their common power of p, and others
    are reduced mod p^(bound - shift) and normalized once.  Folding is
    linear, so it has the digits of the folded products summed term by
    term."""
    if bound <= shift:
        return k, bound, None, bound
    folded = _fold(slots, params.rows)
    if bound == INF:
        g = math.gcd(*folded)
        if not g:
            return None
        v = _valuation(g, params.p)
        q = params.p ** v
        return (k, shift + v,
                tuple([(i, x // q) for i, x in enumerate(folded) if x]), INF)
    return _normal_term(params, k, shift, enumerate(folded), bound - shift)


def _normal_term(params, k, shift, digits, n):
    """The view of the t^k coefficient p^shift * sum(x g^i) known mod
    p^(shift + n), in the normal form of ``_normal_digits``; masked if it
    vanishes there."""
    norm = _normal_digits(params, shift, digits, n)
    if norm is None:
        return k, shift + n, None, shift + n
    shift, digits, n = norm
    return k, shift, digits, shift + n


class TruncSeries:
    """Sparse truncated series; absent exponents are zero up to N_t.

    ``terms`` lists the kernel's view of each coefficient by exponent.  A
    series is not changed once built.
    """

    __slots__ = ("params", "nt", "terms")

    def __init__(self, params, nt, coeffs=None):
        """The series of ``coeffs``, {k: PAdicScalar}; exact zeros and
        exponents beyond N_t drop."""
        self.params = params
        self.nt = nt
        self.terms = [_term(k, c) for k, c in sorted((coeffs or {}).items())
                      if k <= nt and not c.is_zero()]

    @classmethod
    def constant(cls, params, nt, scalar):
        return cls(params, nt, {0: scalar})

    def _check(self, other):
        if self.params is not other.params or self.nt != other.nt:
            raise InvalidParameter("series contexts differ")

    def v_t(self):
        """Least exponent with a stored nonzero coefficient, or +inf.

        Coefficients that vanish only up to tracked precision still count
        as present; this keeps convergence checks conservative.
        """
        return self.terms[0][0] if self.terms else INF

    def __add__(self, other):
        self._check(other)
        return _fused(self.params, self.nt, (), (self, other))

    def __neg__(self):
        return _series(self.params, self.nt, [
            (k, s, c and tuple([(i, -x) for i, x in c]), b)
            for k, s, c, b in self.terms])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return _fused(self.params, self.nt, [(self, other)])

    def scale(self, scalar):
        if scalar.params is not self.params:
            raise InvalidParameter("mixed parameter sets")
        return _fused(self.params, self.nt,
                      [(self, TruncSeries.constant(self.params, 0, scalar))])

    def frobenius_twist(self):
        """sigma on coefficients, t -> t^p; exponents beyond N_t drop.

        sigma fixes Z_p, so a masked view and one with digits only at g^0
        move to k p as they are.  Any other goes through ``frobenius_poly``
        mod p^n, n its known digits (M when exact), and is normalized.
        """
        params, terms = self.params, []
        for k, shift, digits, bound in self.terms:
            k *= params.p
            if k > self.nt:
                break
            if digits is None or digits[-1][0] == 0:
                terms.append((k, shift, digits, bound))
                continue
            n = params.precision_M if bound == INF else bound - shift
            coeffs = [0] * params.d
            for i, x in digits:
                coeffs[i] = x
            terms.append(_normal_term(
                params, k, shift,
                enumerate(params.frobenius_poly(coeffs, n)), n))
        return _series(params, self.nt, terms)


class MatSeries:
    """Rectangular grid of TruncSeries sharing params and N_t.  An entry
    is None where its column was not computed; it never reads as zero."""

    __slots__ = ("params", "nt", "rows", "cols", "entries")

    def __init__(self, params, nt, entries):
        self.params = params
        self.nt = nt
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise InvalidParameter("ragged matrix")
            for e in row:
                if e is not None and (e.params is not params or e.nt != nt):
                    raise InvalidParameter("entry context differs")
        self.entries = entries

    @classmethod
    def zero(cls, params, nt, rows, cols):
        return cls(params, nt,
                   [[TruncSeries(params, nt) for _ in range(cols)]
                    for _ in range(rows)])

    @classmethod
    def identity(cls, params, nt, n):
        m = cls.zero(params, nt, n, n)
        one = params.one()
        for i in range(n):
            m.entries[i][i] = TruncSeries.constant(params, nt, one)
        return m

    def mul_add(self, other, addend=None):
        """self * other (+ addend), each entry one ``_fused`` call."""
        for m in (other,) if addend is None else (other, addend):
            if m.params is not self.params or m.nt != self.nt:
                raise InvalidParameter("series contexts differ")
        if self.cols != other.rows or addend is not None and \
                (addend.rows, addend.cols) != (self.rows, other.cols):
            raise InvalidParameter("shape mismatch")
        out = []
        for i, row in enumerate(self.entries):
            out_row = []
            for j in range(other.cols):
                pairs = [(a, r[j]) for a, r in zip(row, other.entries)]
                extra = () if addend is None else (addend.entries[i][j],)
                out_row.append(None if other.entries[0][j] is None else
                               _fused(self.params, self.nt, pairs, extra))
            out.append(out_row)
        return MatSeries(self.params, self.nt, out)

    def frobenius_twist(self):
        return MatSeries(self.params, self.nt,
                         [[e.frobenius_twist() for e in row]
                          for row in self.entries])

    def min_vt(self):
        return min((e.v_t() for row in self.entries for e in row),
                   default=INF)

    def apply_int_vector(self, w):
        """Product with an integer vector; returns a list of TruncSeries.

        A unit vector picks out its column as it stands.
        """
        if len(w) != self.cols:
            raise InvalidParameter("vector length mismatch")
        nonzero = [j for j, x in enumerate(w) if x]
        if any(self.entries[0][j] is None for j in nonzero):
            raise InvalidParameter(f"{list(w)} reads a column not computed")
        if len(nonzero) == 1 and w[nonzero[0]] == 1:
            return [row[nonzero[0]] for row in self.entries]
        ws = {j: TruncSeries.constant(self.params, 0,
                                      self.params.from_int(w[j]))
              for j in nonzero}
        return [_fused(self.params, self.nt,
                       [(row[j], ws[j]) for j in nonzero])
                for row in self.entries]


def truncated_product(F, columns=None):
    """The ``columns`` (all when None) of prod_{i=0}^{K} (I + sigma_t^i(F))
    truncated at N_t; the other columns are None.

    Requires every entry of F to vanish at t = 0; otherwise the
    degree-by-degree stabilization fails.  K is the largest i with
    p^i * v_t(F) <= N_t, so every omitted factor I + sigma_t^i(F) is
    congruent to the identity mod t^(N_t + 1) and the product is exact
    to that degree.  From right to left: W, the requested unit columns,
    becomes sigma_t^i(F) W + W for i = K down to 0.  A column of W reads
    only its own start, so it equals that column of the full product,
    digit for digit and bound for bound.
    """
    if F.rows != F.cols:
        raise InvalidParameter("product needs a square matrix")
    v = F.min_vt()
    if v < 1:
        raise NonConvergent("an entry of F has t-adic valuation 0")
    held = range(F.rows) if columns is None else set(columns)
    prod = MatSeries(F.params, F.nt, [
        [e if j in held else None for j, e in enumerate(row)]
        for row in MatSeries.identity(F.params, F.nt, F.rows).entries])
    factors = [F] if v < INF else []
    while factors and v * F.params.p ** len(factors) <= F.nt:
        factors.append(factors[-1].frobenius_twist())
    for factor in reversed(factors):
        prod = factor.mul_add(prod, prod)
    return prod


class DecayProfile:
    """Per-exponent minimum p-valuations of a series vector.

    ``minvals`` maps each exponent with a visible coefficient to the
    minimum valuation over coordinates; ``floors`` maps exponents whose
    coefficients are masked by precision to (bound, row): the least
    exhaustion bound (the true valuation is >= the bound but otherwise
    unknown) and the first row that has it.
    """

    __slots__ = ("nt", "minvals", "floors")

    def __init__(self, nt, minvals, floors):
        self.nt = nt
        self.minvals = minvals
        self.floors = floors

    def decay_index(self, n, kmax=None):
        """Least k <= kmax with min valuation < -n (INF if none), and the
        first coefficient (k, row, bound) masked at level n up to it, or
        None: where there is one, the true index could be smaller than
        reported (never larger).
        """
        if kmax is None:
            kmax = self.nt
        idx = min((k for k, v in self.minvals.items() if k <= kmax and v < -n),
                  default=INF)
        masked = [(k, row, bound) for k, (bound, row) in self.floors.items()
                  if k <= min(idx, kmax) and bound <= -(n + 1)]
        return idx, min(masked, default=None)


def column_valuation_profile(mat, w):
    """Profile of min p-valuations of the t^k coefficients of mat * w."""
    series = mat.apply_int_vector(w)
    minvals = {}
    floors = {}
    for row, s in enumerate(series):
        for k, shift, digits, bound in s.terms:
            if digits is None:
                if floors.get(k, (INF,))[0] > bound:
                    floors[k] = bound, row
            elif minvals.get(k, INF) > shift:
                minvals[k] = shift
    return DecayProfile(mat.nt, minvals, floors)

"""Generalized Bernoulli numbers and exact Eisenstein Fourier coefficients.

Every Eisenstein coefficient is one exact Fraction, built from an integer
numerator and denominator multiplied factor by factor, and a range of m
is one ``coefficients`` pass that does once what every m shares; a
rank-5 pass reads H2_READ_AHEAD m ahead and fills their H(2, D0) in one
batch.
Its character discriminant D is positive (4|det| in rank 4, 2 m0 |det|
in rank 5), and for D = D0 s^2 > 0 with D0 fundamental (or 1) and
conductor f = D0,

    L(2, chi_D) = E pi^2 B_{2,chi} / f^(3/2)

(Washington, Introduction to Cyclotomic Fields, Thm 4.2), with the Euler
correction E and the generalized Bernoulli number B_{2,chi} of
chi = chi_{D0} exact; B_{2,chi} = -2 H(2, D0) is read from Cohen's
numbers H(2, N).  So pi and every square root cancel from the
coefficient formulas, and L(2, chi) itself is never evaluated.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import InvalidParameter
from .padics import _valuation, factorint, primefactors
from .quadforms import hanke_density, kronecker, sigma_s


def fundamental_part(D, factors=None):
    """(D0, s), D = D0 s^2, D0 fundamental or 1; factors: |D|'s, if known."""
    if D == 0 or D % 4 not in (0, 1):
        raise InvalidParameter(f"{D} is not a discriminant")
    kernel = 1 if D > 0 else -1
    for q, e in factorint(abs(D)) if factors is None else factors:
        if e % 2:
            kernel *= q
    D0 = kernel if kernel % 4 == 1 else 4 * kernel
    s2, rem = divmod(D, D0)
    if rem:
        raise InvalidParameter("internal: fundamental part failed")
    s = math.isqrt(s2)
    assert s * s == s2
    return D0, s


def euler_correction(D0, s, factors=None):
    """(numerator, denominator) of E = prod_{q | s} (q^2 - chi_{D0}(q)) / q^2,
    the exact factor with L(2, chi_{D0 s^2}) = E * L(2, chi_{D0});
    factors: D0 s^2's, if known, for s's primes are among them."""
    num = den = 1
    for q, _ in factorint(s) if factors is None else factors:
        if s % q == 0:
            num *= q * q - kronecker(D0, q)
            den *= q * q
    return num, den


H2_TABLE_MAX = 1 << 22  # entries of the g table: 32 MiB of int64
H2_MEMO_MAX = 4096  # memoized H(2, N): above cusp_pdet5's 1215 distinct D0
H2_READ_AHEAD = 256  # m a rank-5 pass reads ahead, for one H(2, D0) batch
_g = np.ones(1, dtype=np.int64)  # g(0 .. X-1)
_h2 = {}  # N -> H(2, N), oldest first


def cohen_h2_batch(Ns):
    """{N: H(2, N)} for every N of Ns, Cohen's H(2, N) = (theta g)(N) / 120
    for 1 <= N < H2_TABLE_MAX, exact.

    120 sum_N H(2, N) q^N = theta^5 - 20 theta sum_{n odd} sigma_1(n) q^n
    spans Kohnen's plus space M^+_{5/2}(Gamma_0(4)) (Cohen, Math. Ann. 217,
    1975; Kohnen, Math. Ann. 248, 1980); by Jacobi's r_4(n) = 8 sigma_1(n)
    - 32 sigma_1(n/4) it is theta g, g(n) = r_4(n) - 20 [n odd] sigma_1(n),
    g(0) = 1.  |g(n)| <= 28 sigma_1(n) < 28 n (1 + ln n), so the int64 sum
    of the 2 sqrt(N) + 1 terms g(N - k^2) cannot wrap for N <= 34887503849,
    far above the table cap.

    The N of Ns not in the memo are one batch: the table of g grows at
    most once, to min(max(2 X, largest N + 1), H2_TABLE_MAX), by one
    sigma_1 sieve; one gather reads every g(N - k^2), |k| <= isqrt(N), of
    every N, and ``np.add.reduceat`` sums each N's run.  The memo keeps the
    last H2_MEMO_MAX values computed.  A batch holding an N the table
    cannot hold is refused before the sieve runs.
    """
    global _g
    out = {N: _h2.get(N) for N in Ns}
    new = [N for N, h in out.items() if h is None]
    if not new:
        return out
    top = max(new)
    if top >= H2_TABLE_MAX:
        raise InvalidParameter(f"H(2, {top}): the g table holds at most "
                               f"{H2_TABLE_MAX} entries")
    if len(_g) <= top:
        X = min(max(2 * len(_g), top + 1), H2_TABLE_MAX)
        # sigma_1 in place: the d = 1 term of n = d e (d <= e) is n + 1
        g = np.arange(1, X + 1, dtype=np.int64)
        g[1] -= 1
        for d in range(2, math.isqrt(X - 1) + 1):
            g[d * d::d] += np.arange(2 * d, (X - 1) // d + d + 1)
            g[d * d] -= d
        quarter = 32 * g[:(X + 3) // 4]
        g[1::2] *= -12
        g[::2] *= 8
        g[::4] -= quarter
        g[0] = 1
        _g = g
    roots = [math.isqrt(N) for N in new]
    runs = np.array([2 * r + 1 for r in roots])  # k = -isqrt(N) .. isqrt(N)
    starts = np.cumsum(runs) - runs
    idx = np.arange(starts[-1] + runs[-1])  # in place: k, then N - k^2
    idx -= np.repeat(starts + roots, runs)
    idx *= -idx
    idx += np.repeat(new, runs)
    sums = np.add.reduceat(_g[idx], starts)
    for N, total in zip(new, sums.tolist()):
        out[N] = _h2[N] = Fraction(total, 120)
    while len(_h2) > H2_MEMO_MAX:
        del _h2[next(iter(_h2))]
    return out


def cohen_h2(N):
    """Cohen's H(2, N), 1 <= N < H2_TABLE_MAX: a batch of one."""
    return cohen_h2_batch((N,))[N]


def bernoulli_2(D0):
    """B_{2,chi} = -2 L(-1, chi) = -2 H(2, D0) for chi = chi_{D0}, exact.

    D0 > 0 is fundamental or 1; D0 = 1 gives 1/6.
    """
    return -2 * cohen_h2(D0)


@dataclass(slots=True)
class EisResult:
    """One Eisenstein Fourier coefficient, as an exact rational value."""

    m: int
    value: Fraction
    l_fund: int
    m0: int = 0
    f: int = 1

    def midpoint(self):
        """The value (kept: the cusp_pdet5 benchmark workload reads it)."""
        return self.value

    def radius(self):
        """Always 0 (kept: the cusp_pdet5 benchmark workload reads it)."""
        return 0

    def sign(self):
        return (self.value > 0) - (self.value < 0)


def coefficients(lattice, ms):
    """An iterator of one EisResult per m of ms, each built as it is read,
    so a range streams: theta coefficients of a positive-definite lattice
    (``q_positive_definite``), else q_L (``q_L_hilbert``, ``q_L_siegel``)."""
    if lattice.rank not in (4, 5):
        raise InvalidParameter(f"coefficient formulas need rank 4 or 5, "
                               f"got {lattice.rank}")
    sign = 1 if lattice.is_positive_definite() else -1
    return (_q_rank4 if lattice.rank == 4 else _q_rank5)(lattice, ms, sign)


def q_L_hilbert(lattice, m):
    """Eisenstein coefficient for a signature-(2,2) even lattice.

    -4 pi^2 m sigma_{-1}(m, chi_{4 det}) / (sqrt|det| L(2, chi_{4 det}))
    times the product of local densities at l | 2 det; negative whenever
    every local density is positive.
    """
    if lattice.rank != 4:
        raise InvalidParameter(f"q_L_hilbert needs rank 4, got {lattice.rank}")
    return next(coefficients(lattice, [m]))


def q_L_siegel(lattice, m):
    """Eisenstein coefficient for the rank-5 family (negative sign)."""
    if lattice.rank != 5:
        raise InvalidParameter(f"q_L_siegel needs rank 5, got {lattice.rank}")
    return next(coefficients(lattice, [m]))


def q_positive_definite(lattice, m, tol=None):
    """Eisenstein coefficient of the theta series of a definite lattice of
    rank 4 or 5: it depends only on the genus, and its sign is positive.
    tol is ignored, for callers written when the L-value was an interval.
    """
    return next(coefficients(lattice, [m]))


def _densities(lattice, bad, ms):
    """(m, num, den) per m of ms: num / den = prod_{l in bad} of
    ``hanke_density(l, lattice, m)``, computed once per key (l, v_l(m),
    m / l^v mod l, or mod 8 at l = 2), all that its levels read."""
    memo = {}
    for m in ms:
        if m < 1:
            raise InvalidParameter("m must be positive")
        num = den = 1
        for ell in bad:
            v = _valuation(m, ell)
            key = ell, v, m // ell ** v % (8 if ell == 2 else ell)
            delta = memo.get(key)
            if delta is None:
                delta = memo[key] = hanke_density(ell, lattice, m)
            num *= delta.numerator
            den *= delta.denominator
        yield m, num, den


def _q_rank4(lattice, ms, sign):
    # D = 4|det| = D0 s^2, so sqrt|det| = s sqrt(D0) / 2 and
    # pi^2 / (sqrt|det| L(2, chi_D)) = 2 D0 / (s E B_{2,chi_{D0}})
    det = lattice.det()
    D = 4 * abs(det)
    D0, s = fundamental_part(D)
    (E_num, E_den), B = euler_correction(D0, s), bernoulli_2(D0)
    num = sign * 8 * D0 * E_den * B.denominator
    den = s * E_num * B.numerator
    chi = partial(kronecker, D)
    for m, dn, dd in _densities(lattice, primefactors(2 * det), ms):
        sig = sigma_s(m, -1, chi)
        yield EisResult(m=m, value=Fraction(num * m * sig.numerator * dn,
                                            den * sig.denominator * dd),
                        l_fund=D0, m0=m, f=1)


def _q_rank5(lattice, ms, sign):
    # The character discriminant is 2 m0 |det|; calibration against the
    # one-class genera D5 and A5 (theta = Eisenstein exactly) pins the
    # positive sign.  Sources that work with (L, -Q) print the same
    # discriminant with a minus sign.  The coefficient is
    # sign (16/3) pi^2 / zeta(4) m S prod sqrt(2m/|det|) L(2, chi_D), and
    # with m = m0 f^2, D = D0 s^2 the root is f s sqrt(D0) / |det|, so
    # pi^-2 sqrt(2m/|det|) L(2, chi_D) = f s E B_{2,chi_{D0}} / (D0 |det|),
    # and B_{2,chi_{D0}} = -2 H(2, D0).  m0 and f come from factorint(m),
    # D's factors from m0's and 2|det|'s.
    det = lattice.det()
    bad = dict(factorint(2 * abs(det)))
    num0, den0 = sign * -960, abs(det)
    for ell in bad:  # each density comes as delta / (1 - ell^-4)
        num0 *= ell ** 4
        den0 *= ell ** 4 - 1

    def read():  # (m, m0, f, D0, num, den): the value is num H(2, D0) / den
        for m, dn, dd in _densities(lattice, bad, ms):
            D_factors, fm = dict(bad), factorint(m)
            for q, e in fm:  # a prime of 2 det stays in m0
                D_factors[q] = D_factors.get(q, 0) + (e if q in bad else e % 2)
            f = math.prod(q ** (e // 2) for q, e in fm if q not in bad)
            m0 = m // (f * f)
            D0, s = fundamental_part(2 * m0 * abs(det), D_factors.items())
            E_num, E_den = euler_correction(D0, s, D_factors.items())
            mid = middle_divisor_sum(m0, f, det) if f > 1 else 1
            yield (m, m0, f, D0, num0 * m * f * mid.numerator * dn * s * E_num,
                   den0 * mid.denominator * dd * D0 * E_den)

    # H2_READ_AHEAD rows at a time, so that one batch fills their D0; a D0
    # past the g table, or an m that read() refuses, raises at its own m,
    # after the rows before it
    rows = read()
    while True:
        chunk, error = [], None
        try:
            for row in itertools.islice(rows, H2_READ_AHEAD):
                chunk.append(row)
        except Exception as exc:
            error = exc
        h2 = cohen_h2_batch(row[3] for row in chunk if row[3] < H2_TABLE_MAX)
        for m, m0, f, D0, num, den in chunk:
            H = h2[D0] if D0 in h2 else cohen_h2(D0)
            yield EisResult(m=m, value=Fraction(num * H.numerator,
                                                den * H.denominator),
                            l_fund=D0, m0=m0, f=f)
        if error is not None:
            raise error
        if len(chunk) < H2_READ_AHEAD:
            return


def middle_divisor_sum(m0, f, det):
    """sum_{d | f} mu(d) chi_D(d) d^-2 sigma_{-3}(f/d), exact.

    That is sum mu(d) chi(d) d sigma_3(f/d) / f^3, and since chi_D is
    completely multiplicative it is the product over q^e || f of
    sigma_3(q^e) - chi(q) q sigma_3(q^(e-1)), over f^3.
    """
    D = 2 * m0 * abs(det)
    total = 1
    for q, e in factorint(f):
        lower = sum(q ** (3 * i) for i in range(e))  # sigma_3(q^(e-1))
        total *= lower + q ** (3 * e) - kronecker(D, q) * q * lower
    return Fraction(total, f ** 3)


def ratio_bound(case, p, idx_sqrt=None, vp_m=0, index_is_p=False):
    """Upper bound for q_{L'''}(m) / (-q_L(m)), exact rational.

    case 'superspecial' or 'hilbert' gives 1/(p-1); 'supergeneric'
    (Siegel) gives 2/(p^2-1).  With idx_sqrt (the square root of the
    p-part of |L'''^dual / L'''|), the sublattice bounds apply:
    p coprime to m gives 2/(idx_sqrt (1 - p^-2)); v_p(m) = 1 gives
    2p/(idx_sqrt (1 - p^-1)), improving to 4/(p^2-1) for a superspecial
    point with index p.
    """
    if idx_sqrt is None:
        if case in ("superspecial", "hilbert"):
            return Fraction(1, p - 1)
        if case == "supergeneric":
            return Fraction(2, p * p - 1)
        raise InvalidParameter(f"unknown case {case!r}")
    if vp_m == 0:
        return Fraction(2 * p * p, idx_sqrt * (p * p - 1))
    if vp_m == 1:
        if case == "superspecial" and index_is_p:
            return Fraction(4, p * p - 1)
        return Fraction(2 * p * p, idx_sqrt * (p - 1))
    raise InvalidParameter("bounds cover v_p(m) <= 1 only")

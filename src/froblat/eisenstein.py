"""Dirichlet L-values and exact Eisenstein Fourier coefficients.

Every Eisenstein coefficient is one exact Fraction, built from an integer
numerator and denominator multiplied factor by factor.  Its character
discriminant D is positive (4|det| in rank 4, 2 m0 |det| in rank 5), and
for D = D0 s^2 > 0 with D0 fundamental (or 1) and conductor f = D0,

    L(2, chi_D) = E pi^2 B_{2,chi} / f^(3/2)

(Washington, Introduction to Cyclotomic Fields, Thm 4.2), with the Euler
correction E and the generalized Bernoulli number B_{2,chi} of
chi = chi_{D0} exact; B_{2,chi} = -2 H(2, D0) is read from Cohen's
numbers H(2, N).  So pi and every square root cancel from the
coefficient formulas.  The only interval left is dirichlet_L2, whose
D < 0 branch sums the series in floats with a proven rounding bound.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .padics import factorint, primefactors
from .quadforms import hanke_density, kronecker, sigma_s


def fundamental_part(D):
    """(D0, s) with D = D0 s^2 and D0 a fundamental discriminant (or 1)."""
    if D == 0 or D % 4 not in (0, 1):
        raise InvalidParameter(f"{D} is not a discriminant")
    kernel = 1 if D > 0 else -1
    for q, e in factorint(abs(D)):
        if e % 2:
            kernel *= q
    D0 = kernel if kernel % 4 == 1 else 4 * kernel
    s2, rem = divmod(D, D0)
    if rem:
        raise InvalidParameter("internal: fundamental part failed")
    s = math.isqrt(s2)
    assert s * s == s2
    return D0, s


def euler_correction(D0, s):
    """E = prod_{q | s} (q^2 - chi_{D0}(q)) / q^2, the exact factor with
    L(2, chi_{D0 s^2}) = E * L(2, chi_{D0})."""
    num = den = 1
    for q in primefactors(s):
        num *= q * q - kronecker(D0, q)
        den *= q * q
    return Fraction(num, den)


# chi_{-4}, chi_8 and chi_{-8} on n mod 8
_CHI_2 = {-4: [0, 1, 0, -1, 0, 1, 0, -1], 8: [0, 1, 0, -1, 0, -1, 0, 1],
          -8: [0, 1, 0, 1, 0, -1, 0, -1]}


def _chi_table(D0):
    """chi_{D0}(n) for 0 <= n < |D0|, D0 fundamental, as an int8 vector.

    chi_{D0} is the product of the prime-discriminant characters of D0:
    the Legendre symbol mod q for each odd q | D0, times chi_{-4},
    chi_8 or chi_{-8} on n mod 8 for the part D0 / prod q* (q* = +-q,
    q* = 1 mod 4).
    """
    n = np.arange(abs(D0))
    table = np.ones(abs(D0), dtype=np.int8)
    odd = 1
    for q in primefactors(D0):
        if q == 2:
            continue
        legendre = -np.ones(q, dtype=np.int8)
        legendre[np.arange(1, q) ** 2 % q] = 1
        legendre[0] = 0
        table *= legendre[n % q]
        odd *= q if q % 4 == 1 else -q
    if D0 != odd:
        table *= np.array(_CHI_2[D0 // odd], dtype=np.int8)[n % 8]
    return table


H2_TABLE_MAX = 1 << 22  # entries of the g table: 32 MiB of int64
_g = np.ones(1, dtype=np.int64)  # g(0 .. X-1)


def cohen_h2(N):
    """Cohen's H(2, N) = (theta g)(N) / 120 for 1 <= N < H2_TABLE_MAX, exact.

    120 sum_N H(2, N) q^N = theta^5 - 20 theta sum_{n odd} sigma_1(n) q^n
    spans Kohnen's plus space M^+_{5/2}(Gamma_0(4)) (Cohen, Math. Ann. 217,
    1975; Kohnen, Math. Ann. 248, 1980); by Jacobi's r_4(n) = 8 sigma_1(n)
    - 32 sigma_1(n/4) it is theta g, g(n) = r_4(n) - 20 [n odd] sigma_1(n),
    g(0) = 1.  |g(n)| <= 28 sigma_1(n) < 28 n (1 + ln n), so the int64 sum
    of the 2 sqrt(N) + 1 terms g(N - k^2) cannot wrap for N <= 34887503849,
    far above the table cap.  The memoized table of g grows to
    min(max(2 X, N + 1), H2_TABLE_MAX) by one sigma_1 sieve; an N it cannot
    hold is refused before the sieve runs.
    """
    global _g
    if N >= H2_TABLE_MAX:
        raise InvalidParameter(f"H(2, {N}): the g table holds at most "
                               f"{H2_TABLE_MAX} entries")
    if len(_g) <= N:
        X = min(max(2 * len(_g), N + 1), H2_TABLE_MAX)
        sig = np.zeros(X, dtype=np.int64)
        for d in range(1, math.isqrt(X - 1) + 1):  # n = d e with d <= e
            sig[d * d::d] += np.arange(2 * d, (X - 1) // d + d + 1)
            sig[d * d] -= d
        g = 8 * sig
        g[1::2] -= 20 * sig[1::2]
        g[::4] -= 32 * sig[:(X + 3) // 4]
        g[0] = 1
        _g = g
    k = np.arange(1, math.isqrt(N) + 1)
    return Fraction(int(_g[N]) + 2 * int(_g[N - k * k].sum()), 120)


@lru_cache(maxsize=None)
def bernoulli_2(D0):
    """B_{2,chi} = -2 L(-1, chi) = -2 H(2, D0) for chi = chi_{D0}, exact.

    D0 > 0 is fundamental or 1; D0 = 1 gives 1/6.
    """
    return -2 * cohen_h2(D0)


L2_TOL = 1e-10  # the Abel tail bound the D < 0 sum is truncated at


def _odd_l_value(D0):
    """Exact bounds (lo, hi) on L(2, chi_{D0}), D0 < 0 fundamental.

    Sums N >= 1000 terms chi(n)/n^2 in float64, with N large enough that
    the Abel tail bound 2|D0| / (N+1)^2 (partial sums of chi are bounded
    by |D0|) is below L2_TOL, and widens by that bound plus the
    rounding bound: each term is within relative 2u of chi(n)/n^2 and
    any order of the N-1 additions errs by at most gamma_{N-1} sum|terms|
    <= gamma_{N-1} zeta(2) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2); together at most gamma_{N+1} zeta(2), with
    gamma_k = k u / (1 - k u) and u = 2^-53.
    """
    aD = abs(D0)
    N = max(1000, math.isqrt(int(2 * aD / L2_TOL)) + 1)
    table = _chi_table(D0).astype(np.float64)
    total = 0.0
    chunk = 1 << 18
    for start in range(1, N + 1, chunk):
        stop = min(N, start + chunk - 1)
        n = np.arange(start, stop + 1, dtype=np.float64)
        chi = np.resize(np.roll(table, -(start % aD)), stop - start + 1)
        total += float(np.sum(chi / (n * n)))
    gamma = Fraction(N + 1, 2 ** 53 - (N + 1))
    radius = Fraction(2 * aD, (N + 1) ** 2) + gamma * Fraction(1645, 1000)
    return Fraction(total) - radius, Fraction(total) + radius


# pi lies strictly between PI_LO and PI_LO + 10^-20
PI_LO = Fraction(314159265358979323846, 10 ** 20)


def dirichlet_L2(D):
    """Float interval (lo, hi) enclosing L(2, chi_D), rounded outward.

    D > 0: E pi^2 B_{2,chi} / (D0 sqrt D0) enclosed in Fractions, from
    PI_LO < pi < PI_LO + 10^-20 and r <= 10^20 sqrt D0 < r + 1 for
    r = isqrt(D0 10^40).
    D < 0: the direct sum truncated where the tail bound reaches L2_TOL.
    """
    D0, s = fundamental_part(D)
    E = euler_correction(D0, s)
    if D > 0:
        x = E * bernoulli_2(D0) * 10 ** 20 / D0
        r = math.isqrt(D0 * 10 ** 40)
        lo, hi = sorted((x * PI_LO ** 2 / (r + 1),
                         x * (PI_LO + Fraction(1, 10 ** 20)) ** 2 / r))
    else:
        lo, hi = _odd_l_value(D0)
        lo, hi = lo * E, hi * E
    return (math.nextafter(float(lo), -math.inf),
            math.nextafter(float(hi), math.inf))


@dataclass
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


def _split_square_part(m, bad):
    """m = m0 f^2 with gcd(f, bad) = 1 and v_q(m0) <= 1 off bad."""
    f = 1
    m0 = m
    for q, e in factorint(m):
        if bad % q != 0 and e >= 2:
            k = e // 2
            f *= q ** k
            m0 //= q ** (2 * k)
    return m0, f


def q_L_hilbert(lattice, m):
    """Eisenstein coefficient for a signature-(2,2) even lattice.

    -4 pi^2 m sigma_{-1}(m, chi_{4 det}) / (sqrt|det| L(2, chi_{4 det}))
    times the product of local densities at l | 2 det; negative whenever
    every local density is positive.
    """
    if lattice.rank != 4:
        raise InvalidParameter(f"q_L_hilbert needs rank 4, got {lattice.rank}")
    return _q_rank4(lattice, m, sign=-1)


def q_L_siegel(lattice, m):
    """Eisenstein coefficient for the rank-5 family (negative sign)."""
    if lattice.rank != 5:
        raise InvalidParameter(f"q_L_siegel needs rank 5, got {lattice.rank}")
    return _q_rank5(lattice, m, sign=-1)


def q_positive_definite(lattice, m, tol=None):
    """Eisenstein coefficient of the theta series of a definite lattice.

    Depends only on the genus; positive sign.  Rank 4 uses the
    signature-(2,2) shape, rank 5 the Siegel shape.  tol is accepted and
    ignored, for callers written when the L-value was an interval.
    """
    if lattice.rank == 4:
        return _q_rank4(lattice, m, sign=+1)
    if lattice.rank == 5:
        return _q_rank5(lattice, m, sign=+1)
    raise InvalidParameter("only rank 4 and 5 coefficient formulas")


def _q_rank4(lattice, m, sign):
    # D = 4|det| = D0 s^2, so sqrt|det| = s sqrt(D0) / 2 and
    # pi^2 / (sqrt|det| L(2, chi_D)) = 2 D0 / (s E B_{2,chi_{D0}})
    det = lattice.det()
    D = 4 * abs(det)
    sig = sigma_s(m, -1, lambda d: kronecker(D, d))
    num, den = sign * 8 * m * sig.numerator, sig.denominator
    for ell in primefactors(2 * det):
        delta = hanke_density(ell, lattice, m)
        num *= delta.numerator
        den *= delta.denominator
    D0, s = fundamental_part(D)
    E, B = euler_correction(D0, s), bernoulli_2(D0)
    num *= D0 * E.denominator * B.denominator
    den *= s * E.numerator * B.numerator
    return EisResult(m=m, value=Fraction(num, den), l_fund=D0, m0=m, f=1)


def _q_rank5(lattice, m, sign):
    # The character discriminant is 2 m0 |det|; calibration against the
    # one-class genera D5 and A5 (theta = Eisenstein exactly) pins the
    # positive sign.  Sources that work with (L, -Q) print the same
    # discriminant with a minus sign.  The coefficient is
    # sign (16/3) pi^2 / zeta(4) m S prod sqrt(2m/|det|) L(2, chi_D), and
    # with m = m0 f^2, D = D0 s^2 the root is f s sqrt(D0) / |det|, so
    # pi^-2 sqrt(2m/|det|) L(2, chi_D) = f s E B_{2,chi_{D0}} / (D0 |det|).
    det = lattice.det()
    bad = 2 * abs(det)
    m0, f = _split_square_part(m, bad)
    D = 2 * m0 * abs(det)
    divisor_sum = middle_divisor_sum(m0, f, det)
    num = sign * 480 * m * f * divisor_sum.numerator
    den = abs(det) * divisor_sum.denominator
    for ell in primefactors(bad):  # delta / (1 - ell^-4)
        delta = hanke_density(ell, lattice, m)
        num *= delta.numerator * ell ** 4
        den *= delta.denominator * (ell ** 4 - 1)
    D0, s = fundamental_part(D)
    E, B = euler_correction(D0, s), bernoulli_2(D0)
    num *= s * E.numerator * B.numerator
    den *= D0 * E.denominator * B.denominator
    return EisResult(m=m, value=Fraction(num, den), l_fund=D0, m0=m0, f=f)


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

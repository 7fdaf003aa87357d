"""Dirichlet L-values and exact Eisenstein Fourier coefficients.

Every Eisenstein coefficient is an exact Fraction.  Its character
discriminant D is positive (4|det| in rank 4, 2 m0 |det| in rank 5), and
for D = D0 s^2 > 0 with D0 fundamental (or 1) and conductor f = D0,

    L(2, chi_D) = E pi^2 B_{2,chi} / f^(3/2)

(Washington, Introduction to Cyclotomic Fields, Thm 4.2), with the Euler
correction E and the generalized Bernoulli number B_{2,chi} of
chi = chi_{D0} exact.  So pi and every square root cancel from the
coefficient formulas.  The only interval left is dirichlet_L2, whose
D < 0 branch sums the series in floats with a proven rounding bound.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter
from .padics import factorint, primefactors
from .quadforms import kronecker, local_density, sigma_s


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
    """E with L(2, chi_{D0 s^2}) = E * L(2, chi_{D0}), exact."""
    E = Fraction(1)
    for q in primefactors(s):
        if D0 % q != 0:
            E *= 1 - Fraction(kronecker(D0, q), q * q)
    return E


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


@lru_cache(maxsize=None)
def bernoulli_2(D0):
    """B_{2,chi} = f sum_{a=1}^{f} chi(a) B_2(a/f) for chi = chi_{D0}, exact.

    D0 > 0 is fundamental or 1, f = D0, B_2(x) = x^2 - x + 1/6; D0 = 1
    gives 1/6.  The integer terms 6 a (a - f) + f^2 lie in [-f^2/2, f^2],
    so int64 partial sums over chunks of (2^63 - 1) // (2 f^2) terms
    cannot wrap; the chunk sums are added as Python ints.
    """
    f = D0
    step = (2 ** 63 - 1) // (2 * f * f)
    if step < 1:
        raise InvalidParameter(f"conductor {f} too large for B_2 tables")
    chi = np.roll(_chi_table(D0), -1)  # chi(a) for a = 1..f
    total = 0
    for start in range(0, f, step):
        a = np.arange(start + 1, min(f, start + step) + 1, dtype=np.int64)
        terms = 6 * (a * (a - f)) + f * f
        total += int(np.dot(chi[start:start + len(a)].astype(np.int64),
                            terms))
    return Fraction(total, 6 * f)


def _odd_l_value(D0, tol):
    """Exact bounds (lo, hi) on L(2, chi_{D0}), D0 < 0 fundamental.

    Sums N terms chi(n)/n^2 in float64 and widens by the Abel tail bound
    2|D0| / (N+1)^2 (partial sums of chi are bounded by |D0|) plus the
    rounding bound: each term is within relative 2u of chi(n)/n^2 and
    any order of the N-1 additions errs by at most gamma_{N-1} sum|terms|
    <= gamma_{N-1} zeta(2) (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 4.2); together at most gamma_{N+1} zeta(2), with
    gamma_k = k u / (1 - k u) and u = 2^-53.
    """
    aD = abs(D0)
    N = max(1000, math.isqrt(int(2 * aD / tol)) + 1)
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


def dirichlet_L2(D, tol=1e-10):
    """Float interval (lo, hi) enclosing L(2, chi_D), rounded outward.

    D > 0: E pi^2 B_{2,chi} / f^(3/2) in mpmath interval arithmetic.
    D < 0: the direct sum truncated where the tail bound reaches tol.
    """
    D0, s = fundamental_part(D)
    E = euler_correction(D0, s)
    if D > 0:
        from mpmath import iv
        x = E * bernoulli_2(D0)
        v = iv.pi ** 2 * iv.mpf(x.numerator) / x.denominator \
            / (D0 * iv.sqrt(D0))
        lo, hi = float(v.a), float(v.b)
    else:
        lo, hi = _odd_l_value(D0, tol)
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
    local: dict = field(default_factory=dict)

    def interval(self):
        return (self.value, self.value)

    def midpoint(self):
        return self.value

    def radius(self):
        return 0

    def sign(self):
        return (self.value > 0) - (self.value < 0)

    def exact_ratio(self, other):
        """self / other, exact."""
        if other.value == 0:
            raise ZeroDivisionError("ratio against a vanishing coefficient")
        return self.value / other.value


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
    chi = lambda d: kronecker(D, d)
    sig = sigma_s(m, -1, chi)
    deltas = {}
    prod = Fraction(1)
    for ell in primefactors(2 * det):
        deltas[ell] = local_density(ell, lattice, m)
        prod *= deltas[ell]
    D0, s = fundamental_part(D)
    value = Fraction(sign * 8 * m * D0, s) * sig * prod \
        / (euler_correction(D0, s) * bernoulli_2(D0))
    return EisResult(m=m, value=value, l_fund=D0, m0=m, f=1, local=deltas)


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
    deltas = {}
    prod = Fraction(1)
    for ell in primefactors(bad):
        deltas[ell] = local_density(ell, lattice, m)
        prod *= deltas[ell] / (1 - Fraction(1, ell ** 4))
    D0, s = fundamental_part(D)
    value = Fraction(sign * 480 * m * f * s, D0 * abs(det)) * divisor_sum \
        * prod * euler_correction(D0, s) * bernoulli_2(D0)
    return EisResult(m=m, value=value, l_fund=D0, m0=m0, f=f, local=deltas)


def middle_divisor_sum(m0, f, det):
    """sum_{d | f} mu(d) chi_D(d) d^-2 sigma_{-3}(f/d), exact.

    Only squarefree d have mu(d) != 0; they are built from the primes
    of f, each with mu(d) = (-1)^(number of primes).
    """
    D = 2 * m0 * abs(det)
    squarefree = [(1, 1)]
    for q in primefactors(f):
        squarefree += [(d * q, -mu) for d, mu in squarefree]
    total = Fraction(0)
    for d, mu in squarefree:
        total += mu * kronecker(D, d) * Fraction(1, d * d) \
            * sigma_s(f // d, -3)
    return total


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


def check_ratio(q_sub, q_full, bound):
    """Assert computed q_sub / (-q_full) <= bound, exactly."""
    ratio = q_sub.exact_ratio(q_full)
    return -ratio <= bound

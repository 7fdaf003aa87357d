"""Dirichlet L-values with rigorous tails and Eisenstein Fourier coefficients.

Every coefficient is stored as

    rational * pi^pi_power * sqrt(sqrt_arg) * L(2, chi_D0)^l_power * E,

with the rational, sqrt argument, and Euler correction E exact, and only
the L-value carried as an interval.  Writing the character discriminant
as D = D0 * s^2 with D0 fundamental turns every quotient of coefficients
with the same D0 into an exact rational times the square root of an exact
rational, which is what the ratio bounds compare against.

L(2, chi) for non-principal chi is summed directly with the Abel tail
bound 2|D| / (N+1)^2 (partial sums of a period-|D| character with zero
period sum are bounded by |D|); the principal case is an exact Euler
product against zeta(2).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np
import sympy

from .errors import InvalidParameter
from .quadforms import kronecker, local_density, sigma_s

ZETA2 = math.pi ** 2 / 6
ZETA4 = math.pi ** 4 / 90


def fundamental_part(D):
    """(D0, s) with D = D0 s^2 and D0 a fundamental discriminant (or 1)."""
    if D == 0 or D % 4 not in (0, 1):
        raise InvalidParameter(f"{D} is not a discriminant")
    fac = sympy.factorint(abs(D))
    kernel = 1 if D > 0 else -1
    for q, e in fac.items():
        if e % 2:
            kernel *= q
    D0 = kernel if kernel % 4 == 1 else 4 * kernel
    s2, rem = divmod(D, D0)
    if rem:
        raise InvalidParameter("internal: fundamental part failed")
    s = sympy.integer_nthroot(s2, 2)[0]
    assert s * s == s2
    return int(D0), int(s)


def euler_correction(D0, s):
    """E with L(2, chi_{D0 s^2}) = E * L(2, chi_{D0}), exact."""
    E = Fraction(1)
    for q in sympy.primefactors(s):
        if D0 % q != 0:
            E *= 1 - Fraction(kronecker(D0, q), q * q)
    return E


@lru_cache(maxsize=None)
def _l_value_fundamental(D0, tol):
    """Interval for L(2, chi_{D0}), D0 fundamental or 1 (cached)."""
    if D0 == 1:
        v = ZETA2
        return (v - 5e-15, v + 5e-15)
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
    tail = 2.0 * aD / (N + 1) ** 2
    slack = 1e-13 + 1e-16 * N / 1e6
    return (total - tail - slack, total + tail + slack)


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
    for q in sympy.primefactors(D0):
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


def dirichlet_L2(D, tol=1e-10):
    """Interval enclosing sum chi_D(n)/n^2; exact Euler part split off."""
    D0, s = fundamental_part(D)
    E = float(euler_correction(D0, s))
    lo, hi = _l_value_fundamental(D0, tol)
    return (lo * E, hi * E)


@dataclass
class EisResult:
    """One Eisenstein Fourier coefficient in exact-symbolic form."""

    m: int
    rational: Fraction
    pi_power: int
    sqrt_arg: Fraction
    l_fund: int
    l_euler: Fraction
    l_power: int
    l_interval: tuple
    m0: int = 0
    f: int = 1
    local: dict = field(default_factory=dict)

    def interval(self):
        if self.rational == 0:
            return (0.0, 0.0)
        base = float(self.rational) * math.pi ** self.pi_power \
            * math.sqrt(self.sqrt_arg)
        lo, hi = self.l_interval
        if self.l_power == -1:
            lo, hi = 1.0 / hi, 1.0 / lo
        elif self.l_power == 0:
            lo = hi = 1.0
        lo *= float(self.l_euler) ** self.l_power
        hi *= float(self.l_euler) ** self.l_power
        cands = (base * lo, base * hi)
        return (min(cands), max(cands))

    def midpoint(self):
        lo, hi = self.interval()
        return (lo + hi) / 2

    def radius(self):
        lo, hi = self.interval()
        return (hi - lo) / 2

    def sign(self):
        if self.rational == 0:
            return 0
        return 1 if self.rational > 0 else -1

    def exact_ratio(self, other):
        """self / other as exact (rational, sqrt of rational) data.

        Requires matching fundamental characters and pi powers, so the
        L-value interval cancels; returns a Fraction when the square
        root collapses, else raises.
        """
        if self.l_fund != other.l_fund or self.l_power != other.l_power:
            raise InvalidParameter("characters differ; ratio not exact")
        if self.pi_power != other.pi_power:
            raise InvalidParameter("pi powers differ; ratio not exact")
        if other.rational == 0:
            raise ZeroDivisionError("ratio against a vanishing coefficient")
        if self.rational == 0:
            return Fraction(0)
        rat = (self.rational / other.rational
               * (self.l_euler / other.l_euler) ** self.l_power)
        arg = self.sqrt_arg / other.sqrt_arg
        root = _sqrt_fraction(arg)
        if root is None:
            raise InvalidParameter("square root of ratio is irrational")
        return rat * root


def _sqrt_fraction(x):
    n, d = x.numerator, x.denominator
    rn = math.isqrt(n)
    rd = math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _split_square_part(m, bad):
    """m = m0 f^2 with gcd(f, bad) = 1 and v_q(m0) <= 1 off bad."""
    f = 1
    m0 = m
    for q, e in sympy.factorint(m).items():
        if bad % q != 0 and e >= 2:
            k = e // 2
            f *= q ** k
            m0 //= q ** (2 * k)
    return m0, f


def q_L_hilbert(lattice, m, tol=1e-10):
    """Eisenstein coefficient for a signature-(2,2) even lattice.

    -4 pi^2 m sigma_{-1}(m, chi_{4 det}) / (sqrt|det| L(2, chi_{4 det}))
    times the product of local densities at l | 2 det; negative whenever
    every local density is positive.
    """
    return _q_rank4(lattice, m, tol, sign=-1)


def q_L_siegel(lattice, m, tol=1e-10):
    """Eisenstein coefficient for the rank-5 family (negative sign)."""
    return _q_rank5(lattice, m, tol, sign=-1)


def q_positive_definite(lattice, m, tol=1e-10):
    """Eisenstein coefficient of the theta series of a definite lattice.

    Depends only on the genus; positive sign.  Rank 4 uses the
    signature-(2,2) shape, rank 5 the Siegel shape.
    """
    if lattice.rank == 4:
        return _q_rank4(lattice, m, tol, sign=+1)
    if lattice.rank == 5:
        return _q_rank5(lattice, m, tol, sign=+1)
    raise InvalidParameter("only rank 4 and 5 coefficient formulas")


def _q_rank4(lattice, m, tol, sign):
    det = lattice.det()
    D = 4 * abs(det)
    chi = lambda d: kronecker(D, d)
    sig = sigma_s(m, -1, chi)
    deltas = {}
    prod = Fraction(1)
    for ell in sorted(set(sympy.primefactors(2 * det))):
        deltas[ell] = local_density(ell, lattice, m)
        prod *= deltas[ell]
    D0, s = fundamental_part(D)
    rational = Fraction(sign) * 4 * m * sig * prod
    return EisResult(
        m=m, rational=rational, pi_power=2,
        sqrt_arg=Fraction(1, abs(det)),
        l_fund=D0, l_euler=euler_correction(D0, s), l_power=-1,
        l_interval=_l_value_fundamental(D0, tol),
        m0=m, f=1, local=deltas)


def _q_rank5(lattice, m, tol, sign):
    # The character discriminant is 2 m0 |det|; calibration against the
    # one-class genera D5 and A5 (theta = Eisenstein exactly) pins the
    # positive sign, matching r(m) to the L-value radius.  Sources that
    # work with (L, -Q) print the same discriminant with a minus sign.
    det = lattice.det()
    bad = 2 * abs(det)
    m0, f = _split_square_part(m, bad)
    D = 2 * m0 * abs(det)
    divisor_sum = middle_divisor_sum(m0, f, det)
    deltas = {}
    prod = Fraction(1)
    for ell in sorted(set(sympy.primefactors(bad))):
        deltas[ell] = local_density(ell, lattice, m)
        prod *= deltas[ell] / (1 - Fraction(1, ell ** 4))
    D0, s = fundamental_part(D)
    # zeta(4) = pi^4 / 90 folds into the rational part with pi^-2
    rational = Fraction(sign) * Fraction(16 * 90, 3) * m * divisor_sum * prod
    return EisResult(
        m=m, rational=rational, pi_power=-2,
        sqrt_arg=Fraction(2 * m, abs(det)),
        l_fund=D0, l_euler=euler_correction(D0, s), l_power=+1,
        l_interval=_l_value_fundamental(D0, tol),
        m0=m0, f=f, local=deltas)


def middle_divisor_sum(m0, f, det):
    """sum_{d | f} mu(d) chi_D(d) d^-2 sigma_{-3}(f/d), exact."""
    D = 2 * m0 * abs(det)
    total = Fraction(0)
    for d in sympy.divisors(f):
        mu = sympy.mobius(d)
        if mu:
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

"""Test oracle: Eisenstein coefficients one m at a time.

The per-m form of ``eisenstein._q_rank4`` and ``_q_rank5``: each m
trial-divides its own discriminant, walks Hanke's reduction for every
bad prime, sums its own H(2, D0) and builds the value from Fractions.
``sigma_s`` and the middle divisor sum run over the divisors one by one,
and H(2, N) is summed in Python from the g table, so none of the
range pass's shortcuts (merged factorizations, the density memo) is in
the oracle.  ``l_value`` is the reference L(2, chi_D), and ``_chi_table``
sieves the character table chi_{D0} that the tests' direct sum for
B_{2,chi} reads.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from froblat import eisenstein
from froblat.eisenstein import EisResult, fundamental_part
from froblat.padics import factorint, primefactors
from froblat.quadforms import hanke_density, kronecker


def sigma_s(m, s, chi=None):
    """sum_{d | m} chi(d) d^s over the divisors of m."""
    divisors = [1]
    for q, e in factorint(m):
        divisors = [d * q ** i for d in divisors for i in range(e + 1)]
    e = abs(s)
    total = sum((1 if chi is None else chi(d)) * (m // d if s < 0 else d) ** e
                for d in divisors)
    return Fraction(total, m ** e if s < 0 else 1)


def h2(N):
    """H(2, N) = (g(N) + 2 sum_k g(N - k^2)) / 120 by one gather."""
    eisenstein.cohen_h2(N)  # grows the g table to N
    g = eisenstein._g
    return Fraction(int(g[N]) + 2 * sum(int(g[N - k * k])
                                        for k in range(1, math.isqrt(N) + 1)),
                    120)


def euler_correction(D0, s):
    num = den = 1
    for q in primefactors(s):
        num *= q * q - kronecker(D0, q)
        den *= q * q
    return Fraction(num, den)


def bernoulli_2(D0):
    return -2 * h2(D0)


def l2_over_pi2(D):
    """(r, D0) with L(2, chi_D) = pi^2 r / D0^(3/2) exactly, D > 0:
    r = E B_{2,chi_{D0}} from the package's own fundamental_part,
    euler_correction and bernoulli_2."""
    D0, s = fundamental_part(D)
    E = Fraction(*eisenstein.euler_correction(D0, s))
    return E * eisenstein.bernoulli_2(D0), D0


def l_value(D):
    """L(2, chi_D) at mpmath's working precision: the exact value for
    D > 0, and for D < 0, where the package computes none, mpmath's sum."""
    if D < 0:
        return mpmath.dirichlet(2, [kronecker(D, n) for n in range(-D)])
    r, D0 = l2_over_pi2(D)
    return mpmath.pi ** 2 * r.numerator / (r.denominator * D0
                                           * mpmath.sqrt(D0))


def split_square_part(m, bad):
    """m = m0 f^2 with gcd(f, bad) = 1 and v_q(m0) <= 1 off bad."""
    f = 1
    m0 = m
    for q, e in factorint(m):
        if bad % q != 0 and e >= 2:
            k = e // 2
            f *= q ** k
            m0 //= q ** (2 * k)
    return m0, f


def middle_divisor_sum(m0, f, det):
    D = 2 * m0 * abs(det)
    total = 1
    for q, e in factorint(f):
        lower = sum(q ** (3 * i) for i in range(e))
        total *= lower + q ** (3 * e) - kronecker(D, q) * q * lower
    return Fraction(total, f ** 3)


def q_rank4(lattice, m, sign):
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


def q_rank5(lattice, m, sign):
    det = lattice.det()
    bad = 2 * abs(det)
    m0, f = split_square_part(m, bad)
    D = 2 * m0 * abs(det)
    divisor_sum = middle_divisor_sum(m0, f, det)
    num = sign * 480 * m * f * divisor_sum.numerator
    den = abs(det) * divisor_sum.denominator
    for ell in primefactors(bad):
        delta = hanke_density(ell, lattice, m)
        num *= delta.numerator * ell ** 4
        den *= delta.denominator * (ell ** 4 - 1)
    D0, s = fundamental_part(D)
    E, B = euler_correction(D0, s), bernoulli_2(D0)
    num *= s * E.numerator * B.numerator
    den *= D0 * E.denominator * B.denominator
    return EisResult(m=m, value=Fraction(num, den), l_fund=D0, m0=m0, f=f)


def coefficient(lattice, m, sign):
    """The oracle's EisResult for one m."""
    return (q_rank4 if lattice.rank == 4 else q_rank5)(lattice, m, sign)


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

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from froblat.errors import DivisionByZero, InvalidParameter
from froblat.padics import (INF, ISPRIME_BOUND, PAdicParams, ResidueField,
                            _is_irreducible, _mulmod, _powmod,
                            _reduction_rows, canonical_modulus, factorint,
                            isprime, primefactors, primerange)


@pytest.fixture(scope="module")
def Z5():
    return PAdicParams(5, 1, 3)


@pytest.fixture(scope="module")
def W25():
    return PAdicParams(5, 2, 8)


def test_direct_arithmetic(Z5):
    s = Z5.from_int(2) + Z5.from_int(3)
    assert s.maybe_val() == 1
    assert s.coeffs[0] == 1


def test_identity_and_cancellation(Z5):
    x = Z5.from_rational("7/5")
    assert ((x + Z5.zero()) - x).is_zero()
    z = x + (-x)
    assert z.is_zero() and z.maybe_val() == INF


def test_inverse_of_two(Z5):
    inv = Z5.from_int(2).inv()
    # oracle: extended Euclid mod 5^3
    assert inv.coeffs[0] % 125 == pow(2, -1, 125)
    assert inv.coeffs[0] % 125 == 63
    assert (inv * Z5.from_int(2) - Z5.one()).is_precision_zero()


def test_inverse_of_zero_raises(Z5):
    with pytest.raises(DivisionByZero):
        Z5.zero().inv()


def test_valuation_multiplicative(Z5):
    import random
    rng = random.Random(0)
    for _ in range(200):
        a = rng.randint(-200, 200)
        b = rng.randint(-200, 200)
        if a == 0 or b == 0:
            continue
        x, y = Z5.from_int(a), Z5.from_int(b)
        assert (x * y).maybe_val() == x.maybe_val() + y.maybe_val()


def test_teichmuller_frozen_value(Z5):
    t = Z5.teichmuller(2)
    # oracle: iterate x -> x^5 mod 125 to its fixed point
    x = 2
    for _ in range(6):
        x = pow(x, 5, 125)
    assert t.coeffs[0] % 125 == x == 57
    assert (57 * 57) % 125 == 124  # Teich(2)^2 = Teich(-1) = -1


def test_teichmuller_defining_property(W25):
    for r in [(0, 0), (1, 0), (2, 3), (4, 4)]:
        t = W25.teichmuller(r)
        q = 5 ** 2
        diff = t
        for _ in range(2):
            diff = diff.frobenius()
        # sigma^d fixes the lift; x^{p^d} = x to tracked precision
        delta = diff - t
        assert delta.is_zero() or delta.is_precision_zero()
        pw = t
        power = t
        for _ in range(q - 1):
            power = power * t
        if not t.is_zero():
            assert (power - t).is_precision_zero() or (power - t).is_zero()


def test_teichmuller_roundtrip(W25):
    rf = W25.residue_field
    for r in rf.elements():
        assert W25.teichmuller(r).residue() == r or rf.is_zero(r)


def test_frobenius_ring_map(W25):
    a = W25.teichmuller((2, 1))
    b = W25.teichmuller((3, 4))
    s1 = (a + b).frobenius()
    s2 = a.frobenius() + b.frobenius()
    assert (s1 - s2).is_precision_zero() or (s1 - s2).is_zero()
    p1 = (a * b).frobenius()
    p2 = a.frobenius() * b.frobenius()
    assert (p1 - p2).is_precision_zero() or (p1 - p2).is_zero()


def test_frobenius_fixes_base_and_has_order_d(W25):
    seven = W25.from_int(7)
    assert (seven.frobenius() - seven).is_zero()
    a = W25.teichmuller((2, 3))
    a2 = a.frobenius().frobenius()
    assert (a2 - a).is_precision_zero() or (a2 - a).is_zero()


def test_frobenius_on_teichmuller_is_residue_power(W25):
    rf = W25.residue_field
    a = W25.teichmuller((1, 2))
    assert a.frobenius().residue() == rf.pow((1, 2), 5)


def test_lambda_properties(W25):
    lam = W25.lam()
    diff = lam * lam - W25.eps()
    assert diff.is_precision_zero() or diff.is_zero()
    flip = lam.frobenius() + lam
    assert flip.is_precision_zero() or flip.is_zero()


def test_lambda_degree_four():
    P4 = PAdicParams(5, 4, 6)
    lam = P4.lam()
    assert ((lam * lam) - P4.eps()).is_precision_zero()
    assert (lam.frobenius() + lam).is_precision_zero()


def test_render_pins_the_string(W25):
    x = W25.teichmuller((2, 3)) * W25.from_rational(Fraction(1, 25))
    assert x.shift == -2
    assert str(x) == "p^-2 * (195312 + 381603*g) mod p^8"
    assert str(W25.zero()) == "0"


def test_param_validation():
    with pytest.raises(InvalidParameter):
        PAdicParams(4, 1, 3)
    with pytest.raises(InvalidParameter):
        PAdicParams(5, 9, 3)
    with pytest.raises(InvalidParameter):
        PAdicParams(5, 1, 0)


def test_precision_zero_masks_valuation(W25):
    lam = W25.lam()
    masked = lam + (-(lam.frobenius().frobenius()))
    if masked.is_precision_zero():
        assert masked.maybe_val() is None


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
@settings(max_examples=60, deadline=None)
def test_ring_laws(a, b, c):
    P = PAdicParams(7, 2, 5)
    x, y, z = P.from_int(a), P.from_int(b), P.from_int(c)
    assert ((x + y) * z - (x * z + y * z)).is_zero()
    assert ((x * y) * z - x * (y * z)).is_zero()
    assert ((x + y) - (y + x)).is_zero()


def test_composite_p_without_small_factors_is_rejected():
    # no prime factor below 60000, and p > 3.6e9
    with pytest.raises(InvalidParameter):
        PAdicParams(60013 * 60017, 1, 4)


# -- exact integer helpers, against sympy as the oracle ---------------------

def test_isprime_matches_sympy_below_1e5():
    for n in range(-5, 10 ** 5):
        assert isprime(n) == sympy.isprime(n), n


def test_isprime_rejects_carmichael_numbers():
    small = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
             41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921]
    # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all
    # three factors are prime
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1)
                for k in range(1, 10 ** 5)
                if all(sympy.isprime(c * k + 1) for c in (6, 12, 18))]
    assert len(chernick) >= 20 and chernick[-1] > 10 ** 17
    for n in small + chernick:
        assert not isprime(n), n


def test_isprime_strong_pseudoprimes_and_large_primes():
    # the least strong pseudoprimes to the prime bases 2..7, 2..31 and
    # 2..37; only base 41 exposes the last one
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not isprime(n), n
    prime = sympy.prevprime(ISPRIME_BOUND)
    assert isprime(prime)
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randrange(10 ** 6, ISPRIME_BOUND) | 1
        assert isprime(n) == sympy.isprime(n), n


def test_isprime_raises_at_its_bound():
    assert ISPRIME_BOUND == 3317044064679887385961981
    for n in (ISPRIME_BOUND, ISPRIME_BOUND + 2, 2 ** 89 - 1):
        with pytest.raises(InvalidParameter):
            isprime(n)


def test_factorint_matches_sympy():
    rng = random.Random(12)
    samples = [1, 2, 4, 97 ** 2, 2 ** 39, 999999000001, 999983 * 999979]
    samples += [rng.randrange(2, 10 ** 12) for _ in range(30)]
    for n in samples:
        fac = factorint(n)
        assert dict(fac) == sympy.factorint(n), n
        assert [q for q, _ in fac] == sorted(q for q, _ in fac)
        assert primefactors(n) == primefactors(-n) \
            == tuple(sympy.primefactors(n))
    for n in (0, -4):
        with pytest.raises(InvalidParameter):
            factorint(n)


def test_primerange_matches_sympy():
    for a, b in [(0, 0), (0, 2), (2, 3), (0, 100), (90, 97), (97, 98),
                 (-5, 30), (50, 10), (1000, 1100), (2, 10 ** 5),
                 (10 ** 5 - 100, 10 ** 5 + 100)]:
        assert primerange(a, b) == list(sympy.primerange(a, b)), (a, b)


# -- the polynomial kernel, against sympy's remainder as the oracle ---------

X = sympy.Symbol("x")


def _monic(modulus):
    """X^d + sum modulus_i X^i as a sympy Poly over Z."""
    return sympy.Poly([1] + list(reversed(modulus)), X)


def _rem(poly, modulus):
    """Constant-first integer coefficients of poly mod the monic modulus."""
    r = poly.rem(_monic(modulus)).all_coeffs()[::-1]
    return tuple(int(c) for c in r) + (0,) * (len(modulus) - len(r))


@pytest.mark.parametrize("d", range(1, 9))
def test_kernel_matches_sympy_remainder(d):
    # the kernel is exact in Z[X]/(h) for any monic h, canonical or not
    rng = random.Random(d)
    for p, modulus in [(p, canonical_modulus(p, d)) for p in (3, 5, 7)] \
            + [(5, tuple(rng.randint(-9, 9) for _ in range(d)))]:
        rows = _reduction_rows(modulus)
        rf = ResidueField(p, modulus)
        q = p ** 6
        for _ in range(6):
            a = tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(d))
            b = tuple(rng.randint(-10 ** 9, 10 ** 9) for _ in range(d))
            pa, pb = sympy.Poly(a[::-1], X), sympy.Poly(b[::-1], X)
            exact = _rem(pa * pb, modulus)
            assert _mulmod(a, b, rows) == exact
            assert _mulmod(a, b, rows, q) == tuple(c % q for c in exact)
            abar, bbar = rf.element(a), rf.element(b)
            assert rf.mul(abar, bbar) == tuple(c % p for c in exact)
            e = rng.randrange(30)
            power = _rem(pa ** e, modulus)
            assert _powmod(a, e, rows, q) == tuple(c % q for c in power)
            assert rf.pow(abar, e) == tuple(c % p for c in power)


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_canonical_modulus_is_the_first_irreducible(p, d):
    def irreducible(coeffs):
        return sympy.Poly([1] + list(reversed(coeffs)), X,
                          modulus=p).is_irreducible

    first = next(c for c in (tuple(code // p ** i % p for i in range(d))
                             for code in range(p ** d)) if irreducible(c))
    assert canonical_modulus(p, d) == first


def test_irreducibility_matches_sympy_in_degree_six():
    # products of distinct irreducibles of degrees 1, 2 and 3 satisfy
    # X^(3^6) = X without any X^(3^k) = X for k = 1, 2, 3
    p, d = 3, 6
    for code in range(p ** d):
        coeffs = tuple(code // p ** i % p for i in range(d))
        want = sympy.Poly([1] + list(reversed(coeffs)), X,
                          modulus=p).is_irreducible
        assert _is_irreducible(coeffs, p) == want, coeffs

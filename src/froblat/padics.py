"""Exact arithmetic in unramified extensions of the p-adic integers.

Elements of W(F_{p^d})[1/p] are represented as p^shift * u where u is a
polynomial of degree < d in a fixed generator g, with integer
coefficients.  The modulus is a fixed monic lift of an irreducible
polynomial over F_p, chosen deterministically per (p, d).  Every value
carries the number of p-adic digits of u that are guaranteed; values
built from integers or rationals whose denominator is +-1 times a
p-power carry None there (exact) and are kept unreduced, so that genuine
cancellations produce an exact zero instead of a precision artifact.  A
rational with any other denominator, such as 1/2, carries M digits.

The Frobenius sigma is the unique lift of x -> x^p; sigma(g) and lambda
(lambda^2 = eps) are roots of integer polynomials, Newton-lifted from
their residues by one routine, and Teichmuller lifts are a closed-form
power.

The module also holds the exact integer number theory the other modules
share: valuations, primality, factorization and a prime sieve.
"""

import math
from fractions import Fraction
from itertools import compress, product

from .errors import DivisionByZero, InvalidParameter, ZeroPrecision

INF = float("inf")


def _valuation(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# exact integer number theory

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster, Math. Comp. 86 (2017)); below it Miller-Rabin is exact
ISPRIME_BOUND = 3317044064679887385961981


def isprime(n):
    """Exact primality of an integer n < ISPRIME_BOUND.

    Deterministic Miller-Rabin on the prime bases 2..41; raises
    InvalidParameter at or above the bound, where it could err.
    """
    if n >= ISPRIME_BOUND:
        raise InvalidParameter(f"primality is exact only below "
                               f"{ISPRIME_BOUND}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:
        return True
    s = _valuation(n - 1, 2)
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n):
    """Prime factorization of n >= 1 as ((q, e), ...), q increasing.

    Trial division, O(sqrt n); the callers factor discriminants (for a
    character table of |D0| entries) and coefficient indices (for the
    divisors of m in ``sigma_s``).
    """
    if n < 1:
        raise InvalidParameter(f"cannot factor {n}")
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            e = _valuation(n, q)
            n //= q ** e
            out.append((q, e))
        q += 1 if q == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def primefactors(n):
    """The distinct primes dividing n != 0, increasing."""
    return tuple(q for q, _ in factorint(abs(n)))


def primerange(a, b):
    """The primes q with a <= q < b, as a list (sieve of Eratosthenes)."""
    if b <= 2:
        return []
    sieve = bytearray([1]) * b
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(b - 1) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, b, q)))
    a = max(a, 0)
    return list(compress(range(a, b), sieve[a:]))


# ---------------------------------------------------------------------------
# polynomials in the generator: one multiply-reduce kernel

def _reduction_rows(modulus):
    """Exact integer rows of g^d .. g^(2d-2) in the basis 1, g, .., g^(d-1),
    each as its nonzero entries ((i, x), ...).

    g is a root of h = X^d + sum modulus_i X^i (modulus constant first).
    """
    d = len(modulus)
    rows = []
    cur = tuple(-c for c in modulus)
    for _ in range(d - 1):
        rows.append(cur)
        lead = cur[-1]
        cur = tuple(lo + lead * r for lo, r in zip((0,) + cur[:-1], rows[0]))
    return [tuple((i, x) for i, x in enumerate(row) if x) for row in rows]


def _fold(res, rows):
    """The 2d - 1 coefficients res of a polynomial in g reduced to d by
    the rows of ``_reduction_rows(h)``, as a list."""
    d = len(rows) + 1
    out = res[:d]
    for c, row in zip(res[d:], rows):
        if c:
            for i, x in row:
                out[i] += c * x
    return out


def _mulmod(a, b, rows, q=None):
    """a * b for coefficient tuples of length d, reduced mod h, then mod q.

    The schoolbook product is folded once (``_fold``); with q None the
    result is the exact integer product in Z[X]/(h).
    """
    d = len(a)
    res = [0] * (2 * d - 1)
    for i in range(d):
        ai = a[i]
        if ai:
            for j in range(d):
                res[i + j] += ai * b[j]
    out = _fold(res, rows)
    return tuple(out) if q is None else tuple(c % q for c in out)


def _powmod(a, e, rows, q=None):
    """a^e by square-and-multiply on ``_mulmod``."""
    result = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            result = _mulmod(result, a, rows, q)
        e >>= 1
        if e:
            a = _mulmod(a, a, rows, q)
    return result


def _fp_tuples(p, d):
    """Every coefficient tuple over F_p of length d, constant first, in
    the order of the integer code sum c_i p^i."""
    return (t[::-1] for t in product(range(p), repeat=d))


# ---------------------------------------------------------------------------
# residue field F_{p^d}

def _is_irreducible(modulus, p):
    """Irreducibility over F_p of h = X^d + sum modulus_i X^i, d >= 2.

    Ben-Or's criterion: a reducible h has an irreducible factor of some
    degree k <= d/2, which divides X^(p^k) - X, so that X^(p^k) - X is
    not a unit mod h.  An irreducible h makes F_p[X]/(h) the field
    F_{p^d}, where each X^(p^k) - X with 0 < k < d is a unit u, so
    u^(p^d - 1) = 1.
    """
    d = len(modulus)
    rows = _reduction_rows(modulus)
    x = (0, 1) + (0,) * (d - 2)
    one = (1,) + (0,) * (d - 1)
    xp = x
    for _ in range(d // 2):
        xp = _powmod(xp, p, rows, p)
        u = tuple((s - t) % p for s, t in zip(xp, x))
        if _powmod(u, p ** d - 1, rows, p) != one:
            return False
    return True


def smallest_nonresidue(p):
    """Smallest positive quadratic non-residue mod p."""
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return a
    raise InvalidParameter(f"no quadratic non-residue mod {p}")


def canonical_modulus(p, d):
    """Deterministic monic integer lift of an irreducible of degree d.

    Degree 2 uses x^2 - eps with eps the smallest non-residue, so the
    generator itself squares to eps.  Other degrees take the
    lexicographically first irreducible monic polynomial.
    """
    if d == 1:
        return (0,)
    if d == 2:
        return (-smallest_nonresidue(p), 0)
    for coeffs in _fp_tuples(p, d):
        if coeffs[0] and _is_irreducible(coeffs, p):
            return coeffs
    raise InvalidParameter(f"no irreducible of degree {d} over F_{p}")


class ResidueField:
    """F_{p^d} with elements as coefficient tuples over F_p."""

    def __init__(self, p, modulus):
        self.p = p
        self.d = len(modulus)
        self.rows = _reduction_rows(modulus)

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs % self.p,)
        c = [x % self.p for x in coeffs]
        c += [0] * (self.d - len(c))
        if len(c) > self.d:
            raise InvalidParameter("residue coefficients exceed degree")
        return tuple(c)

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return _mulmod(a, b, self.rows, self.p)

    def pow(self, a, e):
        return _powmod(a, e, self.rows, self.p)

    def inv(self, a):
        if self.is_zero(a):
            raise DivisionByZero("residue inverse of zero")
        return self.pow(a, self.p ** self.d - 2)

    def one(self):
        return self.element(1)

    def sqrt(self, a):
        """Some square root in F_{p^d}, or None (Tonelli-Shanks)."""
        if self.is_zero(a):
            return self.element(0)
        q = self.p ** self.d
        if self.pow(a, (q - 1) // 2) != self.one():
            return None
        # write q - 1 = s * 2^e with s odd
        e = _valuation(q - 1, 2)
        s = (q - 1) >> e
        # the first non-square in code order
        minus_one = self.neg(self.one())
        z = next(c for c in self.elements()
                 if self.pow(c, (q - 1) // 2) == minus_one)
        m = e
        cfac = self.pow(z, s)
        t = self.pow(a, s)
        r = self.pow(a, (s + 1) // 2)
        while t != self.one():
            # least i with t^(2^i) = 1
            i, t2 = 0, t
            while t2 != self.one():
                t2 = self.mul(t2, t2)
                i += 1
            b = cfac
            for _ in range(m - i - 1):
                b = self.mul(b, b)
            m = i
            cfac = self.mul(b, b)
            t = self.mul(t, cfac)
            r = self.mul(r, b)
        return r

    def elements(self):
        return _fp_tuples(self.p, self.d)


# ---------------------------------------------------------------------------
# parameter set

class PAdicParams:
    """Arithmetic context for W(F_{p^d}) at absolute precision M digits.

    p odd prime, 1 <= d <= 8.  The generator g is a root of
    ``canonical_modulus(p, d)`` and the non-square unit eps is the
    smallest positive non-residue mod p; neither is configurable.  Every
    product of generator polynomials, in the residue field, mod p^k or
    exact, goes through the one kernel ``_mulmod``/``_powmod`` folded by
    the exact rows of the modulus.  Caches the Newton-lifted Frobenius
    image of the generator and its powers, at the working precision.
    """

    def __init__(self, p, d, precision_M):
        if p < 3 or not isprime(p):
            raise InvalidParameter(f"p = {p} is not an odd prime")
        if not 1 <= d <= 8:
            # degree 8 is needed by one supergeneric curve family: the
            # leading z-coefficient there solves g^2 = -4*eps*a with
            # sigma^2(a) = -a, which is never a square in F_{p^4}
            raise InvalidParameter("unramified degree must be 1..8")
        if precision_M < 1:
            raise InvalidParameter("precision_M must be >= 1")
        self.p = p
        self.d = d
        self.precision_M = precision_M
        self.eps_int = smallest_nonresidue(p)
        self.modulus = canonical_modulus(p, d)
        self.residue_field = ResidueField(p, self.modulus)
        self.rows = self.residue_field.rows
        self.pM = p ** precision_M
        self._frob_gen_pows = None  # sigma(g)^i, built by frobenius_poly

    # -- polynomial arithmetic ------------------------------------------
    def poly_mul(self, a, b, mod_power):
        """Product of coefficient tuples, reduced mod (modulus, p^mod_power)."""
        return _mulmod(a, b, self.rows, self.p ** mod_power)

    def poly_inv(self, a, mod_power):
        """Inverse of a unit polynomial mod (modulus, p^mod_power)."""
        p, d = self.p, self.d
        # inverse in the residue field, then Hensel lifting
        abar = tuple(c % p for c in a)
        inv0 = self.residue_field.inv(abar)
        x = tuple(int(c) for c in inv0)
        prec = 1
        while prec < mod_power:
            prec = min(2 * prec, mod_power)
            ax = self.poly_mul(a, x, prec)
            # x <- x * (2 - a x)
            two_minus = tuple((-c) % (p ** prec) for c in ax)
            two_minus = (
                (two_minus[0] + 2) % (p ** prec),) + two_minus[1:]
            x = self.poly_mul(x, two_minus, prec)
        return x

    def _root(self, poly, x):
        """Newton's lift mod p^M of the root congruent to x mod p of the
        integer polynomial ``poly`` (constant first), a simple root mod p.

        Each step evaluates f and f' at x by one Horner pass.
        """
        p, d, rows = self.p, self.d, self.rows
        prec = 1
        while prec < self.precision_M:
            prec = min(2 * prec, self.precision_M)
            q = p ** prec
            f = df = (0,) * d
            for c in reversed(poly):
                df = tuple((s + t) % q
                           for s, t in zip(_mulmod(df, x, rows, q), f))
                f = _mulmod(f, x, rows, q)
                f = ((f[0] + c) % q,) + f[1:]
            delta = _mulmod(f, self.poly_inv(df, prec), rows, q)
            x = tuple((xi - di) % q for xi, di in zip(x, delta))
        return x

    # -- Frobenius ------------------------------------------------------
    def frobenius_poly(self, coeffs, mod_power):
        """Apply sigma to a coefficient tuple off Z_p (so d >= 2): the sum
        of coeffs[i] sigma(g)^i, the coefficients being Z_p-fixed.  The
        powers sigma(g)^i, i = 1 .. d-1, are built on first use."""
        d = self.d
        if self._frob_gen_pows is None:
            # sigma(g) is the root of the modulus congruent to gbar^p
            gbar_p = self.residue_field.pow((0, 1) + (0,) * (d - 2), self.p)
            x = self._root(self.modulus + (1,), gbar_p)
            pows = [x]
            for _ in range(d - 2):
                pows.append(self.poly_mul(pows[-1], x, self.precision_M))
            self._frob_gen_pows = pows
        q = self.p ** mod_power
        out = [coeffs[0] % q] + [0] * (d - 1)
        for ci, pow_i in zip(coeffs[1:], self._frob_gen_pows):
            if ci:
                for t in range(d):
                    out[t] = (out[t] + ci * pow_i[t]) % q
        return tuple(out)

    # -- distinguished constants ---------------------------------------
    def zero(self):
        return PAdicScalar(self, 0, (0,) * self.d, None)

    def one(self):
        return self.from_int(1)

    def from_int(self, n):
        if n == 0:
            return self.zero()
        v = _valuation(n, self.p)
        coeffs = (n // self.p ** v,) + (0,) * (self.d - 1)
        return PAdicScalar(self, v, coeffs, None)

    def from_rational(self, q):
        q = Fraction(q)
        if q == 0:
            return self.zero()
        num, den = q.numerator, q.denominator
        vn = _valuation(num, self.p)
        vd = _valuation(den, self.p)
        num //= self.p ** vn
        den //= self.p ** vd
        if den in (1, -1):
            coeffs = (num * den,) + (0,) * (self.d - 1)
            return PAdicScalar(self, vn - vd, coeffs, None)
        u = (num * pow(den, -1, self.pM)) % self.pM
        coeffs = (u,) + (0,) * (self.d - 1)
        return PAdicScalar(self, vn - vd, coeffs, self.precision_M)

    def teichmuller(self, residue):
        """The root-of-unity (or zero) lift of a residue-field element.

        For any lift r of a nonzero residue in F_q, r^(q^(M-1)) is it mod
        p^M: the 1-units of W(F_q) mod p^M form a group of order
        q^(M-1).  A residue in F_p lifts into Z_p, with q = p.
        """
        r = self.residue_field.element(residue)
        if self.residue_field.is_zero(r):
            return self.zero()
        e = self.precision_M - 1
        if any(r[1:]):
            x = _powmod(r, self.p ** (self.d * e), self.rows, self.pM)
        else:
            x = (pow(r[0], self.p ** e, self.pM),) + r[1:]
        return PAdicScalar(self, 0, x, self.precision_M)

    def eps(self):
        """The non-square unit eps as an exact scalar."""
        return self.from_int(self.eps_int)

    def lam(self):
        """lambda with lambda^2 = eps and sigma(lambda) = -lambda.

        Needs d even: lambda generates the quadratic subextension.
        """
        if self.d % 2 != 0:
            raise InvalidParameter("lambda lives in W(F_{p^2}); need even d")
        if self.d == 2:
            # the canonical modulus is X^2 - eps: g itself
            return PAdicScalar(self, 0, (0, 1), self.precision_M)
        rf = self.residue_field
        r = rf.sqrt(rf.element(self.eps_int))
        if r is None:
            raise InvalidParameter("eps has no square root in the residue field")
        lam = PAdicScalar(self, 0, self._root((-self.eps_int, 0, 1), r),
                          self.precision_M)
        flip = lam.frobenius() + lam
        if not (flip.is_zero() or flip.is_precision_zero()):
            raise InvalidParameter("constructed lambda is not sign-flipped by sigma")
        return lam


def _normal_digits(params, shift, digits, n):
    """The normal form of p^shift * sum(x g^i for (i, x) in digits) known
    mod p^(shift + n): digits reduced mod p^n, their common power of p
    moved into the shift, at most M digits kept.  Returns (shift, nonzero
    digits ((i, x), ...), n), or None if it vanishes mod p^(shift + n)."""
    p = params.p
    q = p ** n
    digits = [(i, r) for i, x in digits if (r := x % q)]
    if not digits:
        return None
    v = _valuation(math.gcd(*[x for _, x in digits]), p)
    if v:
        q = p ** v
        digits = [(i, x // q) for i, x in digits]
        shift, n = shift + v, n - v
    if n > params.precision_M:
        n = params.precision_M
        q = p ** n
        digits = [(i, r) for i, x in digits if (r := x % q)]
    return shift, tuple(digits), n


class PAdicScalar:
    """p^shift * u with u a degree-<d polynomial in the generator.

    ``rel_prec`` is the number of guaranteed p-adic digits of u (None for
    exact values, whose integer coefficients are meant literally).  The
    element is known modulo p^(shift + rel_prec).  Values are immutable.
    """

    __slots__ = ("params", "shift", "coeffs", "rel_prec")

    def __init__(self, params, shift, coeffs, rel_prec):
        self.params = params
        self.shift = shift
        self.coeffs = coeffs
        self.rel_prec = rel_prec

    @property
    def exact(self):
        """True for an exact value (``rel_prec`` None)."""
        return self.rel_prec is None

    @classmethod
    def masked(cls, params, bound):
        """A value known only to vanish mod p^bound, in the one form
        every masked result takes: shift bound - 1, one zero digit."""
        return cls(params, bound - 1, (0,) * params.d, 1)

    @classmethod
    def from_digits(cls, params, shift, digits, n):
        """p^shift * sum(x g^i for (i, x) in digits) known mod
        p^(shift + n), in the normal form of ``_normal_digits``; masked
        if it vanishes there."""
        norm = _normal_digits(params, shift, digits, n)
        if norm is None:
            return cls.masked(params, shift + n)
        shift, digits, n = norm
        coeffs = [0] * params.d
        for i, x in digits:
            coeffs[i] = x
        return cls(params, shift, tuple(coeffs), n)

    # -- state ----------------------------------------------------------
    def is_zero(self):
        """True if the value is an exact zero."""
        return self.exact and all(c == 0 for c in self.coeffs)

    def is_precision_zero(self):
        return (not self.exact) and all(c == 0 for c in self.coeffs)

    def maybe_val(self):
        """Valuation, or None when only a lower bound is known."""
        if self.is_zero():
            return INF
        if self.is_precision_zero():
            return None
        return self.shift

    def known_bound(self):
        """The value is known modulo p^known_bound (INF when exact)."""
        if self.exact:
            return INF
        return self.shift + self.rel_prec

    def _normalize(self):
        p = self.params.p
        if self.exact:
            g = math.gcd(*self.coeffs)
            if not g:
                if self.shift != 0:
                    return PAdicScalar(self.params, 0, self.coeffs, None)
                return self
            v = _valuation(g, p)
            if v:
                coeffs = tuple(c // p ** v for c in self.coeffs)
                return PAdicScalar(self.params, self.shift + v, coeffs, None)
            return self
        n = self.rel_prec
        if n < 1:
            raise ZeroPrecision("no retained digits after operation")
        return PAdicScalar.from_digits(self.params, self.shift,
                                       enumerate(self.coeffs), n)

    # -- ring operations -------------------------------------------------
    def _check(self, other):
        if self.params is not other.params:
            raise InvalidParameter("mixed parameter sets")

    def __add__(self, other):
        self._check(other)
        a, b = self, other
        if a.is_zero():
            return b
        if b.is_zero():
            return a
        s = min(a.shift, b.shift)
        p = self.params.p
        ca = tuple(c * p ** (a.shift - s) for c in a.coeffs)
        cb = tuple(c * p ** (b.shift - s) for c in b.coeffs)
        coeffs = tuple(x + y for x, y in zip(ca, cb))
        if a.exact and b.exact:
            return PAdicScalar(self.params, s, coeffs, None)._normalize()
        bound = min(a.known_bound(), b.known_bound())
        n = bound - s
        return PAdicScalar(self.params, s, coeffs, n)._normalize()

    def __neg__(self):
        return PAdicScalar(self.params, self.shift,
                           tuple(-c for c in self.coeffs), self.rel_prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self, other
        if a.is_zero() or b.is_zero():
            return self.params.zero()
        params = self.params
        s = a.shift + b.shift
        if a.exact and b.exact:
            return PAdicScalar(params, s,
                               _mulmod(a.coeffs, b.coeffs, params.rows),
                               None)._normalize()
        if a.is_precision_zero() or b.is_precision_zero():
            # product of a bounded-zero with anything: only a bound survives
            bound_a = a.known_bound() if a.is_precision_zero() else a.shift
            bound_b = b.known_bound() if b.is_precision_zero() else b.shift
            return PAdicScalar.masked(params, bound_a + bound_b)
        n = b.rel_prec if a.exact else a.rel_prec if b.exact \
            else min(a.rel_prec, b.rel_prec)
        coeffs = _mulmod(a.coeffs, b.coeffs, params.rows, params.p ** n)
        return PAdicScalar(params, s, coeffs, n)._normalize()

    def inv(self):
        if self.is_zero():
            raise DivisionByZero("inverse of exact zero")
        if self.is_precision_zero():
            raise ZeroPrecision("inverse of a value indistinguishable from 0")
        n = self.params.precision_M if self.exact else self.rel_prec
        q = self.params.p ** n
        coeffs = tuple(c % q for c in self.coeffs)
        inv = self.params.poly_inv(coeffs, n)
        return PAdicScalar(self.params, -self.shift, inv, n)._normalize()

    def frobenius(self):
        """The lift sigma of x -> x^p; fixes Z_p, order d."""
        if self.is_zero():
            return self
        if not any(self.coeffs[1:]):
            return self  # sigma fixes Z_p
        n = self.params.precision_M if self.exact else self.rel_prec
        coeffs = self.params.frobenius_poly(self.coeffs, n)
        return PAdicScalar(self.params, self.shift, coeffs, n)._normalize()

    def residue(self):
        """Image in F_{p^d} of a value with shift 0 (0 for positive shift)."""
        if self.is_zero():
            return self.params.residue_field.element(0)
        if self.shift > 0:
            return self.params.residue_field.element(0)
        if self.shift < 0:
            raise InvalidParameter("negative valuation has no residue")
        p = self.params.p
        return tuple(c % p for c in self.coeffs)

    # -- display -----------------------------------------------------------
    def __str__(self):
        if self.is_zero():
            return "0"
        M = self.params.precision_M
        if self.is_precision_zero():
            return f"O(p^{self.known_bound()})"
        n = self.rel_prec if not self.exact else M
        q = self.params.p ** n
        parts = []
        for i, c in enumerate(self.coeffs):
            c %= q
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*g")
            else:
                parts.append(f"{c}*g^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"p^{self.shift} * ({body}) mod p^{n}"

    __repr__ = __str__

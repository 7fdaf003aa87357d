"""Integral quadratic lattices, Kronecker characters, and local densities.

Lattices carry the Gram matrix of the bilinear form [x, y], so Q(v) =
v^T G v / 2 and det(L) = det(G).  Local densities are computed two ways:
a stable-exponent count delta(l, L, m) = l^(a(1-rk)) #{v mod l^a :
Q(v) = m mod l^a} with a = 1 + 2 v_l(2m) (by convolution of per-block
value distributions), and for odd p with v_p(m) <= 1 the good/bad-type-I
decomposition

    delta = alpha*(p, L, m) + p^(1-s0) alpha(p, L_I, m/p),

where alpha counts solutions mod p, alpha* restricts to solutions with a
unit-coefficient coordinate not divisible by p, s0 is the number of unit
diagonal coefficients, and L_I rescales unit slots by p and non-unit
slots by 1/p.  Both read the Jordan splitting ``lattice.local(l)``: an
IntLattice builds it once per l, mod l^K from its cached determinant
(see ``linalg.jordan_split``), and a LocalLattice is its own splitting.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import (BadDiscriminant, InvalidParameter,
                     UnsupportedValuation)
from .padics import _valuation, factorint, isprime, smallest_nonresidue


def kronecker(D, a):
    """Kronecker symbol (D/a) for discriminants D = 0, 1 mod 4, D != 0."""
    if D == 0 or D % 4 not in (0, 1):
        raise BadDiscriminant(f"D = {D} is not a discriminant")
    return _kronecker_symbol(D, a)


def _kronecker_symbol(a, n):
    """The general Kronecker symbol (a/n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out 2s from n
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol (a/n) for odd n > 0 by reciprocity
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def sigma_s(m, s, chi=None):
    """sum_{d | m} chi(d) d^s as an exact Fraction (chi defaults trivial),
    over the divisors from ``factorint``; for s < 0 as one integer sum
    of chi(d) (m/d)^(-s) over m^(-s)."""
    if m < 1:
        raise InvalidParameter("m must be positive")
    divisors = [1]
    for q, e in factorint(m):
        divisors = [d * q ** i for d in divisors for i in range(e + 1)]
    e = abs(s)
    total = sum((1 if chi is None else chi(d)) * (m // d if s < 0 else d) ** e
                for d in divisors)
    return Fraction(total, m ** e if s < 0 else 1)


class IntLattice:
    """Integral quadratic lattice given by the bilinear Gram matrix."""

    def __init__(self, gram, label=""):
        g = [[int(x) for x in row] for row in gram]
        n = len(g)
        self.label = label or f"lattice{n}"
        for i, row in enumerate(g):
            if len(row) != n:
                raise InvalidParameter(f"{self.label}: Gram matrix must be "
                                       f"square")
            if row[i] % 2 != 0:
                raise InvalidParameter(
                    f"{self.label}: Gram entry ({i + 1}, {i + 1}) = {row[i]} "
                    f"is odd; the diagonal of a bilinear Gram is even")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise InvalidParameter(
                        f"{self.label}: Gram entries ({i + 1}, {j + 1}) = "
                        f"{g[i][j]} and ({j + 1}, {i + 1}) = {g[j][i]} "
                        f"differ; a Gram matrix must be symmetric")
        self.gram = g
        self.rank = n
        self._det = None
        self._local = {}

    def bilinear(self, v, w):
        """The pairing [v, w] = v^T G w of integer vectors."""
        return sum(vi * g * x for vi, row in zip(v, self.gram) if vi
                   for g, x in zip(row, w))

    def q_value(self, v):
        """Q(v) = [v, v] / 2."""
        return self.bilinear(v, v) // 2

    def det(self):
        if self._det is None:
            self._det = linalg.det(self.gram)
        return self._det

    def is_positive_definite(self):
        return linalg.is_positive_definite(self.gram)

    def local(self, ell):
        """The Jordan splitting at the prime l, built once per lattice."""
        loc = self._local.get(ell)
        if loc is None:
            if not isprime(ell):
                raise InvalidParameter(f"ell = {ell} is not a prime")
            if self.det() == 0:
                raise InvalidParameter(f"{self.label}: degenerate form "
                                       f"(det = 0)")
            loc = self._local[ell] = LocalLattice(
                ell, *linalg.jordan_split(self.gram, ell, self.det()))
        return loc

    def q_matrix(self):
        """Rational matrix A with Q(v) = v^T A v."""
        return [[Fraction(x, 2) for x in row] for row in self.gram]

    def __repr__(self):
        return f"IntLattice({self.label}, rank={self.rank}, det={self.det()})"


class LocalLattice:
    """l-adic Jordan splitting: integer Q-coefficients of 1x1 and 2x2 blocks.

    The form is sum c_i x_i^2 over ``diag`` plus a x^2 + b xy + c y^2 for
    each (a, b, c) in ``blocks2`` (2x2 blocks occur only at l = 2).  At
    odd l the diagonal is stored as the canonical symbol, units 1, ..., 1,
    eps in each constituent l^k (eps = 1 or the least non-residue as the
    product of the units is a square or not), which fixes the Z_l-class.
    """

    def __init__(self, ell, diag, blocks2=()):
        if any(int(a) != a for a in diag):
            raise InvalidParameter("coefficients must be integers")
        if any(a == 0 for a in diag):
            raise InvalidParameter("degenerate diagonal coefficient")
        self.ell = ell
        self.diag = tuple(int(a) for a in diag)
        if ell != 2:
            self.diag = _canonical_symbol(ell, self.diag)
        self.blocks2 = tuple(tuple(b) for b in blocks2)
        self.rank = len(self.diag) + 2 * len(self.blocks2)

    def local(self, ell):
        """This splitting itself; it holds only at its own prime."""
        if ell != self.ell:
            raise InvalidParameter(f"ell = {ell} is not the prime "
                                   f"{self.ell} of this local lattice")
        return self

    def unit_count(self):
        """Number of diagonal coefficients with v_l = 0 (s_0)."""
        return sum(1 for a in self.diag if a % self.ell)

    def scaled_for_bad_type(self):
        """L_I: unit slots scaled by l, non-unit slots divided by l."""
        if self.blocks2:
            raise UnsupportedValuation("bad-type reduction needs odd l")
        ell = self.ell
        return LocalLattice(ell, [a * ell if a % ell else a // ell
                                  for a in self.diag])


def _canonical_symbol(ell, diag):
    """Units 1, ..., 1, eps in each constituent l^k, by increasing k."""
    units = {}
    for a in diag:
        k = _valuation(a, ell)
        units.setdefault(k, []).append(a // ell ** k)
    out = []
    for k in sorted(units):
        square = _kronecker_symbol(math.prod(units[k]), ell) == 1
        eps = 1 if square else smallest_nonresidue(ell)
        out += [ell ** k] * (len(units[k]) - 1) + [ell ** k * eps]
    return tuple(out)


def _distribution_1x1(coeff, ell, a_exp):
    """Counts of c x^2 mod l^a over x mod l^a, as an int64 vector."""
    q = ell ** a_exp
    x = np.arange(q, dtype=np.int64)
    return np.bincount(coeff % q * ((x * x) % q) % q, minlength=q)


def _distribution_2x2(block, ell, a_exp):
    """Counts of a x^2 + b xy + c y^2 mod l^a over (x, y) mod l^a.

    Rows x = l^j u (u a unit) are summed per valuation j: y -> u y turns
    the values in row x into u^2 times those in row l^j, so the
    phi(l^(a-j)) rows of valuation j give the row-l^j histogram averaged
    over each unit-square orbit, times phi(l^(a-j)).
    """
    q = ell ** a_exp
    a_i, b_i, c_i = (t % q for t in block)
    _, orbit = _square_classes(ell, a_exp)
    size = np.bincount(orbit)
    y = np.arange(q, dtype=np.int64)
    yy = (c_i * ((y * y) % q)) % q
    dist = np.bincount(yy, minlength=q)
    for j in range(a_exp):
        x = ell ** j
        row = np.bincount(((a_i * x * x) % q + (b_i * x) % q * y % q + yy)
                          % q, minlength=q)
        total = np.zeros(len(size), dtype=np.int64)
        np.add.at(total, orbit, row)
        dist += (ell - 1) * ell ** (a_exp - j - 1) * total[orbit] \
            // size[orbit]
    return dist


@lru_cache(maxsize=64)
def _square_classes(ell, a_exp):
    """Orbits of Z/l^a under multiplication by unit squares.

    Returns one representative residue per orbit and the orbit index of
    every residue.  Each residue table is constant on these orbits (v ->
    u v permutes the vectors mod l^a and multiplies Q by u^2).  The orbit
    of l^v w, w a unit, is fixed by v and the class of w modulo unit
    squares: w mod 8 (mod 4, mod 2 for v near a) at l = 2, and the
    Legendre symbol of w at odd l.
    """
    q = ell ** a_exp
    r = np.arange(q, dtype=np.int64)
    v = np.zeros(q, dtype=np.int64)
    for k in range(1, a_exp + 1):
        v += r % ell ** k == 0
    w = r // ell ** v
    if ell == 2:
        cls = w % np.minimum(8, 2 ** (a_exp - v))
    else:
        square = np.zeros(ell, dtype=np.int64)
        square[np.arange(1, ell) ** 2 % ell] = 1
        cls = square[w % ell]
    _, reps, orbit = np.unique(8 * v + cls, return_index=True,
                               return_inverse=True)
    reps.flags.writeable = orbit.flags.writeable = False
    return reps, orbit


def _convolve_mod(d1, d2, reps, orbit, bound):
    """Exact cyclic convolution of two orbit-constant tables.

    Only the orbit representatives are summed.  ``bound`` caps every
    entry of the result; from 2^63 on the sums run in Python ints.
    """
    if bound >= 1 << 63:
        d1, d2 = d1.astype(object), d2.astype(object)
    shift = np.arange(len(d1))
    vals = [d1 @ d2[(r - shift) % len(d1)] for r in reps]
    return np.array(vals, dtype=d1.dtype)[orbit]


@lru_cache(maxsize=512)
def _residue_table(ell, a_exp, diag, blocks2):
    """#{v mod l^a : Q(v) = r mod l^a} for every r, read-only.

    One table per (l, a, local block shape), held in a bounded memo that
    the stable-exponent counts and Hanke's alpha share.  Once the factors
    so far cover k variables, every entry of the next convolution is at
    most l^(a k) times the largest entry of the next factor; that bound
    picks int64 or Python-int sums.
    """
    factors = [_distribution_1x1(c, ell, a_exp) for c in diag]
    factors += [_distribution_2x2(b, ell, a_exp) for b in blocks2]
    if not factors:
        raise InvalidParameter("empty lattice")
    reps, orbit = _square_classes(ell, a_exp)
    dist, total = factors[0], int(factors[0].sum())
    for d in factors[1:]:
        dist = _convolve_mod(dist, d, reps, orbit, total * int(d.max()))
        total *= int(d.sum())
    dist.flags.writeable = False
    return dist


def count_representations_mod(lattice, ell, m, a_exp):
    """#{v mod l^a : Q(v) = m mod l^a}, read from the residue table."""
    loc = lattice.local(ell)
    table = _residue_table(ell, a_exp, loc.diag, loc.blocks2)
    return int(table[m % ell ** a_exp])


def _stable_exponent(ell, m):
    """a = 1 + 2 v_l(2m); counts mod l^a are stable from there on."""
    return 1 + 2 * _valuation(2 * m, ell)


def local_density(ell, lattice, m, a_exp=None):
    """delta(l, L, m) at the stable exponent, as an exact Fraction."""
    if m < 1:
        raise InvalidParameter("m must be positive")
    loc = lattice.local(ell)
    if a_exp is None:
        a_exp = _stable_exponent(ell, m)
    count = count_representations_mod(loc, ell, m, a_exp)
    return Fraction(count, ell ** (a_exp * (loc.rank - 1)))


def _alpha(p, loc, m):
    """alpha(p, L, m) = p^(1-rk) #{v mod p : Q(v) = m mod p}."""
    return Fraction(count_representations_mod(loc, p, m, 1),
                    p ** (loc.rank - 1))


def hanke_density(p, lattice, m):
    """delta(p, L, m) for odd p and v_p(m) <= 1 via type decomposition."""
    if p == 2:
        raise InvalidParameter("p must be odd")
    if m < 1:
        raise InvalidParameter("m must be positive")
    loc = lattice.local(p)
    vm = _valuation(m, p)
    if vm == 0:
        return _alpha(p, loc, m)
    if vm > 1:
        raise UnsupportedValuation("only v_p(m) <= 1 is supported")
    s0 = loc.unit_count()
    alpha_full = _alpha(p, loc, m)
    # alpha*: drop solutions whose unit coordinates all vanish mod p;
    # those contribute only when m = 0 mod p, each non-unit slot free
    alpha_star = alpha_full - Fraction(p, p ** s0)
    loc_i = loc.scaled_for_bad_type()
    return alpha_star + Fraction(p, p ** s0) * _alpha(p, loc_i, m // p)

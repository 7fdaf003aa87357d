"""Integral quadratic lattices, Kronecker characters, and local densities.

Lattices carry the Gram matrix of the bilinear form [x, y], so Q(v) =
v^T G v / 2 and det(L) = det(G).  Local densities are computed two ways.
Hanke's good/bad-type reduction, at every prime l and every m >= 1,

    delta(L, m) = good(L, m) + [l | m] l^(1-s0) delta(L_I, m/l),

reads only tables mod l, or mod 8 at l = 2, and is the density that the
Eisenstein coefficients and every command read.  Here s0 counts the
variables of the unimodular constituent, good(L, m) counts the solutions
with one of them a unit, and L_I scales that constituent by l and the
rest by 1/l.  The stable count delta(l, L, m) = l^(a(1-rk)) #{v mod l^a :
Q(v) = m mod l^a} with a = 1 + 2 v_l(2m) (by convolution of per-block
value distributions) is its oracle, read by the tests, demo 03 and the
density_sweep benchmark; it refuses once l^a passes TABLE_MAX, where
Hanke's still answers.  Both read the Jordan splitting
``lattice.local(l)``: an IntLattice builds it once per l, mod l^K from
its cached determinant (see ``linalg.jordan_split``), and a LocalLattice
is its own splitting.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import BadDiscriminant, InvalidParameter
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
    """sum_{d | m} chi(d) d^s as an exact Fraction (chi defaults trivial).

    chi must be completely multiplicative, as (D/.) is: the sum is then
    prod_{q^e || m} sum_i chi(q)^i q^(|s| j), j = e - i for s < 0 (over
    m^|s|) and i otherwise, with chi read once per prime.
    """
    if m < 1:
        raise InvalidParameter("m must be positive")
    total = 1
    for q, e in factorint(m):
        c = 1 if chi is None else chi(q)
        total *= sum(c ** i * q ** (abs(s) * (e - i if s < 0 else i))
                     for i in range(e + 1))
    return Fraction(total, m ** -s if s < 0 else 1)


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
        self._det = self._definite = None
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
        if self._definite is None:
            self._definite = linalg.is_positive_definite(self.gram)
        return self._definite

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


class LocalLattice:
    """l-adic Jordan splitting: integer Q-coefficients of 1x1 and 2x2 blocks.

    The form is sum c_i x_i^2 over ``diag`` plus a x^2 + b xy + c y^2 for
    each (a, b, c) in ``blocks2`` (2x2 blocks occur only at l = 2).  At
    odd l the diagonal is stored as the canonical symbol, units 1, ..., 1,
    eps in each constituent l^k (eps = 1 or the least non-residue as the
    product of the units is a square or not), which fixes the Z_l-class.
    Both builders, the split and L_I, pass nonzero integers only.
    """

    def __init__(self, ell, diag, blocks2=()):
        self.ell = ell
        self.diag = tuple(diag) if ell == 2 else _canonical_symbol(ell, diag)
        self.blocks2 = tuple(tuple(b) for b in blocks2)
        self.rank = len(self.diag) + 2 * len(self.blocks2)
        self._bad_type = None

    def local(self, ell):
        """This splitting itself; it holds only at its own prime."""
        if ell != self.ell:
            raise InvalidParameter(f"ell = {ell} is not the prime "
                                   f"{self.ell} of this local lattice")
        return self

    def _rescaled(self, unit, rest):
        """(diag, blocks2) with ``unit`` applied to the coefficients of the
        unimodular constituent and ``rest`` to all others."""
        ell = self.ell
        return (tuple(unit(c) if c % ell else rest(c) for c in self.diag),
                tuple(tuple(map(unit if blk[1] % ell else rest, blk))
                      for blk in self.blocks2))

    def scaled_for_bad_type(self):
        """(s0, excluded, L_I) for ``hanke_density``, built on first use.

        The unimodular constituent is the c_i prime to l and the blocks
        with b odd, and s0 counts its variables.  ``excluded`` is the
        table key of the form with that constituent scaled by l^2,
        reduced mod l (mod 8 at l = 2), and L_I scales the constituent by
        l and divides the rest by l.
        """
        if self._bad_type is None:
            ell = self.ell
            q = 8 if ell == 2 else ell
            s0 = sum(1 for c in self.diag if c % ell) \
                + sum(2 for _, b, _ in self.blocks2 if b % ell)
            self._bad_type = (
                s0, self._rescaled(lambda c: c * ell * ell % q,
                                   lambda c: c % q),
                LocalLattice(ell, *self._rescaled(lambda c: c * ell,
                                                  lambda c: c // ell)))
        return self._bad_type


def _canonical_symbol(ell, diag):
    """Units 1, ..., 1, eps in each constituent l^k, by increasing k; eps
    is 1 if its units multiply to a square mod l, by Euler's criterion."""
    units = {}  # k -> (product of the units mod l, their count)
    for a in diag:
        k = _valuation(a, ell)
        u, count = units.get(k, (1, 0))
        units[k] = (u * (a // ell ** k) % ell, count + 1)
    out = []
    for k in sorted(units):
        u, count = units[k]
        square = pow(u, (ell - 1) // 2, ell) == 1
        eps = 1 if square else smallest_nonresidue(ell)
        out += [ell ** k] * (count - 1) + [ell ** k * eps]
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


TABLE_MAX = 1 << 20  # entries l^a of the largest residue table built


@lru_cache(maxsize=512)
def _residue_table(ell, a_exp, diag, blocks2):
    """#{v mod l^a : Q(v) = r mod l^a} for every r, read-only.

    One table per (l, a, local block shape), held in a bounded memo that
    the stable counts and Hanke's reduction share.  A table is its last
    factor (the last block, else the last diagonal entry) convolved onto
    the memoized table of the prefix before it, so shapes that share a
    prefix, as canonical symbols do, share its convolutions.  The prefix
    covers k variables, so every entry of the convolution is at most
    l^(a k) times the largest entry of the last factor; that bound picks
    int64 or Python-int sums.  A table of more than TABLE_MAX entries is
    refused before anything is allocated.
    """
    if ell ** a_exp > TABLE_MAX:
        raise InvalidParameter(f"a residue table mod {ell}^{a_exp} has "
                               f"more than {TABLE_MAX} entries")
    if blocks2:
        prefix = diag, blocks2[:-1]
        last = _distribution_2x2(blocks2[-1], ell, a_exp)
    elif diag:
        prefix = diag[:-1], ()
        last = _distribution_1x1(diag[-1], ell, a_exp)
    else:
        raise InvalidParameter("empty lattice")
    k = len(prefix[0]) + 2 * len(prefix[1])
    if k:
        last = _convolve_mod(_residue_table(ell, a_exp, *prefix), last,
                             *_square_classes(ell, a_exp),
                             ell ** (a_exp * k) * int(last.max()))
    last.flags.writeable = False
    return last


def count_representations_mod(lattice, ell, m, a_exp):
    """#{v mod l^a : Q(v) = m mod l^a}, read from the residue table."""
    loc = lattice.local(ell)
    table = _residue_table(ell, a_exp, loc.diag, loc.blocks2)
    return int(table[m % ell ** a_exp])


def local_density(ell, lattice, m, a_exp=None):
    """delta(l, L, m) as an exact Fraction, counted mod l^a with a the
    stable exponent 1 + 2 v_l(2m) unless given."""
    if m < 1:
        raise InvalidParameter("m must be positive")
    loc = lattice.local(ell)
    if a_exp is None:
        a_exp = 1 + 2 * _valuation(2 * m, ell)
    count = count_representations_mod(loc, ell, m, a_exp)
    return Fraction(count, ell ** (a_exp * (loc.rank - 1)))


def hanke_density(ell, lattice, m):
    """delta(l, L, m) by the good/bad-type reduction, as an exact Fraction.

    delta(L, m) = good(L, m) + [l | m] l^(1-s0) delta(L_I, m/l), iterated
    until l does not divide m (J. Hanke, Duke Math. J. 124 (2004), sec. 3).
    good(L, m) is l^(a(1-rk)) times the solutions mod l^a with some
    unimodular coordinate a unit, which Hensel lifts from a = 1 at odd l
    and a = 3 at l = 2: the residue table at m less the excluded table at
    m over l^s0 (see ``LocalLattice.scaled_for_bad_type``).  The excluded
    count is l^(rk-s0) [l | m] at odd l, and it vanishes whenever l does
    not divide m.
    """
    if m < 1:
        raise InvalidParameter("m must be positive")
    loc = lattice.local(ell)
    a_exp = 3 if ell == 2 else 1
    q = ell ** a_exp
    # level j adds an integer times l^e, e = a(1-rk) + sum (1 - s0) over
    # the levels before it, so no e is below `low`
    e = a_exp * (1 - loc.rank)
    low = e + _valuation(m, ell) * (1 - loc.rank)
    num = 0
    while True:
        count = int(_residue_table(ell, a_exp, loc.diag, loc.blocks2)[m % q])
        if m % ell:
            return Fraction(num + count * ell ** (e - low), ell ** -low)
        s0, excluded, bad = loc.scaled_for_bad_type()
        count -= int(_residue_table(ell, a_exp, *excluded)[m % q]) \
            // ell ** s0
        num += count * ell ** (e - low)
        e += 1 - s0
        loc, m = bad, m // ell

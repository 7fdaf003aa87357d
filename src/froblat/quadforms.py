"""Integral quadratic lattices, Kronecker characters, and local densities.

Lattices carry the Gram matrix of the bilinear form [x, y], so Q(v) =
v^T G v / 2 and det(L) = det(G).  Local densities are computed two ways:
a stable-exponent count delta(l, L, m) = l^(a(1-rk)) #{v mod l^a :
Q(v) = m mod l^a} with a = 1 + 2 v_l(2m) (by block diagonalization and
convolution of per-block value distributions), and for odd p with
v_p(m) <= 1 the good/bad-type-I decomposition

    delta = alpha*(p, L, m) + p^(1-s0) alpha(p, L_I, m/p),

where alpha counts solutions mod p, alpha* restricts to solutions with a
unit-coefficient coordinate not divisible by p, s0 is the number of unit
diagonal coefficients, and L_I rescales unit slots by p and non-unit
slots by 1/p.
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import (BadDiscriminant, InvalidParameter,
                     UnsupportedValuation)
from .padics import _valuation, isprime


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
    """sum_{d | m} chi(d) d^s as an exact Fraction (chi defaults trivial)."""
    if m < 1:
        raise InvalidParameter("m must be positive")
    total = Fraction(0)
    for d in range(1, m + 1):
        if m % d == 0:
            c = chi(d) if chi is not None else 1
            if c:
                total += c * Fraction(d) ** s
    return total


class IntLattice:
    """Integral quadratic lattice given by the bilinear Gram matrix."""

    def __init__(self, gram, label=""):
        g = [[int(x) for x in row] for row in gram]
        n = len(g)
        for i, row in enumerate(g):
            if len(row) != n:
                raise InvalidParameter("Gram matrix must be square")
            if row[i] % 2 != 0:
                raise InvalidParameter("diagonal of a bilinear Gram is even")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise InvalidParameter("Gram matrix must be symmetric")
        self.gram = g
        self.rank = n
        self.label = label or f"lattice{n}"
        self._det = None

    def q_value(self, v):
        acc = 0
        g = self.gram
        for i, vi in enumerate(v):
            if vi:
                acc += g[i][i] * vi * vi
                for j in range(i + 1, self.rank):
                    acc += 2 * g[i][j] * vi * v[j]
        return acc // 2

    def det(self):
        if self._det is None:
            self._det = linalg.det(self.gram)
        return self._det

    def disc_abs(self):
        return abs(self.det())

    def is_positive_definite(self):
        return linalg.is_positive_definite(self.gram)

    def q_matrix(self):
        """Rational matrix A with Q(v) = v^T A v."""
        return [[Fraction(x, 2) for x in row] for row in self.gram]

    def __repr__(self):
        return f"IntLattice({self.label}, rank={self.rank}, det={self.det()})"


class LocalLattice:
    """l-adic block shape: a list of 1x1 and 2x2 blocks.

    Each block holds rational entries with l-unit denominators; diagonal
    blocks are recorded as their single coefficient a_i (so the form is
    sum a_i x_i^2 plus the 2x2 contributions, possible only at l = 2).
    """

    def __init__(self, ell, diag, blocks2=None, label=""):
        self.ell = ell
        self.diag = [Fraction(a) for a in diag]
        self.blocks2 = [tuple(Fraction(x) for x in b) for b in (blocks2 or [])]
        self.label = label
        for a in self.diag:
            if a == 0:
                raise InvalidParameter("degenerate diagonal coefficient")
            if a.denominator % ell == 0:
                raise InvalidParameter("denominator not an l-adic unit")
        self.rank = len(self.diag) + 2 * len(self.blocks2)

    def unit_count(self):
        """Number of diagonal coefficients with v_l = 0 (s_0)."""
        return sum(1 for a in self.diag if _vl_fraction(a, self.ell) == 0)

    def scaled_for_bad_type(self):
        """L_I: unit slots scaled by l, non-unit slots divided by l."""
        if self.blocks2:
            raise UnsupportedValuation("bad-type reduction needs odd l")
        out = []
        for a in self.diag:
            if _vl_fraction(a, self.ell) == 0:
                out.append(a * self.ell)
            else:
                out.append(a / self.ell)
        return LocalLattice(self.ell, out, label=self.label + "_I")


def _vl_fraction(a, ell):
    return _valuation(a.numerator, ell) - _valuation(a.denominator, ell)


def diagonalize_Zp(lattice, p):
    """Congruent diagonal form over Z_p for odd p, exact arithmetic.

    Entries of the output are rationals with p-unit denominators; the
    valuation of the determinant and its square class are preserved.
    """
    if p == 2:
        raise InvalidParameter("odd p only; 2-adic forms keep 2x2 blocks")
    a = [[Fraction(x) for x in row] for row in lattice.q_matrix()]
    n = len(a)
    diag = []
    idx = list(range(n))
    while idx:
        vmin, i, j = _min_entry(a, idx, p)
        if i != j:
            # make the (i, i) entry have minimal valuation: v_i += c v_j
            # with c = 1 or -1 (one of the two always avoids cancellation
            # for odd p)
            cand = a[i][i] + 2 * a[i][j] + a[j][j]
            c_mult = 1 if cand != 0 and _vl_fraction(cand, p) == vmin else -1
            for r in range(n):
                a[r][i] += c_mult * a[r][j]
            for c in range(n):
                a[i][c] += c_mult * a[j][c]
        diag.append(_eliminate(a, idx, i))
        idx.remove(i)
    return LocalLattice(p, diag, label=lattice.label if hasattr(
        lattice, "label") else "")


def _min_entry(a, idx, ell):
    """(v, i, j): the first entry of least l-valuation in the idx block."""
    best = min(((_vl_fraction(a[i][j], ell), i, j) for i in idx
                for j in idx if a[i][j] != 0), key=lambda t: t[0],
               default=None)
    if best is None:
        raise InvalidParameter("degenerate form")
    return best


def _eliminate(a, idx, i):
    """Clear row and column i of the idx block against a[i][i]."""
    piv = a[i][i]
    for r in idx:
        if r != i and a[r][i] != 0:
            f = a[r][i] / piv
            for c in range(len(a)):
                a[r][c] -= f * a[i][c]
            for c in range(len(a)):
                a[c][r] -= f * a[c][i]
    return piv


def _block_shape_2adic(lattice):
    """2-adic splitting into 1x1 and 2x2 blocks (symmetric pivoting)."""
    a = [[Fraction(x) for x in row] for row in lattice.q_matrix()]
    n = len(a)
    diag = []
    blocks2 = []
    idx = list(range(n))
    while idx:
        _, i, j = _min_entry(a, idx, 2)
        if i == j:
            diag.append(_eliminate(a, idx, i))
            idx.remove(i)
        else:
            # clear the two pivot columns against the off-diagonal entry
            piv = a[i][j]
            det = a[i][i] * a[j][j] - piv * piv
            for r in list(idx):
                if r in (i, j):
                    continue
                # solve [a_ri, a_rj] = x*[a_ii, a_ij] + y*[a_ij, a_jj]
                x = (a[r][i] * a[j][j] - a[r][j] * piv) / det
                y = (a[r][j] * a[i][i] - a[r][i] * piv) / det
                if x or y:
                    for c in range(n):
                        a[r][c] -= x * a[i][c] + y * a[j][c]
                    for c in range(n):
                        a[c][r] -= x * a[c][i] + y * a[c][j]
            blocks2.append((a[i][i], a[i][j], a[j][j]))
            idx.remove(i)
            idx.remove(j)
    return LocalLattice(2, diag, blocks2, label=lattice.label)


def _as_local(lattice, ell):
    if not isprime(ell):
        raise InvalidParameter(f"ell = {ell} is not a prime")
    if isinstance(lattice, LocalLattice):
        if lattice.ell != ell:
            raise InvalidParameter("local lattice at a different prime")
        return lattice
    return _local_shape(tuple(map(tuple, lattice.gram)), ell, lattice.label)


@lru_cache(maxsize=64)
def _local_shape(gram, ell, label):
    """Block shape of a Gram matrix at l (memoized: callers share it)."""
    lattice = IntLattice(gram, label)
    if ell == 2:
        return _block_shape_2adic(lattice)
    return diagonalize_Zp(lattice, ell)


def _unit_mod(a, ell, power):
    """Value of a rational with l-unit denominator mod l^power."""
    q = ell ** power
    num, den = a.numerator, a.denominator
    return (num * pow(den, -1, q)) % q


def _distribution_1x1(coeff, ell, a_exp):
    """Counts of c x^2 mod l^a over x mod l^a, as an int64 vector."""
    q = ell ** a_exp
    v = _vl_fraction(coeff, ell)
    lead = (_unit_mod(coeff / ell ** v, ell, a_exp) * ell ** v) % q
    x = np.arange(q, dtype=np.int64)
    return np.bincount((lead * ((x * x) % q)) % q, minlength=q)


def _distribution_2x2(block, ell, a_exp):
    """Counts of a x^2 + 2b xy + c y^2 mod l^a; a, c, 2b are integers.

    Rows x = l^j u (u a unit) are summed per valuation j: y -> u y turns
    the values in row x into u^2 times those in row l^j, so the
    phi(l^(a-j)) rows of valuation j give the row-l^j histogram averaged
    over each unit-square orbit, times phi(l^(a-j)).
    """
    q = ell ** a_exp
    aa, ab, bb = block
    a_i = _unit_mod(aa, ell, a_exp) if aa else 0
    c_i = _unit_mod(bb, ell, a_exp) if bb else 0
    b_i = _unit_mod(2 * ab, ell, a_exp) if ab else 0
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


@lru_cache(maxsize=32)
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
    loc = _as_local(lattice, ell)
    table = _residue_table(ell, a_exp, tuple(loc.diag), tuple(loc.blocks2))
    return int(table[m % ell ** a_exp])


def _stable_exponent(ell, m):
    """a = 1 + 2 v_l(2m); counts mod l^a are stable from there on."""
    return 1 + 2 * _valuation(2 * m, ell)


def local_density(ell, lattice, m, a_exp=None):
    """delta(l, L, m) at the stable exponent, as an exact Fraction."""
    if m < 1:
        raise InvalidParameter("m must be positive")
    loc = _as_local(lattice, ell)
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
    loc = _as_local(lattice, p)
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

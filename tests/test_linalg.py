"""Integer linear algebra against sympy as the oracle."""

import math
import random
from itertools import combinations

import sympy

from froblat.linalg import det, hnf_basis, is_positive_definite, rank


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def _rank_deficient(rng, rows, cols, r):
    """rows x cols integer matrix of rank at most r (a product)."""
    a = _random_matrix(rng, rows, r)
    b = _random_matrix(rng, r, cols)
    return [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(cols)]
            for i in range(rows)]


def test_det_and_rank_square():
    rng = random.Random(20261018)
    for trial in range(300):
        n = rng.randint(1, 6)
        if trial % 3 == 0:
            m = _rank_deficient(rng, n, n, rng.randint(0, n - 1))
        else:
            m = _random_matrix(rng, n, n)
        oracle = sympy.Matrix(m)
        assert det(m) == oracle.det()
        assert rank(m) == oracle.rank()


def test_rank_non_square():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if rng.random() < 0.5:
            m = _rank_deficient(rng, rows, cols,
                                rng.randint(0, min(rows, cols)))
        else:
            m = _random_matrix(rng, rows, cols, -3, 3)
        assert rank(m) == sympy.Matrix(m).rank()
    assert rank([]) == 0
    assert rank([[0, 0, 0]]) == 0


def test_row_swaps_and_large_entries():
    # the (0, 0) entry vanishes, so the first pivot needs a row swap
    assert det([[0, 1], [1, 0]]) == -1
    m = [[0, 2, 1], [1, 1, 0], [3, 0, 1]]
    assert det(m) == sympy.Matrix(m).det() == -5
    # a zero column between pivots
    assert rank([[0, 1, 2], [0, 2, 4], [0, 0, 1]]) == 2
    big = [[10 ** 30 + i * j for j in range(4)] for i in range(4)]
    big[3][3] += 1
    assert det(big) == sympy.Matrix(big).det()
    assert det([[5]]) == 5 and det([]) == 1


def test_positive_definite_against_sympy():
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for trial in range(300):
        n = rng.randint(1, 6)
        a = _random_matrix(rng, n, n, -4, 4)
        # a^T a is positive semi-definite; shifting the diagonal by a
        # random integer makes a mix of definite and indefinite forms
        shift = rng.randint(-6, 3)
        m = [[sum(a[k][i] * a[k][j] for k in range(n))
              + (shift if i == j else 0) for j in range(n)]
             for i in range(n)]
        expect = bool(sympy.Matrix(m).is_positive_definite)
        assert is_positive_definite(m) == expect
        seen[expect] += 1
    assert seen[True] > 20 and seen[False] > 20
    assert not is_positive_definite([[0, 1], [1, 2]])   # needs a swap
    assert not is_positive_definite([[2, 2], [2, 2]])   # singular
    assert not is_positive_definite([[2, 3], [3, 2]])   # indefinite
    assert is_positive_definite([[2, 1], [1, 2]])


def _in_span(basis, v):
    """v is an integer combination of the (independent) basis rows."""
    a = sympy.Matrix(basis).T
    sol = a.gauss_jordan_solve(sympy.Matrix(v))[0]
    return all(x.is_integer for x in sol)


def test_hnf_basis_repeated_and_zero_rows():
    rng = random.Random(3)
    for trial in range(60):
        cols = rng.randint(1, 5)
        gens = _random_matrix(rng, rng.randint(1, 5), cols, -6, 6)
        gens += [list(gens[0]), [0] * cols, list(gens[-1])]
        if trial % 4 == 0:
            gens = [[2 * x for x in g] for g in gens]
        rng.shuffle(gens)
        basis = hnf_basis(gens)
        r = sympy.Matrix(gens).rank()
        assert len(basis) == r
        # echelon shape with positive pivots
        lead = [next(c for c, x in enumerate(b) if x) for b in basis]
        assert lead == sorted(set(lead))
        assert all(b[c] > 0 for b, c in zip(basis, lead))
        assert all(_in_span(basis, g) for g in gens if any(g))
        if r == cols:
            # equal covolume: the gcd of the generators' maximal minors
            minors = [sympy.Matrix([gens[i] for i in idx]).det()
                      for idx in combinations(range(len(gens)), cols)]
            assert abs(det(basis)) == math.gcd(*minors)


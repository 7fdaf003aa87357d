#!/usr/bin/env python3
"""Eisenstein coefficients against actual representation numbers.

Eisenstein coefficients are exact rationals: the L-value L(2, chi_D)
enters through the generalized Bernoulli number B_{2,chi}, and pi and
the square roots cancel.  For a one-class genus the theta series has no
cuspidal part, so the coefficient equals r(m) exactly; that calibration
pinned the character convention for definite rank-5 lattices.  For a
multi-class lattice the difference r(m) - q(m) is a cusp form whose
coefficients grow strictly slower than m^(3/2).  For the indefinite
global lattices of the budget q_L(m) is negative.  Every L-value they
read is exact, L(2, chi_D) = pi^2 B_{2,chi} / D^(3/2) for D fundamental
and positive; one is printed below.
"""

from froblat import (IntLattice, cusp_deviation, q_L_hilbert, q_L_siegel,
                     q_positive_definite, representation_counts)
from froblat.eisenstein import bernoulli_2

D5 = IntLattice([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
                 [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], "D5")
counts = representation_counts(D5, 12)
print("one-class genus (rank 5, det 4):")
for m in range(1, 13):
    q = q_positive_definite(D5, m)
    print(f"  m={m:2d}  r(m)={counts[m]:5d}  eisenstein={str(q.value):>5s}"
          f"  equal={q.value == counts[m]}")

LS = IntLattice([[2, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 1, 0, 0, 0],
                 [0, 0, 0, 0, -1], [0, 0, 0, -1, 0]], "ls_global")
LH = IntLattice([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, -6]])
print("\nq_L(1..4), signature (3,2):",
      [str(q_L_siegel(LS, m).value) for m in range(1, 5)])
print("q_L(1..4), signature (2,2):",
      [str(q_L_hilbert(LH, m).value) for m in range(1, 5)])

print(f"\nL(2, chi_5) = pi^2 ({bernoulli_2(5)}) / 5^(3/2)")

# a lattice with 5 | det: the deviation is a weight-5/2 cusp form
L5 = IntLattice([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
                 [0, 0, 0, 10, 0], [0, 0, 0, 0, 10]], "pdet5")
records, slope = cusp_deviation(L5, 100, 800)
big = max(records, key=lambda r: abs(r["deviation"]))
print(f"\nrank-5 lattice with 5 | det over 100 <= m <= 800:")
print(f"  largest deviation {big['deviation']} at m = {big['m']}")
print(f"  fitted growth exponent of |r - q|: {slope:.3f}  (target < 1.5)")

#!/usr/bin/env python3
"""The local/global intersection budget, end to end.

A supersingular point contributes local intersection multiplicity
bounded by weighted representation counts over a chain of sublattices
that the decay results force; the global contribution per point is
g(m) = A/(p-1) |q_L(m)|.  Summed over the admissible m up to 500, the
local side stays below the 11/12 bar with a wide margin: the leading
constant alpha(5) = 109/120 applies per-coefficient, and actual counts
sit far below their Eisenstein means on this sparse m-set.
"""

from fractions import Fraction

from froblat import (BudgetInput, IntLattice, alpha_const, derive_chain,
                     eisenstein_budget, representation_counts, run_budget)

HEAD = [[2, 0, -1, -1], [0, 2, -1, 0], [-1, -1, 6, -2], [-1, 0, -2, 18]]
LH = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, -6]]

print("budget constant alpha(5) =", alpha_const(5),
      "< 11/12:", alpha_const(5) < Fraction(11, 12))
print("geometric-chain aggregate =",
      eisenstein_budget("superspecial", 2, 5, "geometric"),
      "= alpha(5) * A/(p-1)")

chain, basis = derive_chain(IntLattice(HEAD), 5, depth=3)
print("\nchain determinants:",
      [IntLattice(g1).det() for g1, _ in chain])

deep = IntLattice(chain[-1][1])
deep_counts = representation_counts(deep, 500)
exclude = [m for m in range(1, 501) if deep_counts[m] > 0]
print("values represented by the deepest member (excluded):", exclude)

inp = BudgetInput(p=5, A=2, case="superspecial", global_gram=LH,
                  chain=chain, t_kind="hilbert",
                  t_params={"N": 0, "C": 1, "disc_F": 13},
                  M=500, exclude=exclude)
report = run_budget(inp)
print(f"\nadmissible m up to 500: {len(report.T)}")
print(f"cumulative local bound: {float(report.local_sum):.1f}")
print(f"cumulative global term: {report.global_sum}")
print(f"ratio: {report.ratio} = {float(report.ratio):.4f}"
      "  (bar: 11/12 = 0.9167)")

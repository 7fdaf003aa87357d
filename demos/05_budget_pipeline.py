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

from froblat import (IntLattice, alpha_const, derive_chain,
                     eisenstein_budget, run_budget)

HEAD = [[2, 0, -1, -1], [0, 2, -1, 0], [-1, -1, 6, -2], [-1, 0, -2, 18]]
LH = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, -6]]

print("budget constant alpha(5) =", alpha_const(5),
      "< 11/12:", alpha_const(5) < Fraction(11, 12))
print("geometric-chain aggregate =",
      eisenstein_budget("superspecial", 2, 5, "geometric"),
      "= alpha(5) * A/(p-1)")

chain, _ = derive_chain(IntLattice(HEAD), 5, depth=3)
print("\nchain determinants:",
      [IntLattice(g1).det() for g1, _ in chain])

# the pipeline derives the same chain and excludes the T-set values that
# the deepest member L_{3,2} represents
report = run_budget(p=5, A=2, case="superspecial", global_gram=LH,
                    chain_head=HEAD, depth=3, M=500, t_kind="hilbert",
                    t_params={"N": 0, "C": 1},
                    exclude_deep=True)
print("T-set values L_{3,2} represents (excluded):", report.excluded)
print(f"\nadmissible m up to 500: {len(report.T)}")
print(f"cumulative local bound: {float(report.local_sum):.1f}")
print(f"cumulative global term: {report.global_sum}")
print(f"ratio: {report.ratio} = {float(report.ratio):.4f}"
      "  (bar: 11/12 = 0.9167)")

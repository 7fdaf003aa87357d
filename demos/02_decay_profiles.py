#!/usr/bin/env python3
"""Decay of special endomorphisms along a formal curve.

We build the split-type Frobenius model at p = 5, push the curve
x(t) = y(t) = t through it, and read off how fast each basis vector of
the special-endomorphism lattice stops lifting.  The non-ordinary locus
meets this curve to order A = 2, and the decay indices of w_1 land
exactly on the thresholds A(1 + p + ... + p^n) = 2, 12, 62.
"""

from froblat import (HILBERT_SPLIT, CrystalModel, FormalCurve, PAdicParams,
                     check_DvR, column_valuation_profile, f_infinity,
                     find_decaying_submodule)
from froblat.crystals import truncation

# the truncation and precision that verdicts up to n = 2 need at A = 2
nt, M = truncation(2, 5, 2)
model = CrystalModel(HILBERT_SPLIT, PAdicParams(p=5, d=2, precision_M=M))
curve = FormalCurve(x={1: 1}, y={1: 1}, nt=nt)

A = model.non_ordinary_valuation(curve)
print("order of the non-ordinary equation along the curve: A =", A)

finf = f_infinity(model, curve, n_max=2)
for i in range(4):
    w = [1 if j == i else 0 for j in range(4)]
    profile = column_valuation_profile(finf, w)
    row = [profile.decay_index(n)[0] for n in range(3)]
    print(f"w_{i + 1}: decay indices {row}")

print("\nw_3 decays very rapidly (a = 1 = A/2):",
      check_DvR(finf, [0, 0, 1, 0], A, 1, 2))

basis, witness = find_decaying_submodule(model, finf, A, n_max=2)
print("certified decaying rank-3 span:", basis)
print("very-rapid witness:", witness)

# the mirrored curve y = -x swaps the surviving direction
mirror = FormalCurve(x={1: 1}, y={1: 4}, nt=nt)
finf2 = f_infinity(model, mirror, n_max=2)
basis2, witness2 = find_decaying_submodule(model, finf2,
                                           model.non_ordinary_valuation(mirror),
                                           n_max=2)
print("\nmirror curve span:", basis2, "witness:", witness2)

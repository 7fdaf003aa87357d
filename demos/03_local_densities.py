#!/usr/bin/env python3
"""Local representation densities, two ways.

delta(l, L, m) counts solutions of Q(v) = m modulo l^a at the stable
exponent a = 1 + 2 v_l(2m).  The same number splits into a good-type
count plus a bad-type reduction to m/l, at every prime and every
valuation; the two computations agree exactly, and the five local shapes
attached to supersingular points have closed-form values.
"""

from fractions import Fraction

from froblat import IntLattice, hanke_density, local_density
from froblat.crystals import (HILBERT_INERT_SG, HILBERT_INERT_SSP,
                              HILBERT_SPLIT, SIEGEL_SG, SIEGEL_SSP,
                              local_gram)
from froblat.quadforms import count_representations_mod

p = 5
shapes = [
    (HILBERT_INERT_SSP, 1, "1 - 1/p"),
    (HILBERT_SPLIT, 1, "1 + 1/p"),
    (HILBERT_INERT_SG, 1, "0"),
    (SIEGEL_SSP, p, "1 + p^-3"),
    (SIEGEL_SG, p, "1 + p^-2"),
]
for case, m, label in shapes:
    lat = IntLattice(local_gram(case, p, 2), case)
    d = local_density(p, lat, m)
    h = hanke_density(p, lat, m)
    assert d == h
    print(f"{case:30s} m={m}: delta = {d}  ({label})")

# the supergeneric shape represents units either never or twice
lat = IntLattice(local_gram(SIEGEL_SG, p, 2))
print("\nsupergeneric unit densities:",
      sorted({local_density(p, lat, m) for m in range(1, 20) if m % p}))

# the count stabilizes once the exponent passes 1 + 2 v_p(2m)
L = IntLattice([[2, 1, 0], [1, 4, 1], [0, 1, 6]])
for a in (1, 3, 5):
    count = count_representations_mod(L, 3, 6, a)
    delta = Fraction(count, 3 ** (a * (L.rank - 1)))
    print(f"delta at exponent {a}:", delta)

# the reduction also holds at l = 2 and at v_l(m) >= 2
for ell, m in ((2, 12), (5, 50)):
    d, h = local_density(ell, L, m), hanke_density(ell, L, m)
    assert d == h
    print(f"l={ell} m={m}: delta = {d} = hanke")

"""Local-versus-global intersection budgets for supersingular points.

The local side bounds the intersection multiplicity at a point through
weighted representation counts over a chain of sublattices forced by
decay: for a superspecial point

    l(m) <= A(p+2)/(2p) r_{0,1}(m) + A/2 r_{0,2}(m)
            + sum_{n>=1} A p^n / 2 (r_{n,1}(m) + r_{n,2}(m)),

and for a supergeneric point A(p+1)/p r_0(m) + sum A p^n r_n(m).  The
global side is g(m) = A/(p-1) |q_L(m)| with q_L the Eisenstein coefficient
of the ambient lattice.  The Eisenstein-side aggregation of the same
weights against the coefficient ratio bounds stays below alpha(p) A/(p-1)
with alpha(p) = (p+2)/(2p) + p/(p^2-1) < 11/12 for p >= 5; `froblat
selftest` checks that bar for each splitting behaviour and the closed form
against a finite chain, and ``run_budget`` checks the budget on a
superspecial chain, the only head shape ``derive_chain`` splits.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import ChainNotNested, InvalidParameter
from .eisenstein import coefficients, ratio_bound
from .enumeration import build_T_set, representation_counts
from .quadforms import IntLattice


def alpha_const(p):
    """(p+2)/(2p) + p/(p^2-1), the superspecial budget constant."""
    return Fraction(p + 2, 2 * p) + Fraction(p, p * p - 1)


# the least prime p >= 5 from which each budget constant stays below 11/12
# (`froblat selftest` checks up to 97); 'superspecial_ramified', real
# multiplication by a field whose discriminant p divides, is 31/30 at 5
ALPHA_FROM = {"superspecial": 5, "superspecial_ramified": 7,
              "supergeneric_inert": 5, "supergeneric_ramified": 5}


def alpha_variants(p):
    """Budget constants for each splitting behaviour, keyed as ALPHA_FROM."""
    return {
        "superspecial": alpha_const(p),
        "superspecial_ramified": Fraction(p + 2, 2 * p)
        + Fraction(p + 3, p * p - 1),
        "supergeneric_inert": Fraction(2, p)
        + Fraction(2, (p + 1) * (p * p - 1)),
        "supergeneric_ramified": Fraction(2, p) + Fraction(2, p * p - 1),
    }


def _chain_weights(case, A, p):
    """n -> the weights' numerators over 2p at level n: 'superspecial'
    has (A(p+2)/(2p), A/2) at n = 0 and A p^n / 2 twice after;
    'supergeneric' has A(p+1)/p at n = 0 and A p^n after."""
    if case == "superspecial":
        return lambda n: ((A * (p + 2), A * p) if n == 0
                          else (A * p ** (n + 1),) * 2)
    if case == "supergeneric":
        return lambda n: (2 * A * (p + 1) if n == 0
                          else 2 * A * p ** (n + 1),)
    raise InvalidParameter(f"unknown case {case!r}")


def _weighted(case, A, p, chain):
    """(n, w, member) for each member of the chain that carries a weight,
    w its numerator over 2p.

    An entry of the chain is a tuple of members or a single member;
    members past the case's weights and None members carry none.
    """
    weights = _chain_weights(case, A, p)
    for n, entry in enumerate(chain):
        members = entry if isinstance(entry, tuple) else (entry,)
        for w, x in zip(weights(n), members):
            if x is not None:
                yield n, w, x


def global_g(A, p, q_value):
    """g(m) = A/(p-1) |q_L(m)|, exact."""
    if A < 1:
        raise InvalidParameter("A must be >= 1: the point lies on the "
                               "non-ordinary locus")
    return Fraction(A, p - 1) * abs(q_value.value)


def eisenstein_budget(case, A, p, chain="geometric", vp_m=0):
    """Aggregate coefficient-ratio bounds over a chain, exactly.

    chain is either 'geometric' (the closed form of the infinite chain
    with indices p^(3n) and p^(3n+1)) or a list of per-n index data in
    the entries ``_weighted`` reads, None entries omitted.  Index
    values are [L' : L'_{n, i}].
    """
    if chain != "geometric":
        return Fraction(sum(w * _sub_ratio(case, p, n, idx, vp_m)
                            for n, w, idx in _weighted(case, A, p, chain)),
                        2 * p)
    if vp_m != 0:
        raise InvalidParameter("closed form assumes p coprime to m")
    if case == "superspecial":
        return Fraction(A, p - 1) * alpha_const(p)
    if case == "supergeneric":
        return Fraction(A, p - 1) * alpha_variants(p)["supergeneric_inert"]
    raise InvalidParameter(f"unknown case {case!r}")


def _sub_ratio(case, p, n, idx, vp_m):
    """Coefficient ratio bound for the chain member of index idx at n."""
    if case == "supergeneric":
        if idx == 1:
            return ratio_bound("supergeneric", p)
        if vp_m == 0:
            return Fraction(2, (p * p - 1) * idx)
        return Fraction(2, (p - 1) * idx)
    if n == 0 and idx == 1:
        return ratio_bound("superspecial", p)
    # |disc_p| of the sublattice is p^2 idx^2, so sqrt is p * idx
    if vp_m == 0:
        return ratio_bound("superspecial", p, idx_sqrt=p * idx)
    return ratio_bound("superspecial", p, idx_sqrt=p * idx, vp_m=1,
                       index_is_p=(idx == p))


def check_chain_nested(grams_with_bases):
    """Each lattice must embed integrally in the previous one.

    Input: list of (gram, basis), basis in the chain head's coordinates,
    rational bases allowed; returns the indices [head : member].  A member
    is nested iff its rows leave the previous lattice's covolume unchanged.
    """
    scale = math.lcm(*(Fraction(x).denominator for _, basis in
                       grams_with_bases for row in basis for x in row))
    bases = [[[int(x * scale) for x in row] for row in basis]
             for _, basis in grams_with_bases]
    dets = [abs(linalg.det(b)) for b in bases]
    if 0 in dets:
        raise ChainNotNested("degenerate basis")
    for prev, b, d_prev in zip(bases, bases[1:], dets):
        if abs(linalg.det(linalg.hnf_basis(prev + b))) != d_prev:
            raise ChainNotNested("basis change is not integral")
    return [d // dets[0] for d in dets[1:]]


def _complete_to_basis(v):
    """Unimodular integer matrix whose first column is the primitive v.

    Each Bezout step (g, v_j) -> (d, 0) is a determinant-one row
    operation on v; its adjugate [[g/d, -t], [v_j/d, s]] is applied to U
    as a column operation, so U w = v holds for the reduced vector w.
    """
    n = len(v)
    U = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    lead, *rest = [i for i, x in enumerate(v) if x]
    g = v[lead]
    for j in rest:
        b = v[j]
        d, s, t = _bezout(g, b)
        for row in U:
            row[lead], row[j] = ((g // d) * row[lead] + (b // d) * row[j],
                                 s * row[j] - t * row[lead])
        g = d
    if abs(g) != 1:
        raise InvalidParameter("vector is not primitive")
    for row in U:
        row[lead] *= g
        row[0], row[lead] = row[lead], row[0]
    return U


def _bezout(a, b):
    """(g, s, t) with g = gcd(a, b) > 0 and s a + t b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def derive_chain(head, p, depth):
    """Chain sublattices forced by decay, from the p-adic splitting.

    head is the chain head's IntLattice.  Finds an isotropic direction u3
    of the p-unimodular part (the very rapidly decaying one), completes
    it to a unimodular basis arranged as (u1, u2, u3, u4) with u1, u2
    spanning the p-scaled block and u4 the complementary isotropic
    direction, and returns Gram pairs for

        L_{n,1} = <p^n u1, p^n u2, p^n u3, u4>,
        L_{n,2} = <p^n u1, p^n u2, p^(n+1) u3, u4>,

    whose indices in the head are p^(3n) and p^(3n+1).  The splitting
    holds modulo p^(depth+2), which fixes every member up to n = depth.
    ``check_chain_nested`` certifies the members' bases, from the head's.
    """
    if head.rank != 4:
        raise InvalidParameter(f"{head.label}: chain derivation needs rank 4")
    B = head.bilinear
    q = p ** (depth + 2)
    u3 = _isotropic_vector(head, p, q)
    U = _complete_to_basis(u3)
    b3, *rest = [[row[c] for row in U] for c in range(4)]
    # partner with unit pairing against u3
    b4 = rest.pop(next(i for i, b in enumerate(rest) if B(b3, b) % p))
    inv34 = pow(B(b3, b4) % q, -1, q)
    # make Q(b4) = 0 mod q; B(b3, b4) keeps its residue, as Q(b3) = 0
    c = (-head.q_value(b4) * inv34) % q
    b4 = [x + c * y for x, y in zip(b4, b3)]
    # orthogonalize the remaining two against the hyperbolic pair
    out12 = []
    for b in rest:
        al = (-B(b, b3) * inv34) % q
        bl = (-B(b, b4) * inv34) % q
        out12.append([x + al * y4 + bl * y3
                      for x, y4, y3 in zip(b, b4, b3)])
    u1, u2 = out12
    for u in (u1, u2):
        if B(u, b3) % q or B(u, b4) % q:
            raise InvalidParameter(f"{head.label}: splitting failed to "
                                   f"orthogonalize")
        if head.q_value(u) % p != 0:
            raise InvalidParameter(f"{head.label}: p-part direction has "
                                   f"unit norm")
    chain = []
    members = [(head.gram, [[int(i == j) for j in range(4)]
                            for i in range(4)])]
    for nn in range(depth + 1):
        # L_{n,1} = p^n Z^4 + Z u4;  L_{n,2} adds only p^n u1, p^n u2 and
        # p^(n+1) Z^4, so small generator representatives suffice
        gens1 = [[p ** nn if i == j else 0 for j in range(4)]
                 for i in range(4)]
        gens1.append([x % p ** nn if nn else 0 for x in b4])
        basis1 = linalg.hnf_basis(gens1)
        qn = p ** (nn + 1)
        gens2 = [[qn if i == j else 0 for j in range(4)] for i in range(4)]
        gens2.append([p ** nn * (x % p) for x in u1])
        gens2.append([p ** nn * (x % p) for x in u2])
        gens2.append([x % qn for x in b4])
        basis2 = linalg.hnf_basis(gens2)
        chain.append(tuple([[B(a, b) for b in basis] for a in basis]
                           for basis in (basis1, basis2)))
        members += zip(chain[-1], (basis1, basis2))
    check_chain_nested(members)
    return chain, (u1, u2, b3, b4)


def _isotropic_vector(lattice, p, q):
    """Primitive v with Q(v) = 0 mod q, a power of p, and a unit gradient."""
    n = lattice.rank
    units = [[int(i == k) for i in range(n)] for k in range(n)]
    start = next((v for v in itertools.product(range(p), repeat=n)
                  if any(v) and lattice.q_value(v) % p == 0
                  and any(lattice.bilinear(v, e) % p for e in units)), None)
    if start is None:
        raise InvalidParameter(f"{lattice.label}: no smooth isotropic "
                               f"direction mod p")
    v = start
    while lattice.q_value(v) % q:
        # the gradient stays a unit mod p: each step moves v by p
        w = next(e for e in units if lattice.bilinear(v, e) % p)
        c = (-lattice.q_value(v) * pow(lattice.bilinear(v, w), -1, q)) % q
        v = [(x + c * y) % q for x, y in zip(v, w)]
    g = math.gcd(*v)
    return [x // g for x in v]


@dataclass
class BudgetReport:
    T: list
    excluded: list
    per_m: list                    # dicts with m, local, g
    local_sum: Fraction
    global_sum: Fraction
    ratio: Fraction                # local_sum / global_sum


def run_budget(*, p, A, global_lattice, chain_head, depth, M, t_kind,
               t_params):
    """Full pipeline: chain, T-set, chain counts, S_M, local and global sums.

    The chain head (an IntLattice, as is global_lattice) is split to depth
    by ``derive_chain``; S_M, the m of the T-set that L_{depth,2}
    represents, is left out, as deeper members lie inside it.
    """
    if global_lattice.rank not in (4, 5):
        raise InvalidParameter(f"global lattice of rank {global_lattice.rank}"
                               f": q_L needs rank 4 (Hilbert) or 5 (Siegel)")
    chain, _ = derive_chain(chain_head, p, depth)
    t_set = build_T_set(t_kind, p,
                        t_params | {"det2": 2 * global_lattice.det()}, M)
    local = [0] * (M + 1)  # numerators over 2p
    for _, w, g in _weighted("superspecial", A, p, chain):
        counts = representation_counts(IntLattice(g), M)
        for m, r in enumerate(counts):
            local[m] += w * r
    # the last member weighed is L_{depth,2}
    excluded = [m for m in t_set if counts[m]]
    kept = [m for m in t_set if m not in excluded]
    if not kept:
        raise InvalidParameter(f"no m is kept: the T-set has {len(t_set)} "
                               f"members, {len(excluded)} of them excluded")
    per_m = [{"m": q.m, "local": Fraction(local[q.m], 2 * p),
              "g": global_g(A, p, q)}
             for q in coefficients(global_lattice, kept)]
    global_sum = sum((rec["g"] for rec in per_m), Fraction(0))
    if global_sum == 0:
        raise InvalidParameter("the global coefficients vanish on every "
                               "kept m")
    local_sum = Fraction(sum(local[m] for m in kept), 2 * p)
    return BudgetReport(T=t_set, excluded=excluded, per_m=per_m,
                        local_sum=local_sum, global_sum=global_sum,
                        ratio=local_sum / global_sum)

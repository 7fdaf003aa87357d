import io
import math
import os
import random
from fractions import Fraction

import pytest
import sympy

from froblat import budget, cli
from froblat.budget import (_complete_to_basis, alpha_const,
                            alpha_variants, check_chain_nested, derive_chain,
                            eisenstein_budget, global_g, run_budget)
from froblat.crystals import HILBERT_INERT_SSP, local_gram
from froblat.enumeration import representation_counts
from froblat.errors import ChainNotNested, InvalidParameter
from froblat.quadforms import IntLattice, local_density

HEAD = [[2, 0, -1, -1], [0, 2, -1, 0], [-1, -1, 6, -2], [-1, 0, -2, 18]]
LH = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, -6]]


def local_bound(case, A, p, r_tables, m):
    """The per-m local bound, written from the formula of the budget
    module's docstring: superspecial A(p+2)/(2p) r_{0,1} + A/2 r_{0,2} +
    sum_{n>=1} A p^n/2 (r_{n,1} + r_{n,2}); supergeneric A(p+1)/p r_0 +
    sum_{n>=1} A p^n r_n.  An entry of r_tables is a tuple (r_n1, r_n2)
    or one table; a None table and a supergeneric r_n2 count nothing."""
    total = Fraction(0)
    for n, entry in enumerate(r_tables):
        tables = entry if isinstance(entry, tuple) else (entry,)
        if case == "superspecial":
            weights = (Fraction(A * (p + 2), 2 * p), Fraction(A, 2)) \
                if n == 0 else (Fraction(A * p ** n, 2),) * 2
        else:
            weights = (Fraction(A * (p + 1), p) if n == 0 else A * p ** n,)
        total += sum(w * r[m] for w, r in zip(weights, tables)
                     if r is not None)
    return total


def test_alpha_values():
    assert alpha_const(5) == Fraction(109, 120)
    assert alpha_const(7) == Fraction(265, 336)
    assert alpha_const(3) == Fraction(29, 24)
    assert alpha_const(3) > Fraction(11, 12)
    vals = [alpha_const(p) for p in sympy.primerange(5, 98)]
    assert all(v < Fraction(11, 12) for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_alpha_variants_thresholds():
    for p in sympy.primerange(5, 30):
        var = alpha_variants(p)
        assert var["supergeneric_inert"] < Fraction(11, 12)
        assert var["supergeneric_ramified"] < Fraction(11, 12)
        if p >= 7:
            assert var["superspecial_ramified"] < Fraction(11, 12)
    assert alpha_variants(5)["superspecial_ramified"] > Fraction(11, 12)


def test_eisenstein_budget_closed_forms():
    for p in (5, 7, 11):
        for A in (1, 2, 3):
            closed = eisenstein_budget("superspecial", A, p, "geometric")
            assert closed == Fraction(A, p - 1) * alpha_const(p)
            chain = [(1 if n == 0 else p ** (3 * n), p ** (3 * n + 1))
                     for n in range(14)]
            fin = eisenstein_budget("superspecial", A, p, chain)
            assert fin < closed
            assert closed - fin < Fraction(1, p ** 20)
            sg = eisenstein_budget("supergeneric", A, p, "geometric")
            assert sg == Fraction(A, p - 1) * (
                Fraction(2, p) + Fraction(2, (p + 1) * (p * p - 1)))


def test_supergeneric_chain_sums_are_pinned():
    """Finite-chain sums whose values were fixed before the two sums
    shared one table of chain weights."""
    r = [[0, 1, 2, 3], [0, 0, 5, 1], [1, 1, 1, 1]]
    assert local_bound("supergeneric", 3, 7, r, 2) == Fraction(1812, 7)
    for v, sg, ss in ((0, Fraction(388, 1875), Fraction(169, 375)),
                      (1, Fraction(151, 625), Fraction(931, 1500))):
        assert eisenstein_budget("supergeneric", 2, 5,
                                 [1, 125, None, 5 ** 7], vp_m=v) == sg
        assert eisenstein_budget("superspecial", 2, 5,
                                 [(1, 5), (125, None), 5 ** 6], vp_m=v) == ss


def test_budget_single_term_and_monotone():
    p, A = 5, 2
    single = eisenstein_budget("superspecial", A, p, [(1, None)])
    assert single == Fraction(A * (p + 2), 2 * p) * Fraction(1, p - 1)
    coarse = [(1, p), (p ** 3, p ** 4)]
    fine = [(1, p), (p ** 4, p ** 5)]
    assert eisenstein_budget("superspecial", A, p, fine) \
        <= eisenstein_budget("superspecial", A, p, coarse)


def test_local_bound_plug_in():
    tables = [([0, 0, 0, 2], None)]
    assert local_bound("superspecial", 2, 5, tables, 3) == Fraction(14, 5)
    assert local_bound("superspecial", 2, 5, tables, 1) == 0


def test_global_g_validation():
    from froblat.eisenstein import q_L_hilbert
    q = q_L_hilbert(IntLattice(LH), 7)
    g = global_g(2, 5, q)
    assert g == Fraction(2, 4) * -q.value and g > 0
    with pytest.raises(InvalidParameter):
        global_g(0, 5, q)


def test_chain_derivation_and_nesting():
    chain, basis = derive_chain(IntLattice(HEAD), 5, 3)
    for n, (g1, g2) in enumerate(chain):
        L1, L2 = IntLattice(g1), IntLattice(g2)
        assert L1.is_positive_definite() and L2.is_positive_definite()
        assert L1.det() == 325 * 5 ** (6 * n)
        assert L2.det() == 325 * 5 ** (6 * n + 2)
    u1, u2, u3, u4 = basis
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    gwb = [(HEAD, ident)]
    for n in range(1, 4):
        b = [[5 ** n * x for x in u1], [5 ** n * x for x in u2],
             [5 ** n * x for x in u3], list(u4)]
        gwb.append((chain[n][0], b))
    assert check_chain_nested(gwb) == [5 ** 3, 5 ** 6, 5 ** 9]
    # a rational basis of a nested chain is scaled, not rejected
    halves = [[Fraction(x, 2) for x in row] for row in ident]
    assert check_chain_nested([(HEAD, halves), (HEAD, ident)]) == [2 ** 4]
    bad = [(HEAD, ident), (HEAD, [[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1, 0], [0, 0, 0, Fraction(1, 2)]])]
    with pytest.raises(ChainNotNested):
        check_chain_nested(bad)
    with pytest.raises(ChainNotNested):
        check_chain_nested([(HEAD, ident),
                            (HEAD, [[Fraction(1, 5), 0, 0, 0],
                                    [0, 1, 0, 0], [0, 0, 1, 0],
                                    [0, 0, 0, 1]])])
    # a degenerate member: det 0, where an index of 0 used to come back
    with pytest.raises(ChainNotNested):
        check_chain_nested([(HEAD, ident),
                            (HEAD, [[1, 0, 0, 0], [0, 1, 0, 0],
                                    [1, 1, 0, 0], [0, 0, 0, 1]])])


def test_derive_chain_certifies_its_chain(monkeypatch):
    """derive_chain hands its members' bases, from the head's identity,
    to check_chain_nested: the indices are p^(3n) and p^(3n+1)."""
    seen = []

    def spy(grams_with_bases):
        seen.append(check_chain_nested(grams_with_bases))
        return seen[-1]

    monkeypatch.setattr(budget, "check_chain_nested", spy)
    for depth in range(4):
        derive_chain(IntLattice(HEAD), 5, depth)
        assert seen[-1] == [5 ** (3 * n + i) for n in range(depth + 1)
                            for i in (0, 1)]
    assert seen[-1] == [1, 5, 125, 625, 15625, 78125, 1953125, 9765625]


def test_deep_chain_splits_modulo_its_depth():
    """At depth 9 the splitting holds modulo 5^10: u3 and u4 are
    isotropic and orthogonal to u1, u2 there (a fixed modulus 5^8 left
    Q(u4) = 5^8 times a unit)."""
    head = IntLattice(HEAD)
    chain, (u1, u2, u3, u4) = derive_chain(head, 5, 9)
    assert len(chain) == 10
    q = 5 ** 10
    assert head.q_value(u3) % q == 0 and head.q_value(u4) % q == 0
    for u in (u1, u2):
        for v in (u3, u4):
            assert head.bilinear(u, v) % q == 0


def test_one_entry_edits_of_the_head_give_a_chain_or_an_error():
    """Every symmetric edit by +-1 or +-2 of one entry of the chain head
    (fixtures/chain_head_p5.gram) derives a chain or raises
    InvalidParameter; an odd diagonal entry is rejected by name."""
    for i in range(4):
        for j in range(i, 4):
            for delta in (-2, -1, 1, 2):
                G = [row[:] for row in HEAD]
                G[i][j] = G[j][i] = HEAD[i][j] + delta
                odd = i == j and delta % 2
                try:
                    chain, _ = derive_chain(IntLattice(G), 5, 3)
                except InvalidParameter as exc:
                    assert not odd or f"entry ({i + 1}, {i + 1})" in str(exc)
                else:
                    assert not odd and len(chain) == 4


def test_complete_to_basis_first_column_is_v():
    rng = random.Random(17)
    vectors = [[17, -8, 20, 14], [331330, 0, 1, 1], [-1, 0, 0, 0],
               [0, 0, -1, 0], [0, 3, -5], [-7, 4], [1]]
    while len(vectors) < 400:
        v = [rng.randint(-40, 40) for _ in range(rng.randint(2, 5))]
        if math.gcd(*v) == 1 and any(x < 0 for x in v):
            vectors.append(v)
    for v in vectors:
        U = _complete_to_basis(v)
        assert [row[0] for row in U] == v
        assert abs(sympy.Matrix(U).det()) == 1
    with pytest.raises(InvalidParameter):
        _complete_to_basis([4, -6, 2])


def test_chain_head_completions():
    """The fixture lattice lies in the forced genus at 2, 5, and 13."""
    head = IntLattice(HEAD, "head")
    local5 = IntLattice(local_gram(HILBERT_INERT_SSP, 5, 2), "model5")
    lh = IntLattice(LH, "LH")
    for m in range(1, 31):
        assert local_density(5, head, m) == local_density(5, local5, m)
        assert local_density(13, head, m) == local_density(13, lh, m)
        assert local_density(2, head, m) == local_density(2, lh, m)
    assert head.det() == 325 and head.is_positive_definite()


HILBERT = {"t_kind": "hilbert", "t_params": {"N": 0, "C": 1}}
SQUARE_D5 = {"t_kind": "square", "t_params": {"D": 5}}


def budget_of(**facts):
    """run_budget on HEAD and LH at p = 5, A = 2; facts override the
    superspecial case, depth 2, M = 120 and the hilbert T-set."""
    return run_budget(**dict(p=5, A=2, case="superspecial", global_gram=LH,
                             chain_head=HEAD, depth=2, M=120, **HILBERT)
                      | facts)


def test_run_budget_small():
    rep = budget_of()
    assert rep.T
    assert rep.ratio == rep.local_sum / rep.global_sum
    assert rep.ratio <= Fraction(11, 12)


def test_run_budget_excludes_what_the_deepest_member_represents():
    """At depth 0 on T = {5 q^2}, L_{0,2} represents every m of T, so
    exclude_deep leaves nothing to compare."""
    rep = budget_of(depth=0, M=300, **SQUARE_D5)
    assert rep.T == [20, 45, 245] and rep.excluded == []
    chain, _ = derive_chain(IntLattice(HEAD), 5, 0)
    deep = representation_counts(IntLattice(chain[0][1]), 300)
    assert all(deep[m] for m in rep.T)
    for case in ("superspecial", "supergeneric"):
        with pytest.raises(InvalidParameter, match="no m is kept: the T-set "
                           "has 3 members, 3 of them excluded"):
            budget_of(case=case, depth=0, M=300, exclude_deep=True,
                      **SQUARE_D5)


def test_run_budget_supergeneric_is_pinned():
    rep = budget_of(case="supergeneric")
    assert (rep.local_sum, rep.global_sum, len(rep.T)) == (11280, 15314, 49)


@pytest.mark.parametrize("case, weighted, facts", [
    pytest.param("supergeneric", 1, HILBERT, id="supergeneric-1"),
    pytest.param("superspecial", 2, HILBERT, id="superspecial-2"),
    # T = [20, 45, 245]: L_{0,2} and L_{1,1} reach it, so the deep weights
    # count here, where on the hilbert T-set only L_{0,1} does
    pytest.param("supergeneric", 1, dict(SQUARE_D5, M=300),
                 id="supergeneric-1-square-D5"),
    pytest.param("superspecial", 2, dict(SQUARE_D5, M=300),
                 id="superspecial-2-square-D5"),
])
def test_run_budget_local_is_local_bound(case, weighted, facts):
    rep = budget_of(case=case, **facts)
    M = facts.get("M", 120)
    chain, _ = derive_chain(IntLattice(HEAD), 5, 2)
    r_tables = [tuple(representation_counts(IntLattice(g), M)
                      for g in entry[:weighted]) for entry in chain]
    assert rep.per_m
    for rec in rep.per_m:
        assert rec["local"] == local_bound(case, 2, 5, r_tables, rec["m"])
    assert rep.local_sum == sum(rec["local"] for rec in rep.per_m)


@pytest.mark.parametrize("case, exclude_deep, calls", [
    pytest.param("supergeneric", False, 3, id="supergeneric-3"),
    pytest.param("superspecial", False, 6, id="superspecial-6"),
    pytest.param("supergeneric", True, 4, id="supergeneric-deep-4"),
    pytest.param("superspecial", True, 6, id="superspecial-deep-6"),
])
def test_run_budget_enumerates_only_weighted_members(monkeypatch, case,
                                                     exclude_deep, calls):
    # a supergeneric chain weighs one member per level, so its second
    # member is enumerated only as the deepest one, for S_M; a
    # superspecial chain reuses L_{2,2}'s weighted counts for S_M
    seen = []

    def counting(lattice, bound):
        seen.append(lattice.det())
        return representation_counts(lattice, bound)

    monkeypatch.setattr(budget, "representation_counts", counting)
    budget_of(case=case, exclude_deep=exclude_deep)
    assert len(seen) == calls
    chain, _ = derive_chain(IntLattice(HEAD), 5, 2)
    if case == "supergeneric":
        assert seen == [IntLattice(g).det() for g, _ in chain] \
            + [IntLattice(chain[-1][1]).det()] * exclude_deep


def test_budget_command_enumerates_each_weighted_member_once(monkeypatch):
    """fixtures/budget_p5.cfg weighs 8 members to depth 3 and excludes
    by L_{3,2}, one of them: 8 enumerations."""
    dets = []

    def counting(lattice, bound):
        dets.append(lattice.det())
        return representation_counts(lattice, bound)

    for module in (budget, cli):
        monkeypatch.setattr(module, "representation_counts", counting)
    root = os.path.join(os.path.dirname(__file__), "..")
    monkeypatch.chdir(root)
    out = io.StringIO()
    assert cli.dispatch(["budget", "--config", "fixtures/budget_p5.cfg"],
                        out=out) == 0
    assert len(dets) == len(set(dets)) == 8


def test_run_budget_square_t_set_and_empty_t_set():
    rep = budget_of(depth=1, M=50, t_kind="square", t_params={"D": 1})
    assert rep.T == [4, 9, 49]
    # empty T-set: no global mass to compare against
    with pytest.raises(InvalidParameter):
        budget_of(depth=1, M=3, t_kind="square", t_params={"D": 1})

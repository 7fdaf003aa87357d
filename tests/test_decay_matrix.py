"""Regression matrix: every named case keeps its asserted decaying span.

The builders construct one curve per branch of the case analysis (the
relation of a, b for split curves; the interplay of the non-ordinary
order A with its Frobenius companion B for the rank-5 family; the
valuation pattern of y and z in the supergeneric family).  Verification
certifies that every primitive vector of the asserted span decays at
n_max = 2 and at n_max = 3.
"""

import hashlib
import io
import time
from functools import lru_cache

import pytest

from froblat.cli import CELLS_MAX, dispatch
from froblat.crystals import (CrystalModel, FormalCurve, decay_thresholds,
                              f_infinity, find_decaying_submodule,
                              truncation)
from froblat.errors import InvalidParameter
from froblat.padics import INF, PAdicParams
from froblat.series import column_valuation_profile
from froblat.regression import (build_fixture, decay_fixture_table,
                                run_decay_fixture, split_equal_decay_indices)
from series_oracle import coeffs

TABLE = decay_fixture_table(5)

# (nt, M) at which the F_inf behind each HEADROOM entry and FINF_SHA256
# digest was taken, and is built here: nt = A(1 + 5 + 25) + 1, the rule
# at n_max = 2, but 94 for supergeneric-y-dominant (63 by the rule), and
# M the floor, 9, for the two deep-cancel fixtures and 3 above it on the
# rest, where build_fixture works at the floor
PINNED_AT = {
    "split-equal": (63, 10), "split-equal-mirror": (63, 10),
    "split-even-power": (807, 12), "split-odd-power": (187, 11),
    "split-generic": (94, 10), "inert-superspecial": (63, 10),
    "inert-supergeneric": (32, 10), "siegel-A-below-B": (94, 10),
    "siegel-2.1": (311, 11), "siegel-2.2": (249, 11),
    "siegel-3.1": (249, 11), "siegel-3.1-special": (807, 12),
    "siegel-3.2": (187, 11), "supergeneric-y-dominant": (94, 10),
    "supergeneric-z-dominant": (32, 10), "supergeneric-balanced": (63, 10),
    "supergeneric-deep-cancel-strict": (1458, 9),
    "supergeneric-deep-cancel-equal": (1427, 9),
}

# (least known bound, number of masked coefficients) over the inexact
# coefficients of F_inf: a change to the series arithmetic may raise a
# bound or unmask a coefficient, never the reverse
HEADROOM = {
    "split-equal": (7, 53), "split-equal-mirror": (7, 53),
    "split-even-power": (9, 208), "split-odd-power": (8, 129),
    "split-generic": (7, 108), "inert-superspecial": (7, 16),
    "inert-supergeneric": (7, 8), "siegel-A-below-B": (7, 31),
    "siegel-2.1": (7, 132), "siegel-2.2": (8, 72), "siegel-3.1": (7, 180),
    "siegel-3.1-special": (8, 412), "siegel-3.2": (8, 40),
    "supergeneric-y-dominant": (7, 47), "supergeneric-z-dominant": (7, 8),
    "supergeneric-balanced": (7, 12),
    "supergeneric-deep-cancel-strict": (4, 709),
    "supergeneric-deep-cancel-equal": (4, 519),
}


# sha256 over every t^k coefficient of F_inf at n_max = 2, as
# (row, col, k, shift, coeffs, rel_prec, exact): a change to the series
# arithmetic must leave every digit and every bound as it is.  The pins
# are of the product formed from right to left; against the former
# left-to-right order, test_series.py's
# test_right_to_left_product_loses_no_digit guards every bound
FINF_SHA256 = {
    "split-equal":
        "1da2337aab03ac8e05723cecb558fd149bac1fa6491ae4dd46625da823419f57",
    "split-equal-mirror":
        "535e1275688e0092e0d2dd08df1a91191fe2027d125f3f1f773c2767b39a547d",
    "split-even-power":
        "306954602f7dba4685452d117a787a7e6c75e8718b8ae0be7ba85003dbaaec90",
    "split-odd-power":
        "3c7dbde4f58f2ce2947549d304ca47b1c64fcbd09670f5cbb3c4b62fbff0781b",
    "split-generic":
        "deed7b9b7655851bbf78d94ad754aeec664f22c0616b0d4726a84774775bd635",
    "inert-superspecial":
        "77fe80fb9503c2db708e34934c4474ba40919145363122160da9c971f555316a",
    "inert-supergeneric":
        "3bd7a7720d91e2926fb04cec36da5839478bbe2bd67394a2185cfd95c7e9f876",
    "siegel-A-below-B":
        "3550deaa0c5394158d1d90022d9213fbdc731711417990e1831807d9aa9cacea",
    "siegel-2.1":
        "ee8484e4de3632b6863883ec885599c03650692fef581fefa41edef4e04fee10",
    "siegel-2.2":
        "a3e56dd864a8dc3c7c589a8af292b1617194adb85dfcb59114ea8e1e551a22af",
    "siegel-3.1":
        "f1ab045a110a85442f52a4d10f0f2f14fffa4d6608e08bdd93ceb4e29cac7ba0",
    "siegel-3.1-special":
        "0c2b247c046f9055266855f3a37f10b8074ab1e43c7e828ba8a53d535aef5f3e",
    "siegel-3.2":
        "a7d7a4a1d22e3364be905e9d6e642773335068e581e71638fca61dba5e743e44",
    "supergeneric-y-dominant":
        "3ef9850671ced2f76bd31a52782d30ba957c5b79891e8f633c21bf2a7f8ccf4e",
    "supergeneric-z-dominant":
        "1905a5d08d5ec208ca66aec438025a05d91a244956467575949d418df716815c",
    "supergeneric-balanced":
        "367945002fc324b04ea41dced420dc4484dea9a72e73c3417ede947dc24590ec",
    "supergeneric-deep-cancel-strict":
        "235b23438a595b6e76019075b2ccc3d419222c3033d86c5253529af4428c7f30",
    "supergeneric-deep-cancel-equal":
        "f35eab4bb48e0f16f040820e51687ba83ad98e8202f2994f61d0d4d4b35e59e5",
}


@lru_cache(maxsize=None)
def finf_of(name):
    """F_inf at n_max = 2 for a fixture, built at its PINNED_AT (nt, M)."""
    fix = next(f for f in TABLE if f["name"] == name)
    nt, M = PINNED_AT[name]
    params = PAdicParams(fix["p"], fix["d"], M)
    c_res, comps = fix["make"](params.residue_field, params.eps_int)
    model = CrystalModel(fix["case"], params, c_residue=c_res)
    return f_infinity(model, FormalCurve(nt=nt, **comps), n_max=2)


def finf_digest(name):
    h = hashlib.sha256()
    for r, row in enumerate(finf_of(name).entries):
        for col, e in enumerate(row):
            for k, c in sorted(coeffs(e).items()):
                h.update(repr((r, col, k, c.shift, c.coeffs, c.rel_prec,
                               c.exact)).encode())
    return h.hexdigest()


def inexact_finf_coefficients(name):
    """Every inexact t^k coefficient of the fixture's pinned F_inf."""
    return [c for row in finf_of(name).entries for e in row
            for c in coeffs(e).values() if not c.exact]


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_named_case(fix):
    res = run_decay_fixture(fix, n_max=2)
    assert res["A"] == fix["A"]
    assert len(res["basis"]) == 3
    if fix["want_witness"]:
        assert res["witness"] is not None


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_witness_is_wanted_exactly_without_a_frob(fix):
    """The expected witness outcome is the model's own rule.  A fixture
    states no nt and no precision: at every depth it is built at the
    (nt, M) that ``froblat decay`` derives from its A, the curve
    truncated just past the last threshold."""
    model, curve = build_fixture(fix)
    assert curve.nt == decay_thresholds(fix["A"], 5, 2)[-1] + 1
    assert fix["want_witness"] == (model.a_frob is None)
    assert not {"precision", "nt_floor"} & set(fix)
    for n_max in range(5):
        model, curve = build_fixture(fix, n_max)
        assert (curve.nt, model.params.precision_M) \
            == truncation(fix["A"], 5, n_max)


def test_every_fixture_certifies_at_depth_three():
    """Each fixture, built for n_max = 3, certifies one of its asserted
    spans, with a witness where one is wanted.  Runtime bound: 30 s."""
    start = time.time()
    for fix in TABLE:
        res = run_decay_fixture(fix, n_max=3)
        assert res["nt"] == decay_thresholds(fix["A"], 5, 3)[-1] + 1
        assert tuple(map(tuple, res["basis"])) in fix["asserted"]
        assert (res["witness"] is not None) == fix["want_witness"]
    assert time.time() - start < 30


def test_split_equal_indices_exact():
    assert split_equal_decay_indices(5, 2) == [2, 12, 62]


def test_split_equal_indices_through_depth_four():
    """w1's index at level n is (p^(n+1) - 1)/2 at p = 5, n <= 4, with nt
    derived from n_max so that no index rests on the truncation.  Runtime
    bound: 5 s."""
    start = time.time()
    assert split_equal_decay_indices(5, 4) \
        == [(5 ** (n + 1) - 1) // 2 for n in range(5)] \
        == [2, 12, 62, 312, 1562]
    assert time.time() - start < 5


def test_mirror_branch_changes_the_third_vector():
    by_name = {f["name"]: f for f in TABLE}
    plain = run_decay_fixture(by_name["split-equal"])
    mirror = run_decay_fixture(by_name["split-equal-mirror"])
    assert plain["basis"][2] == [0, 0, 1, 0]
    assert mirror["basis"][2] == [0, 0, 0, 1]


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_finf_digits_are_reduced(fix):
    p = fix["p"]
    for c in inexact_finf_coefficients(fix["name"]):
        assert all(0 <= x < p ** c.rel_prec for x in c.coeffs), c


def test_headroom_table_covers_every_fixture():
    assert set(HEADROOM) == {f["name"] for f in TABLE}


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_finf_headroom_no_worse(fix):
    coeffs = inexact_finf_coefficients(fix["name"])
    least = min((c.known_bound() for c in coeffs), default=INF)
    masked = sum(c.is_precision_zero() for c in coeffs)
    pinned_least, pinned_masked = HEADROOM[fix["name"]]
    assert least >= pinned_least
    assert masked <= pinned_masked


@pytest.mark.parametrize("name", sorted(FINF_SHA256))
def test_finf_digest_pinned(name):
    assert finf_digest(name) == FINF_SHA256[name]


def test_finf_digest_table_covers_every_fixture():
    assert set(FINF_SHA256) == set(PINNED_AT) == {f["name"] for f in TABLE}


def support(fix):
    """The columns run_decay_fixture asks for: those its spans touch."""
    return sorted({j for basis in fix["asserted"] for v in basis
                   for j, x in enumerate(v) if x})


def coefficients(series):
    return [(k, c.shift, c.coeffs, c.rel_prec)
            for k, c in sorted(coeffs(series).items())]


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_restricted_product_columns_equal_the_full_product(fix):
    model, curve = build_fixture(fix)
    cols = support(fix)
    part = f_infinity(model, curve, n_max=2, columns=cols)
    full = f_infinity(model, curve, n_max=2)
    for part_row, full_row in zip(part.entries, full.entries, strict=True):
        for j, (a, b) in enumerate(zip(part_row, full_row, strict=True)):
            if j in cols:
                assert coefficients(a) == coefficients(b)
            else:
                assert a is None


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_a_column_not_computed_is_refused(fix):
    """A product of one column reads that column and refuses every vector
    that touches another one; it never reads a missing column as 0."""
    model, curve = build_fixture(fix)
    first, rank = support(fix)[0], model.rank
    part = f_infinity(model, curve, n_max=2, columns=[first])
    held = [int(i == first) for i in range(rank)]
    assert column_valuation_profile(part, held).minvals
    with pytest.raises(InvalidParameter):
        part.apply_int_vector([1] * rank)
    for j in range(rank):
        if j != first:
            with pytest.raises(InvalidParameter):
                column_valuation_profile(part, [int(i == j)
                                                for i in range(rank)])


def write_curve_file(fix, path):
    """The fixture as a curve file: its case, p, d, c and components,
    with no truncation and no precision."""
    params = PAdicParams(fix["p"], fix["d"], 1)
    rf = params.residue_field
    c_res, comps = fix["make"](rf, params.eps_int)

    def coeff(r):
        return ".".join(map(str, rf.element(r)))
    lines = [f"case={fix['case']}", f"p={fix['p']}", f"d={fix['d']}"]
    if c_res is not None:
        lines.append(f"c={coeff(c_res)}")
    lines += [f"{w}=" + " ".join(f"{e}:{coeff(r)}" for e, r in comp.items())
              for w, comp in comps.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _number(token):
    return INF if token == "inf" else int(token.rstrip("?"))


def test_every_fixture_as_a_curve_file_matches_its_build(tmp_path):
    """``decay --search`` on each fixture written as a curve file, at
    --nmax 2 and 3, derives nt and M from the A it reads: it prints the
    fixture's A, the span and witness that the default search finds on
    ``build_fixture``'s model, and every index at or below its level's
    threshold as ``build_fixture``'s F_inf gives it.  Runtime bound:
    60 s."""
    start = time.time()
    for fix in TABLE:
        path = write_curve_file(fix, tmp_path / f"{fix['name']}.curve")
        for n_max in (2, 3):
            out = io.StringIO()
            assert dispatch(["decay", "--curve", path, "--nmax", str(n_max),
                             "--search"], out=out) == 0
            head, *rows, search = out.getvalue().splitlines()
            assert head.split()[1] == f"A={fix['A']}"
            model, curve = build_fixture(fix, n_max)
            finf = f_infinity(model, curve, n_max=n_max)
            basis, witness = find_decaying_submodule(model, finf, fix["A"],
                                                     n_max=n_max)
            assert search == "span={} witness={}".format(
                ";".join(",".join(map(str, v)) for v in basis),
                ",".join(map(str, witness)) if witness else "-")
            thrs = decay_thresholds(fix["A"], fix["p"], n_max)
            assert len(rows) == model.rank
            for i, row in enumerate(rows):
                e_i = [int(j == i) for j in range(model.rank)]
                profile = column_valuation_profile(finf, e_i)
                for n, field in enumerate(row.split()[1:]):
                    token = field.split("=")[1]
                    idx, masked = profile.decay_index(n)
                    want = f"{idx}?" if masked else str(idx)
                    if min(_number(token), _number(want)) <= thrs[n]:
                        assert token == want, (fix["name"], n_max, row)
    assert time.time() - start < 60


def test_a_decay_past_the_cell_cap_is_refused_at_once(tmp_path):
    """supergeneric-deep-cancel-equal as a curve file needs more than
    CELLS_MAX digit cells, nt * d * rank^2, at --nmax 5 and 6 (nt = 179677
    and 898427, d = 8, rank 5): refused before any series is built.  At
    --nmax 4 (7185400 cells) it runs.  Runtime bound: 2 s."""
    fix = next(f for f in TABLE
               if f["name"] == "supergeneric-deep-cancel-equal")
    path = write_curve_file(fix, tmp_path / "deep-cancel-equal.curve")
    assert 35927 * 8 * 25 <= CELLS_MAX
    start = time.time()
    for n_max, nt in ((5, 179677), (6, 898427)):
        out = io.StringIO()
        assert dispatch(["decay", "--curve", path, "--nmax", str(n_max)],
                        out=out) == 1
        assert out.getvalue() == (
            f"error=InvalidParameter detail=--nmax {n_max} needs nt = {nt}, "
            f"{nt * 8 * 25} cells of nt * d * rank^2, past CELLS_MAX = "
            f"{CELLS_MAX}\n")
    assert time.time() - start < 2

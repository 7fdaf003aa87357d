"""Regression matrix: every named case keeps its asserted decaying span.

The builders construct one curve per branch of the case analysis (the
relation of a, b for split curves; the interplay of the non-ordinary
order A with its Frobenius companion B for the rank-5 family; the
valuation pattern of y and z in the supergeneric family).  Verification
certifies that every primitive vector of the asserted span decays at
n_max = 2.
"""

from functools import lru_cache

import pytest

from froblat.crystals import CrystalModel, f_infinity
from froblat.padics import INF, PAdicParams
from froblat.regression import (decay_fixture_table, run_decay_fixture,
                                split_equal_decay_indices)

TABLE = decay_fixture_table(5)

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


@lru_cache(maxsize=None)
def inexact_finf_coefficients(name):
    """Every inexact t^k coefficient of the fixture's F_inf at n_max = 2."""
    fix = next(f for f in TABLE if f["name"] == name)
    params = PAdicParams(fix["p"], fix["d"], fix["precision"])
    c_res, curve = fix["make"](params.residue_field, params.eps_int)
    model = CrystalModel(fix["case"], params, c_residue=c_res)
    finf = f_infinity(model, curve, n_max=2)
    return [c for row in finf.entries for e in row
            for c in e.coeffs.values() if not c.exact]


@pytest.mark.parametrize("fix", TABLE, ids=[f["name"] for f in TABLE])
def test_named_case(fix):
    res = run_decay_fixture(fix, n_max=2)
    assert res["A"] == fix["A"]
    assert len(res["basis"]) == 3
    if fix["want_witness"]:
        assert res["witness"] is not None


def test_split_equal_indices_exact():
    assert split_equal_decay_indices(5, 2) == [2, 12, 62]


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

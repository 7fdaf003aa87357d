"""Regression matrix: every named case keeps its asserted decaying span.

The builders construct one curve per branch of the case analysis (the
relation of a, b for split curves; the interplay of the non-ordinary
order A with its Frobenius companion B for the rank-5 family; the
valuation pattern of y and z in the supergeneric family).  Verification
certifies that every primitive vector of the asserted span decays at
n_max = 2.
"""

import pytest

from froblat.regression import (decay_fixture_table, run_decay_fixture,
                                split_equal_decay_indices)

TABLE = decay_fixture_table(5)


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

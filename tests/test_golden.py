"""CLI stdout is byte-identical to the checked-in golden files.

The files under tests/golden/ were written by the same commands; a change
that alters any of them must say why and regenerate the file.
"""

import io
import pathlib

import pytest

from froblat.cli import dispatch

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = {
    "selftest": ["selftest"],
    "decay_search": ["decay", "--curve", "fixtures/xt_yt.curve",
                     "--search"],
    "decay_hilbert_split": ["decay", "--curve", "fixtures/xt_yt.curve",
                            "--nmax", "2"],
    "decay_depth_four": ["decay", "--curve", "fixtures/xt_yt.curve",
                         "--nmax", "4", "--search"],
    "budget_p5": ["budget", "--config", "fixtures/budget_p5.cfg"],
    "budget_p7": ["budget", "--config", "fixtures/budget_p7.cfg"],
    "budget_p11": ["budget", "--config", "fixtures/budget_p11.cfg"],
    "eisenstein_ls_global": ["eisenstein", "--lattice",
                             "fixtures/ls_global.gram", "--m-range",
                             "1..20"],
    "density_d5_ell2": ["density", "--gram", "fixtures/d5.gram", "--ell",
                        "2", "--m-range", "1..64"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_stdout_matches_golden(name, monkeypatch):
    monkeypatch.chdir(ROOT)  # the budget config names its Grams by path
    out = io.StringIO()
    assert dispatch(GOLDEN[name], out=out) == 0
    assert out.getvalue().encode() == \
        (ROOT / "tests" / "golden" / f"{name}.out").read_bytes()

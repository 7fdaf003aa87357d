import io
import os
import subprocess
import sys
import time

import pytest

from froblat import cli, errors
from froblat.cli import dispatch
from froblat.eisenstein import H2_READ_AHEAD

FIX = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def run(argv):
    out = io.StringIO()
    code = dispatch(argv, out=out)
    return code, out.getvalue()


def fx(name):
    return os.path.join(FIX, name)


def test_density_golden():
    code, text = run(["density", "--gram", fx("siegel_ssp_p5.gram"),
                      "--ell", "5", "--m-range", "5..5"])
    assert code == 0
    assert "delta=126/125" in text


def test_density_with_hanke():
    """delta is Hanke's density; the --hanke column option is gone."""
    code, text = run(["density", "--gram", fx("hilbert_split_p5.gram"),
                      "--ell", "5", "--m-range", "1..6"])
    assert code == 0
    for line in text.splitlines():
        if "m=3" in line:
            assert "delta=6/5" in line
    code, text = run(["density", "--gram", fx("hilbert_split_p5.gram"),
                      "--ell", "5", "--m-range", "1..6", "--hanke"])
    assert code == 1
    assert text.startswith("error=InvalidParameter detail=")
    assert "--hanke" in text and len(text.splitlines()) == 1


def test_density_past_the_table_cap_is_one_error_record():
    """The least prime above TABLE_MAX needs a table mod l of more
    entries than the cap."""
    code, text = run(["density", "--gram", fx("z4.gram"), "--ell", "1048583",
                      "--m-range", "1..1"])
    assert code == 1
    assert text.startswith("error=InvalidParameter detail=a residue table")
    assert len(text.splitlines()) == 1


def test_density_hanke_at_two_matches_the_stable_count():
    from froblat.quadforms import IntLattice, local_density
    lat = IntLattice(cli.read_gram(fx("z4.gram")))
    code, text = run(["density", "--gram", fx("z4.gram"), "--ell", "2",
                      "--m-range", "1..16"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 16
    for m, line in enumerate(lines, 1):
        fields = dict(field.split("=") for field in line.split())
        assert fields["delta"] == cli._frac(local_density(2, lat, m)), line


def test_density_answers_past_the_stable_count_table(monkeypatch):
    """At l = 2 the stable count at m = 512 needs a table mod 2^21, past
    TABLE_MAX; Hanke's reads tables mod 8.  D5 is a one-class genus whose
    only bad prime is 2, so r(512) is the Siegel-Eisenstein coefficient,
    and that coefficient's delta at 2 is the one printed here."""
    from froblat.eisenstein import q_positive_definite
    from froblat.enumeration import representation_counts
    from froblat.quadforms import IntLattice
    code, text = run(["density", "--gram", fx("d5.gram"), "--ell", "2",
                      "--m-range", "512..512"])
    assert (code, text) == (0, "m=512 ell=2 delta=187245/262144\n")
    code, text = run(["density", "--gram", fx("d5.gram"), "--ell", "2",
                      "--m-range", "1048576..1048576"])
    assert (code, text) == \
        (0, "m=1048576 ell=2 delta=3067833785/4294967296\n")
    d5 = IntLattice(cli.read_gram(fx("d5.gram")))
    assert representation_counts(d5, 512)[512] \
        == q_positive_definite(d5, 512).value == 374490


def test_decay_table():
    code, text = run(["decay", "--curve", fx("xt_yt.curve"), "--nmax", "2"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "case=hilbert-split A=2 nt=63"
    assert "vector=w1 n0=2 n1=12 n2=62" in lines
    assert "vector=w4 n0=inf n1=inf n2=inf" in lines


@pytest.mark.parametrize("search", [[], ["--search"]],
                         ids=["table", "search"])
def test_decay_through_depth_four(search):
    """nt and M follow from A and --nmax: at --nmax 4, nt = 1563 lies
    past the last threshold, 1562, so every index is the true one."""
    code, text = run(["decay", "--curve", fx("xt_yt.curve"), "--nmax", "4"]
                     + search)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "case=hilbert-split A=2 nt=1563"
    for w, idx in (("w1", [2, 12, 62, 312, 1562]),
                   ("w2", [2, 12, 62, 312, 1562]),
                   ("w3", [1, 7, 37, 187, 937]), ("w4", ["inf"] * 5)):
        assert f"vector={w} " + " ".join(
            f"n{n}={i}" for n, i in enumerate(idx)) in lines
    assert len(lines) == 5 + bool(search)


def test_decay_past_the_truncation_bound_returns_at_once():
    """--nmax 30 asks for nt = 2 (5^31 - 1) / 4 + 1, and nt * d * rank^2
    = 32 nt digit cells at d = 2, rank 4: refused before any series is
    built.  Runtime bound: 2 s."""
    start = time.time()
    code, text = run(["decay", "--curve", fx("xt_yt.curve"), "--nmax", "30"])
    assert time.time() - start < 2
    assert code == 1
    nt = 2 * (5 ** 31 - 1) // 4 + 1
    assert text == ("error=InvalidParameter detail=--nmax 30 needs nt = "
                    f"{nt}, {32 * nt} cells of nt * d * rank^2, past "
                    f"CELLS_MAX = {1 << 23}\n")


def test_theta_counts():
    code, text = run(["theta", "--lattice", fx("z4.gram"), "--max", "2"])
    assert code == 0
    assert "m=1 r=8" in text and "m=2 r=24" in text
    code, text = run(["theta", "--lattice", fx("z5.gram"), "--max", "10",
                      "--squares", "1"])
    assert code == 0
    assert "kind=squares" in text


@pytest.mark.parametrize("extra", [[], ["--m-range", "1..2"]],
                         ids=["alone", "beside-m-range"])
def test_density_options_are_not_abbreviated(extra):
    """--m is no prefix of --m-range: alone or beside it, it is one error
    record, not a run at m = 5 or m = 1..2."""
    code, text = run(["density", "--gram", fx("siegel_ssp_p5.gram"),
                      "--ell", "5", "--m", "5"] + extra)
    assert code == 1
    assert text == ("error=InvalidParameter detail=froblat: unrecognized "
                    "arguments: --m 5\n")


def test_theta_primes_sums_the_prime_counts():
    code, text = run(["theta", "--lattice", fx("z4.gram"), "--max", "30",
                      "--primes"])
    assert code == 0
    assert text == "kind=primes count=1112\n"
    _, plain = run(["theta", "--lattice", fx("z4.gram"), "--max", "30"])
    r = [int(line.split("r=")[1]) for line in plain.splitlines()]
    assert sum(r[l] for l in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)) == 1112


@pytest.mark.parametrize("argv, detail", [
    (["decay", "--curve", fx("xt_yt.curve"), "--nmax", "x"],
     "argument --nmax: invalid int value: 'x'"),
    (["theta", "--lattice", fx("z4.gram")],
     "the following arguments are required: --max"),
    (["theta", "--lattice", fx("z5.gram"), "--max", "10", "--squares", "1",
      "--primes"], "argument --primes: not allowed with argument --squares"),
], ids=["nmax-x", "theta-without-max", "theta-squares-and-primes"])
def test_usage_error_is_one_error_record(argv, detail):
    code, text = run(argv)
    assert code == 1
    assert text == (f"error=InvalidParameter detail=froblat {argv[0]}: "
                    f"{detail}\n")


def test_theta_negative_max_exits_one():
    code, text = run(["theta", "--lattice", fx("z4.gram"), "--max", "-1"])
    assert code == 1
    assert text == ("error=InvalidParameter detail=count bound -1 is "
                    "negative\n")


def test_theta_max_past_the_cap_exits_one():
    code, text = run(["theta", "--lattice", fx("z4.gram"),
                      "--max", "1099511627776"])
    assert code == 1
    assert text == ("error=InvalidParameter detail=count bound "
                    "1099511627776: at most 1048576 counts are held\n")


def test_theta_on_an_indefinite_gram_names_its_file():
    """Each orthogonal component carries the lattice's own label, so the
    record names the Gram file, not a component of it."""
    path = fx("lh_f13.gram")
    code, text = run(["theta", "--lattice", path, "--max", "5"])
    assert code == 1
    assert text == (f"error=NotPositiveDefinite detail={path}: enumeration "
                    "needs a positive-definite form\n")


def test_decay_negative_nmax_exits_one():
    code, text = run(["decay", "--curve", fx("xt_yt.curve"), "--nmax", "-1"])
    assert code == 1
    assert text == "error=InvalidParameter detail=--nmax -1 is negative\n"


def test_eisenstein_records():
    code, text = run(["eisenstein", "--lattice", fx("ls_global.gram"),
                      "--m-range", "4..4"])
    assert code == 0
    assert "m=4" in text and "sign=-1" in text


def test_eisenstein_streams_the_records_before_a_refused_m():
    # H(2, D0) at m = 1048578 is past the g table: the two m before it
    # are written before its error record
    code, text = run(["eisenstein", "--lattice", fx("ls_global.gram"),
                      "--m-range", "1048576..1048578"])
    assert code == 1
    assert text == (
        "m=1048576 m0=1048576 f=1 sign=-1 exact=-73628010790\n"
        "m=1048577 m0=1048577 f=1 sign=-1 exact=-51833295360\n"
        "error=InvalidParameter detail=H(2, 4194312): the g table holds "
        "at most 4194304 entries\n")


def test_a_chunk_writes_every_record_before_an_m_past_the_g_table():
    # every D0 below m = 1048578 is under the g table, and 1048578 sits
    # deep in the second read-ahead chunk: the error comes after them all
    lo = 1048578 - H2_READ_AHEAD - 200
    code, text = run(["eisenstein", "--lattice", fx("ls_global.gram"),
                      "--m-range", f"{lo}..1048600"])
    assert code == 1
    *records, error = text.splitlines()
    assert [int(ln.split()[0][2:]) for ln in records] \
        == list(range(lo, 1048578))
    assert error == ("error=InvalidParameter detail=H(2, 4194312): the g "
                     "table holds at most 4194304 entries")


def test_missing_file_exits_one():
    code, text = run(["density", "--gram", "no_such_file.gram",
                      "--ell", "5", "--m-range", "1..1"])
    assert code == 1
    assert "error=" in text


def test_non_prime_ell_exits_one():
    code, text = run(["density", "--gram", fx("z4.gram"), "--ell", "4",
                      "--m-range", "5..5"])
    assert code == 1
    assert text == "error=InvalidParameter detail=ell = 4 is not a prime\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_non_integer_gram_entry_names_the_line(tmp_path):
    gram = _write(tmp_path, "bad.gram", "# header\n2 0\n0 x\n")
    code, text = run(["density", "--gram", gram, "--ell", "5",
                      "--m-range", "1..1"])
    assert code == 1
    assert text.startswith("error=InvalidParameter")
    assert f"{gram} line 3: non-integer Gram entry" in text


def test_ragged_gram_rows_name_the_line(tmp_path):
    gram = _write(tmp_path, "ragged.gram", "2 0 0\n0 2\n0 0 2\n")
    code, text = run(["theta", "--lattice", gram, "--max", "5"])
    assert code == 1
    assert text.startswith("error=InvalidParameter")
    assert f"{gram} line 2: row has 2 entries" in text


@pytest.mark.parametrize("cmd, text, detail", [
    ("theta", "2 1\n0 2\n", "Gram entries (1, 2) = 1 and (2, 1) = 0 differ; "
     "a Gram matrix must be symmetric"),
    ("theta", "2 0 0\n0 2 1\n0 1 3\n", "Gram entry (3, 3) = 3 is odd; "
     "the diagonal of a bilinear Gram is even"),
    ("density", "2 2\n2 2\n", "degenerate form (det = 0)"),
])
def test_malformed_gram_names_the_file_and_entry(tmp_path, cmd, text, detail):
    gram = _write(tmp_path, "bad.gram", text)
    flag = ["--gram", gram, "--ell", "5"] if cmd == "density" \
        else ["--lattice", gram, "--max", "5"]
    code, out = run([cmd] + flag)
    assert code == 1
    assert out == f"error=InvalidParameter detail={gram}: {detail}\n"


@pytest.mark.parametrize("head, detail", [
    # the chain's Hensel lift never ends on this head: the check comes first
    pytest.param("3 0 -1 -1\n0 2 -1 0\n-1 -1 6 -2\n-1 0 -2 18\n",
                 "Gram entry (1, 1) = 3 is odd; the diagonal of a bilinear "
                 "Gram is even", id="odd-diagonal"),
    # on this one the splitting fails later, naming no entry
    pytest.param("2 1 -1 -1\n0 2 -1 0\n-1 -1 6 -2\n-1 0 -2 18\n",
                 "Gram entries (1, 2) = 1 and (2, 1) = 0 differ; a Gram "
                 "matrix must be symmetric", id="asymmetric"),
])
def test_malformed_chain_head_is_one_error_record(tmp_path, head, detail):
    gram = _write(tmp_path, "head.gram", head)
    with open(fx("budget_p5.cfg")) as fh:
        text = "".join(f"chain_head={gram}\n" if ln.startswith("chain_head=")
                       else ln for ln in fh)
    cfg = _write(tmp_path, "head.cfg", text)
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out == f"error=InvalidParameter detail={gram}: {detail}\n"


@pytest.mark.parametrize("name, detail", [
    # a supergeneric head at 5: (5, 5, 5, 10), no unimodular part
    ("hilbert_inert_sg_p5.gram", "no smooth isotropic direction mod p"),
    # (1, 2, 5, 10) at 5: a unimodular part that is not hyperbolic
    ("hilbert_split_p5.gram", "no smooth isotropic direction mod p"),
    # unimodular at 5: no p-scaled part is left for u1 and u2
    ("lh_f13.gram", "p-part direction has unit norm"),
])
def test_a_head_derive_chain_refuses_is_one_record_naming_it(tmp_path, name,
                                                             detail):
    with open(fx("budget_p5.cfg")) as fh:
        text = "".join(f"chain_head={fx(name)}\n"
                       if ln.startswith("chain_head=") else ln for ln in fh)
    cfg = _write(tmp_path, "head.cfg", text)
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out == f"error=InvalidParameter detail={fx(name)}: {detail}\n"


def test_curve_without_degree_names_the_key(tmp_path):
    with open(fx("xt_yt.curve")) as fh:
        lines = [ln for ln in fh if not ln.startswith("d=")]
    curve = _write(tmp_path, "nod.curve", "".join(lines))
    code, text = run(["decay", "--curve", curve])
    assert code == 1
    assert text == (f"error=InvalidParameter detail={curve}: "
                    f"missing key 'd'\n")


@pytest.mark.parametrize("old, new, detail", [
    ("p=5", "p=five", "p='five' is not an integer"),
    ("x=1:1", "x=1:a", "x='1:a' is not integer coefficients"),
    ("x=1:1", "x=1:1.2.3", "x='1:1.2.3' has more than d = 2 coordinates"),
    ("d=2", "d=2\nc=1.2.3", "c='1.2.3' has more than d = 2 coordinates"),
    ("y=1:1", "y=1:1\nz=1:1",
     "z='1:1' is set, but case hilbert-split has no z component"),
    ("d=2", "d=2\nc=1", "split case carries no parameter c"),
    ("case=hilbert-split", "case=inert-superspecial",
     "unknown case 'inert-superspecial'"),
    ("case=hilbert-split", "case=siegel-superspecial",
     "case siegel-superspecial needs the parameter c"),
    ("p=5", "p=9", "p = 9 is not an odd prime"),
    ("d=2", "d=2\nprecison=10", "unknown key 'precison'"),
    ("d=2", "d=2\nnt=63", "unknown key 'nt'"),
    ("d=2", "d=2\nprecision=10", "unknown key 'precision'"),
    ("d=2", "d=2\nd=4", "key 'd' is given twice"),
])
def test_curve_non_integer_value_names_the_key(tmp_path, old, new, detail):
    with open(fx("xt_yt.curve")) as fh:
        text = fh.read().replace(old, new)
    curve = _write(tmp_path, "bad.curve", text)
    code, out = run(["decay", "--curve", curve])
    assert code == 1
    assert out == f"error=InvalidParameter detail={curve}: {detail}\n"


@pytest.mark.parametrize("key", ["p", "A", "global_gram", "chain_head"])
def test_budget_config_missing_key_names_the_key(tmp_path, key):
    with open(fx("budget_p5.cfg")) as fh:
        lines = [ln for ln in fh if not ln.startswith(key + "=")]
    cfg = _write(tmp_path, "nokey.cfg", "".join(lines))
    code, text = run(["budget", "--config", cfg])
    assert code == 1
    assert text == (f"error=InvalidParameter detail={cfg}: "
                    f"missing key {key!r}\n")


@pytest.mark.parametrize("line, detail", [
    ("dpeth=5", "unknown key 'dpeth'"),
    ("det2=26", "unknown key 'det2'"),
    # the field is read from the global lattice's determinant
    ("disc_F=13", "unknown key 'disc_F'"),
    ("family=hilbert", "unknown key 'family'"),
    # S_M is always left out
    ("exclude=deep", "unknown key 'exclude'"),
    # the chain head's shape settles the case
    ("case=superspecial", "unknown key 'case'"),
    ("D=5", "D='5' is not read by t_kind hilbert"),
    ("M=50", "key 'M' is given twice"),
])
def test_budget_config_stray_key_names_the_key(tmp_path, line, detail):
    with open(fx("budget_p5.cfg")) as fh:
        cfg = _write(tmp_path, "stray.cfg", fh.read() + line + "\n")
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out == f"error=InvalidParameter detail={cfg}: {detail}\n"


@pytest.mark.parametrize("key, typo, detail", [
    pytest.param("global_gram", "{tmp}/r3.gram", "global lattice of rank 3",
                 id="global_gram-rank3"),
    pytest.param("N", "600", "no m is kept: the T-set has 0 members, 0 of "
                 "them excluded", id="N-600"),
])
def test_budget_config_typo_is_one_error_record(tmp_path, key, typo, detail):
    _write(tmp_path, "r3.gram", "2 1 0\n1 2 0\n0 0 2\n")
    typo = typo.format(tmp=tmp_path)
    with open(fx("budget_p5.cfg")) as fh:
        text = "".join(f"{key}={typo}\n" if ln.startswith(key + "=")
                       else ln for ln in fh)
    cfg = _write(tmp_path, "typo.cfg", text)
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out.startswith("error=InvalidParameter detail="
                          + detail.format(cfg=cfg))
    assert out.count("\n") == 1


@pytest.mark.parametrize("key, value, detail", [
    ("depth", "-1", "is negative"),
    ("M", "-5", "is not positive"),
    ("p", "4", "is not a prime"),
    ("A", "0", "is not positive"),
])
def test_budget_config_out_of_range_names_the_key(tmp_path, key, value,
                                                  detail):
    with open(fx("budget_p5.cfg")) as fh:
        text = "".join(f"{key}={value}\n" if ln.startswith(key + "=")
                       else ln for ln in fh)
    cfg = _write(tmp_path, "range.cfg", text)
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out == (f"error=InvalidParameter detail={cfg}: "
                   f"{key}={value!r} {detail}\n")


@pytest.mark.parametrize("kind, key, value, detail", [
    ("square", "D", "0", "is not positive"),
    ("square", "D", "-3", "is not positive"),
    ("hilbert", "N", "-1", "is negative"),
    ("hilbert", "C", "-1", "is negative"),
])
def test_budget_config_t_set_value_out_of_range_names_the_key(
        tmp_path, kind, key, value, detail):
    with open(fx("budget_p5.cfg")) as fh:
        text = "".join(ln for ln in fh
                       if not ln.startswith(("t_kind=", "N=", "C=")))
    cfg = _write(tmp_path, "tset.cfg",
                 text + f"t_kind={kind}\n{key}={value}\n")
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out == (f"error=InvalidParameter detail={cfg}: "
                   f"{key}={value!r} {detail}\n")


def test_budget_config_unknown_t_kind_names_the_key(tmp_path):
    with open(fx("budget_p5.cfg")) as fh:
        cfg = _write(tmp_path, "kind.cfg",
                     fh.read().replace("t_kind=hilbert", "t_kind=squares"))
    code, out = run(["budget", "--config", cfg])
    assert code == 1
    assert out == (f"error=InvalidParameter detail={cfg}: t_kind='squares' "
                   f"is not one of square, prime_qr, hilbert\n")


@pytest.mark.parametrize("name", sorted(name for name in os.listdir(FIX)
                                        if name.endswith(".cfg")))
def test_every_budget_config_runs(monkeypatch, name):
    """Each fixtures/*.cfg runs from the repository root, as its relative
    paths read: exit 0, one record per kept m, then one summary line."""
    monkeypatch.chdir(os.path.join(FIX, ".."))
    code, out = run(["budget", "--config", os.path.join("fixtures", name)])
    assert code == 0
    *records, summary = out.splitlines()
    assert records and all(ln.startswith("m=") for ln in records)
    assert summary.startswith("T_size=")


@pytest.mark.parametrize("name", ["z4", "z5", "a5", "d5"])
def test_eisenstein_on_a_definite_lattice_equals_theta(name):
    """A one-class genus: the coefficients are the representation counts."""
    code, eis = run(["eisenstein", "--lattice", fx(f"{name}.gram"),
                     "--m-range", "1..30"])
    assert code == 0
    _, theta = run(["theta", "--lattice", fx(f"{name}.gram"), "--max", "30"])
    r = [line.split("r=")[1] for line in theta.splitlines()]
    exact = [line.split("exact=")[1] for line in eis.splitlines()]
    assert exact == r[1:]


def test_eisenstein_rank_three_exits_one(tmp_path):
    gram = _write(tmp_path, "r3.gram", "2 1 0\n1 2 0\n0 0 2\n")
    code, text = run(["eisenstein", "--lattice", gram, "--m-range", "1..2"])
    assert code == 1
    assert text == ("error=InvalidParameter detail=coefficient formulas "
                    "need rank 4 or 5, got 3\n")


@pytest.mark.parametrize("m_range", ["3..1", "5", "1..x"])
def test_empty_or_malformed_m_range_exits_one(m_range):
    code, text = run(["eisenstein", "--lattice", fx("ls_global.gram"),
                      "--m-range", m_range])
    assert code == 1
    assert text.startswith("error=InvalidParameter")
    assert repr(m_range) in text


def test_determinism_byte_identical():
    args = ["density", "--gram", fx("siegel_sg_p5.gram"), "--ell", "5",
            "--m-range", "1..12"]
    _, first = run(args)
    _, second = run(args)
    assert first == second
    args2 = ["decay", "--curve", fx("xt_yt.curve"), "--nmax", "1"]
    _, a = run(args2)
    _, b = run(args2)
    assert a == b


def test_selftest_quick():
    code, text = run(["selftest", "--quick"])
    assert code == 0
    assert "failures=0" in text
    for p in (5, 7, 11, 13):
        assert f"check=densities p={p} ok=1" in text


def test_selftest_has_no_seed():
    """selftest runs no random section, so --seed is a usage error."""
    code, text = run(["selftest", "--seed", "5"])
    assert code == 1
    assert text == ("error=InvalidParameter detail=froblat: unrecognized "
                    "arguments: --seed 5\n")


def test_selftest_reports_each_section_on_its_own(monkeypatch):
    """A closed form wrong only at p = 7 fails that record alone."""
    case, vp, expect = cli.LOCAL_DENSITIES[0]
    wrong = (case, vp, lambda p: expect(p) + (p == 7))
    monkeypatch.setattr(cli, "LOCAL_DENSITIES",
                        (wrong,) + cli.LOCAL_DENSITIES[1:])
    code, text = run(["selftest", "--quick"])
    assert code == 1
    for p in (5, 7, 11, 13):
        assert f"check=densities p={p} ok={int(p != 7)}\n" in text
    assert "selftest=quick failures=20\n" in text


def test_selftest_budget_constants_count_their_failures(monkeypatch):
    """A wrong threshold, a constant above the bar up to 97 and a chain
    sum short of its closed form each fail their record and count."""
    constants = cli.alpha_variants
    budget = cli.eisenstein_budget

    def two_levels(case, A, p, chain):
        return budget(case, A, p, chain if chain == "geometric" else chain[:2])

    monkeypatch.setattr(cli, "ALPHA_FROM",
                        dict(cli.ALPHA_FROM, superspecial_ramified=5))
    monkeypatch.setattr(cli, "alpha_variants", lambda p: dict(
        constants(p), supergeneric_ramified=1))
    monkeypatch.setattr(cli, "eisenstein_budget", two_levels)
    code, text = run(["selftest"])
    assert code == 1
    for case, p_from, ok in (("superspecial", 5, 1),
                             ("superspecial_ramified", 7, 0),
                             ("supergeneric_inert", 5, 1),
                             ("supergeneric_ramified", "-", 0)):
        assert f"check=alpha case={case} p_from={p_from} ok={ok}\n" in text
    assert "check=budget-chain case=superspecial levels=14 ok=0\n" in text
    assert text.endswith("selftest=full failures=3\n")


def test_selftest_density_and_decay_failures_are_recorded(monkeypatch):
    """A density wrong once fails its own densities record, and a decay
    fixture with no certified span fails its record; each counts once."""
    hanke = cli.hanke_density
    calls = []

    def wrong_once(p, lat, m):
        calls.append((p, m))
        return hanke(p, lat, m) + (len(calls) == 1)

    run_fixture = cli.run_decay_fixture

    def not_found(fix, **kwargs):
        if fix["name"] == "split-generic":
            raise errors.NotFound("no decaying rank-3 submodule certified")
        return run_fixture(fix, **kwargs)

    monkeypatch.setattr(cli, "hanke_density", wrong_once)
    monkeypatch.setattr(cli, "run_decay_fixture", not_found)
    code, text = run(["selftest"])
    assert code == 1
    lines = text.splitlines()
    p, m = calls[0]
    density_failures = [ln for ln in lines if ln.startswith("check=density ")]
    assert len(density_failures) == 1
    assert f" p={p} m={m} " in density_failures[0]
    for q in (5, 7, 11, 13):
        assert f"check=densities p={q} ok={int(q != p)}" in lines
    assert ("check=decay name=split-generic ok=0 detail=no decaying rank-3 "
            "submodule certified") in lines
    assert sum(ln.startswith("check=decay ") for ln in lines) == 18
    assert lines[-1] == "selftest=full failures=2"


def test_fixture_root_env(monkeypatch, tmp_path):
    monkeypatch.setenv("FROBLAT_FIXTURES", os.path.abspath(FIX))
    code, text = run(["density", "--gram", "z4.gram", "--ell", "3",
                      "--m-range", "1..1"])
    assert code == 0


def test_closed_stdout_exits_without_traceback():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "froblat.cli", "eisenstein", "--lattice",
         fx("ls_global.gram"), "--m-range", "1..3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()  # the reader goes away, as `| head -1` does
    err = proc.stderr.read().decode()
    proc.stderr.close()
    proc.wait(timeout=120)
    assert first.startswith(b"m=1 ")
    assert "Traceback" not in err and "BrokenPipeError" not in err


def _child_peak_kib(argv, env):
    """ru_maxrss of one froblat child, read by a fresh parent process."""
    probe = ("import resource, subprocess, sys; "
             "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, "
             "check=True); "
             "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    proc = subprocess.run([sys.executable, "-c", probe, sys.executable, "-m",
                           "froblat.cli", *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=300)
    return int(proc.stdout)


def test_a_long_eisenstein_range_runs_in_bounded_memory():
    # 1..10^5 grows the g table from 65440 to 523520 entries (4 MiB;
    # the sieve briefly holds one and a half such arrays) and fills no more
    # than H2_MEMO_MAX memo entries; the unbounded memo, 60794 entries,
    # made the difference 18 MiB
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    peaks = [_child_peak_kib(["eisenstein", "--lattice", fx("ls_global.gram"),
                              "--m-range", f"1..{hi}"], env)
             for hi in (10 ** 4, 10 ** 5)]
    assert peaks[1] - peaks[0] < 16 * 1024, peaks

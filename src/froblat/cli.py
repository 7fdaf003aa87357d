"""Batch command-line surface with file-driven, reproducible runs.

Subcommands: density, eisenstein, theta, decay, budget, selftest.
Output is line-delimited records of named fields with exact rationals
("num/den").  Identical inputs produce byte-identical output.  Exit codes: 0 success,
1 usage or validation failure, 2 indeterminate verdict (precision
exhausted).  Errors are emitted as machine-readable "error=<exception
name> detail=..." records, usage errors included.
"""

import argparse
import itertools
import os
import random
import sys
from fractions import Fraction

from . import errors
from .budget import (ALPHA_FROM, alpha_variants, eisenstein_budget,
                     run_budget)
from .crystals import (LOCAL_DENSITIES, CrystalModel, FormalCurve,
                       f_infinity, find_decaying_submodule, local_gram,
                       truncation)
from .eisenstein import coefficients
from .enumeration import (T_KEYS, prime_rep_count, representation_counts,
                          square_rep_count)
from .padics import (PAdicParams, _valuation, isprime, primerange,
                     smallest_nonresidue)
from .quadforms import IntLattice, hanke_density, local_density
from .regression import decay_fixture_table, run_decay_fixture
from .series import column_valuation_profile


def _resolve(path):
    if os.path.exists(path):
        return path
    alt = os.path.join(os.environ.get("FROBLAT_FIXTURES", "."), path)
    if os.path.exists(alt):
        return alt
    raise errors.InvalidParameter(f"no such file: {path}")


def read_gram(path):
    """Square integer matrix, one row per line; errors name the line."""
    rows = []
    with open(_resolve(path)) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                row = [int(x) for x in line.split()]
            except ValueError:
                raise errors.InvalidParameter(
                    f"{path} line {lineno}: non-integer Gram entry in "
                    f"{line!r}") from None
            if rows and len(row) != len(rows[0]):
                raise errors.InvalidParameter(
                    f"{path} line {lineno}: row has {len(row)} entries, "
                    f"the first row {len(rows[0])}")
            rows.append(row)
    if not rows or len(rows) != len(rows[0]):
        raise errors.InvalidParameter(
            f"{path}: Gram matrix is not square "
            f"({len(rows)} rows of {len(rows[0]) if rows else 0})")
    return rows


class KeyVals(dict):
    """key=value pairs of one fixture file; errors name the file."""

    def __init__(self, path):
        super().__init__()
        self.path = path

    def __missing__(self, key):
        raise errors.InvalidParameter(f"{self.path}: missing key {key!r}")

    def error(self, key, what):
        """An error naming the file, the key and its value."""
        return errors.InvalidParameter(f"{self.path}: {key}={self[key]!r} "
                                       f"{what}")

    def integer(self, key, default=None, least=None):
        """The int value of key (default when absent), refused below least."""
        if default is not None and key not in self:
            return default
        try:
            value = int(self[key])
        except ValueError:
            raise self.error(key, "is not an integer") from None
        if least is not None and value < least:
            raise self.error(key, ("is negative", "is not positive")[least])
        return value


CURVE_KEYS = ("case", "p", "d", "c", "x", "y", "z")
BUDGET_KEYS = ("p", "A", "global_gram", "chain_head", "depth", "M", "t_kind",
               *itertools.chain(*T_KEYS.values()))


def read_keyvals(path, keys):
    """The key=value lines of one file, each key one of keys, given once."""
    out = KeyVals(path)
    with open(_resolve(path)) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in keys:
                raise errors.InvalidParameter(f"{path}: unknown key {key!r}")
            if key in out:
                raise errors.InvalidParameter(
                    f"{path}: key {key!r} is given twice")
            out[key] = val.strip()
    return out


def _parse_coeff(kv, key, tok, d):
    """A residue coefficient of key: at most d F_p coordinates."""
    parts = tok.split(".")
    if len(parts) > d:
        raise kv.error(key, f"has more than d = {d} coordinates")
    return tuple(int(x) for x in parts) + (0,) * (d - len(parts))


def read_curve(path):
    """Curve fixture: the keys of CURVE_KEYS, errors naming the file.

    Coefficient lists are space-separated exp:coeff items, with residue
    coefficients as dot-separated F_p coordinates (constant first).
    Returns the model at M = 1 and the curve to twice its top exponent,
    where every product of two components ends, then build(M, nt).
    """
    kv = read_keyvals(path, CURVE_KEYS)
    case = kv["case"]
    p = kv.integer("p")
    d = kv.integer("d")
    comps = {}
    name = "c"
    try:
        c_res = _parse_coeff(kv, name, kv["c"], d) if kv.get("c") else None
        for name in ("x", "y", "z"):
            comp = {}
            for item in kv.get(name, "").split():
                e, _, c = item.partition(":")
                comp[int(e)] = _parse_coeff(kv, name, c, d)
            comps[name] = comp
    except ValueError:
        raise kv.error(name, "is not integer coefficients") from None

    def build(M, nt):
        try:
            return (CrystalModel(case, PAdicParams(p, d, M), c_residue=c_res),
                    FormalCurve(nt=nt, **comps))
        except errors.InvalidParameter as exc:
            raise errors.InvalidParameter(f"{path}: {exc}") from None

    model, curve = build(1, 2 * max(max(c, default=0) for c in comps.values()))
    if model.rank == 4 and comps["z"]:
        raise kv.error("z", f"is set, but case {case} has no z component")
    return model, curve, build


def _frac(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 \
        else str(f.numerator)


def _emit(out, fields):
    out.write(" ".join(f"{k}={v}" for k, v in fields) + "\n")


# -- subcommands -------------------------------------------------------------

def cmd_density(args, out):
    lat = IntLattice(read_gram(args.gram), args.gram)
    for m in _m_range(args.m_range):
        delta = local_density(args.ell, lat, m)
        fields = [("m", m), ("ell", args.ell), ("delta", _frac(delta))]
        if args.hanke:
            fields.append(("hanke", _frac(hanke_density(args.ell, lat, m))))
        _emit(out, fields)
    return 0


def _m_range(text):
    """The m of an inclusive range 'lo..hi' with lo <= hi."""
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        lo, hi = 1, 0
    if lo > hi:
        raise errors.InvalidParameter(
            f"--m-range {text!r} is not a non-empty range lo..hi")
    return range(lo, hi + 1)


def cmd_eisenstein(args, out):
    """Theta coefficients of a definite rank-4/5 lattice, else q_L."""
    lat = IntLattice(read_gram(args.lattice), args.lattice)
    for res in coefficients(lat, _m_range(args.m_range)):
        _emit(out, [("m", res.m), ("m0", res.m0), ("f", res.f),
                    ("sign", res.sign()), ("exact", _frac(res.value))])
    return 0


def cmd_theta(args, out):
    lat = IntLattice(read_gram(args.lattice), args.lattice)
    counts = representation_counts(lat, args.max)
    if args.squares is not None:
        total = square_rep_count(counts, args.squares)
        _emit(out, [("kind", "squares"), ("D", args.squares),
                    ("count", total)])
    elif args.primes:
        total = prime_rep_count(counts)
        _emit(out, [("kind", "primes"), ("count", total)])
    else:
        for m, r in enumerate(counts):
            _emit(out, [("m", m), ("r", r)])
    return 0


# the most digit cells of F_inf's entries, nt * d * rank^2, that decay
# builds: the heaviest fixture it admits, siegel-2.2 at --nmax 6 (7.8e6
# cells), peaks near 250 MiB
CELLS_MAX = 1 << 23


def cmd_decay(args, out):
    if args.nmax < 0:
        raise errors.InvalidParameter(f"--nmax {args.nmax} is negative")
    model, curve, build = read_curve(args.curve)
    A = model.non_ordinary_valuation(curve)
    nt, M = truncation(A, model.params.p, args.nmax)
    cells = nt * model.params.d * model.rank ** 2
    if cells > CELLS_MAX:
        raise errors.InvalidParameter(
            f"--nmax {args.nmax} needs nt = {nt}, {cells} cells of "
            f"nt * d * rank^2, past CELLS_MAX = {CELLS_MAX}")
    model, curve = build(M, nt)
    finf = f_infinity(model, curve, n_max=args.nmax)
    _emit(out, [("case", model.case), ("A", A), ("nt", curve.nt)])
    rank = model.rank
    for i in range(rank):
        w = [1 if j == i else 0 for j in range(rank)]
        row = [("vector", "w" + str(i + 1))]
        profile = column_valuation_profile(finf, w)
        for n in range(args.nmax + 1):
            idx, masked = profile.decay_index(n)
            row.append((f"n{n}", f"{idx}?" if masked else idx))
        _emit(out, row)
    if args.search:
        basis, witness = find_decaying_submodule(model, finf, A,
                                                 n_max=args.nmax)
        _emit(out, [("span", ";".join(",".join(map(str, v))
                                      for v in basis)),
                    ("witness", ",".join(map(str, witness))
                     if witness else "-")])
    return 0


def cmd_budget(args, out):
    """One record per kept m, then the summary.  g and the global sum are
    exact; the equal lo/hi pairs stay for the budget_p5 benchmark."""
    kv = read_keyvals(args.config, BUDGET_KEYS)
    p = kv.integer("p")
    if not isprime(p):
        raise kv.error("p", "is not a prime")
    A = kv.integer("A", least=1)
    # read here so that a malformed Gram or a refused head names its file
    glob, head = (IntLattice(read_gram(kv[key]), kv[key])
                  for key in ("global_gram", "chain_head"))
    depth = kv.integer("depth", 3, least=0)
    M = kv.integer("M", 500, least=1)
    t_kind = kv.get("t_kind", "square")
    if t_kind not in T_KEYS:
        raise kv.error("t_kind", f"is not one of {', '.join(T_KEYS)}")
    reads = T_KEYS[t_kind]
    for key in kv:
        if key not in reads and any(key in keys for keys in T_KEYS.values()):
            raise kv.error(key, f"is not read by t_kind {t_kind}")
    # D >= 1, as the square kind divides M by it; N >= 0 and C >= 0
    t_params = {key: kv.integer(key, least=1 if key == "D" else 0)
                for key in reads if key in kv}
    rep = run_budget(p=p, A=A, global_lattice=glob, chain_head=head,
                     depth=depth, M=M, t_kind=t_kind, t_params=t_params)
    for rec in rep.per_m:
        g = _frac(rec["g"])
        _emit(out, [("m", rec["m"]), ("local", _frac(rec["local"])),
                    ("g_lo", g), ("g_hi", g)])
    total = _frac(rep.global_sum)
    _emit(out, [("T_size", len(rep.T)), ("excluded", len(rep.excluded)),
                ("local_sum", _frac(rep.local_sum)),
                ("global_lo", total), ("global_hi", total),
                ("ratio_hi", _frac(rep.ratio))])
    return 0


def cmd_selftest(args, out):
    """Each section's record reports its own verdict; the exit code and
    the closing record count the failures of every section."""
    failures = 0
    # closed-form local densities at p in {5, 7, 11, 13}
    for p in (5, 7, 11, 13):
        failed_before = failures
        eps = smallest_nonresidue(p)
        for case, vp, expect in LOCAL_DENSITIES:
            lat = IntLattice(local_gram(case, p, eps), case)
            want = expect(p)
            # the first 20 m with v_p(m) = vp
            ms = (m for m in itertools.count(1) if _valuation(m, p) == vp)
            for m in itertools.islice(ms, 20):
                got = local_density(p, lat, m)
                if got != want:
                    failures += 1
                    _emit(out, [("check", "density"), ("case", case),
                                ("p", p), ("m", m), ("got", _frac(got)),
                                ("want", _frac(want))])
        _emit(out, [("check", "densities"), ("p", p),
                    ("ok", int(failures == failed_before))])
    # seeded random sweep: type decomposition against stable counts
    failed_before = failures
    rng = random.Random(args.seed)
    swept = 0
    while swept < 40:
        p = rng.choice([3, 5, 7, 11, 13])
        rk = rng.randint(2, 4)
        gram = [[0] * rk for _ in range(rk)]
        for i in range(rk):
            gram[i][i] = 2 * rng.choice([1, 2, p, 2 * p]) \
                * rng.choice([1, -1])
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randint(-1, 1)
        lat = IntLattice(gram)
        if lat.det() == 0:
            continue
        m = rng.randint(1, 60)
        if hanke_density(p, lat, m) != local_density(p, lat, m):
            failures += 1
            _emit(out, [("check", "hanke"), ("p", p), ("m", m), ("ok", 0)])
        swept += 1
    _emit(out, [("check", "hanke-sweep"), ("seed", args.seed),
                ("instances", swept), ("ok", int(failures == failed_before))])
    if args.quick:
        _emit(out, [("selftest", "quick"), ("failures", failures)])
        return 1 if failures else 0
    # decay regression matrix
    for fix in decay_fixture_table(5):
        try:
            res = run_decay_fixture(fix)
            _emit(out, [("check", "decay"), ("name", res["name"]),
                        ("A", res["A"]),
                        ("span", ";".join(",".join(map(str, v))
                                          for v in res["basis"])),
                        ("ok", 1)])
        except errors.Indeterminate:
            raise
        except errors.FroblatError as exc:
            failures += 1
            _emit(out, [("check", "decay"), ("name", fix["name"]),
                        ("ok", 0), ("detail", str(exc))])
    # budget constants: the least prime from which each stays below 11/12
    primes = primerange(5, 98)
    for case, want in ALPHA_FROM.items():
        last = max((q for q in primes
                    if alpha_variants(q)[case] >= Fraction(11, 12)), default=0)
        p_from = next((q for q in primes if q > last), "-")
        failures += p_from != want
        _emit(out, [("check", "alpha"), ("case", case), ("p_from", p_from),
                    ("ok", int(p_from == want))])
    # the geometric closed form against its 14-level finite chain
    ok = True
    for p in (5, 7, 11):
        chain = [(p ** (3 * n), p ** (3 * n + 1)) for n in range(14)]
        gap = eisenstein_budget("superspecial", 1, p, "geometric") \
            - eisenstein_budget("superspecial", 1, p, chain)
        ok = ok and 0 < gap < Fraction(1, p ** 20)
    failures += not ok
    _emit(out, [("check", "budget-chain"), ("case", "superspecial"),
                ("levels", 14), ("ok", int(ok))])
    _emit(out, [("selftest", "full"), ("failures", failures)])
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors become InvalidParameter records and options are never
    abbreviated; subparsers inherit both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise errors.InvalidParameter(f"{self.prog}: {message}")


def build_parser():
    ap = _Parser(
        prog="froblat",
        description="exact local densities, Eisenstein coefficients, "
                    "decay tables, and intersection budgets")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="local representation densities")
    d.add_argument("--gram", required=True)
    d.add_argument("--ell", type=int, required=True)
    d.add_argument("--m-range", default="1..20")
    d.add_argument("--hanke", action="store_true")
    d.set_defaults(func=cmd_density)

    e = sub.add_parser("eisenstein", help="Eisenstein Fourier coefficients")
    e.add_argument("--lattice", required=True)
    e.add_argument("--m-range", required=True)
    e.set_defaults(func=cmd_eisenstein)

    t = sub.add_parser("theta", help="representation counts")
    t.add_argument("--lattice", required=True)
    t.add_argument("--max", type=int, required=True)
    kind = t.add_mutually_exclusive_group()
    kind.add_argument("--squares", type=int, default=None,
                      help="sum r(D l^2) over primes l")
    kind.add_argument("--primes", action="store_true")
    t.set_defaults(func=cmd_theta)

    dc = sub.add_parser("decay", help="decay tables for a formal curve")
    dc.add_argument("--curve", required=True)
    dc.add_argument("--nmax", type=int, default=2)
    dc.add_argument("--search", action="store_true",
                    help="also search for a decaying rank-3 submodule")
    dc.set_defaults(func=cmd_decay)

    b = sub.add_parser("budget", help="local/global intersection budget")
    b.add_argument("--config", required=True)
    b.set_defaults(func=cmd_budget)

    s = sub.add_parser("selftest", help="golden densities, decay matrix "
                                        "and budget constants")
    s.add_argument("--quick", action="store_true",
                   help="densities and the random sweep only")
    s.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized density sweep")
    s.set_defaults(func=cmd_selftest)
    return ap


def dispatch(argv, out=None):
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, out)
    except errors.Indeterminate as exc:
        where = [(key, getattr(exc, key)) for key in ("n", "k", "row", "bound")
                 if getattr(exc, key) is not None]
        _emit(out, [("error", "indeterminate"), *where, ("detail", str(exc))])
        return 2
    except BrokenPipeError:
        raise  # the reader is gone: no record can reach it
    except (errors.FroblatError, OSError, ValueError, KeyError) as exc:
        _emit(out, [("error", type(exc).__name__), ("detail", str(exc))])
        return 1


def main():
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: aim it at devnull for the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

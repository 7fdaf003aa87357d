"""The benchmark workloads.

Each workload makes its inputs from the seed (outside the timed region),
drives froblat only through its public entry points, and checks every
result.  One operation is one fixture, one split check, one cusp call,
one D5 coefficient, one budget run or one sweep instance; an operation
fails when it raises (an indeterminate verdict raises) or fails its
check.  A failure is counted and never stops the workload.

Entry points are looked up as module attributes at call time, so the
span and counting passes see every call the workload makes.
"""

import io
import random
from fractions import Fraction

from froblat import cli, eisenstein, enumeration, quadforms, regression
from froblat.quadforms import IntLattice


class Tally:
    """Attempted and failed operations, with the first failure details."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, label, op):
        """Run ``op`` (returns True when its result is correct)."""
        self.attempted += 1
        try:
            ok = op() is True
            detail = "wrong result"
        except Exception as exc:  # counted against the attempts
            ok = False
            detail = f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {detail}")


# -- decay_matrix: acceptance criterion 3 -----------------------------------

def decay_inputs(seed):
    return None


def decay_run(_inputs, tally):
    for fix in regression.decay_fixture_table(5):
        def fixture_ok(fix=fix):
            res = regression.run_decay_fixture(fix, n_max=2,
                                               search_depth_B=2)
            basis = tuple(tuple(v) for v in res["basis"])
            return (res["A"] == fix["A"] and len(basis) == 3
                    and basis in fix["asserted"]
                    and (res["witness"] is not None
                         or not fix["want_witness"]))
        tally.check(fix["name"], fixture_ok)
    tally.check("split-equal-indices",
                lambda: regression.split_equal_decay_indices(5, 2)
                == [2, 12, 62])
    return 0.0


# -- cusp_pdet5: acceptance criterion 8 -------------------------------------

PDET5 = [[2, 0, 0, 0, 0], [0, 2, 0, 0, 0], [0, 0, 2, 0, 0],
         [0, 0, 0, 10, 0], [0, 0, 0, 0, 10]]
D5 = [[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1],
      [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]]


def cusp_inputs(seed):
    return IntLattice(PDET5, "pdet5"), IntLattice(D5, "D5")


def cusp_run(inputs, tally):
    pdet5, d5 = inputs
    widths = [0.0]

    def deviation_ok():
        records, slope = enumeration.cusp_deviation(pdet5, 100, 2000)
        widths.extend(2 * rec["radius"] for rec in records)
        return len(records) > 1500 and slope <= 1.3

    tally.check("cusp_deviation(pdet5, 100, 2000)", deviation_ok)
    # one-class genus: theta equals its Eisenstein part
    counts = []
    for m in range(1, 51):
        def coefficient_ok(m=m):
            if not counts:
                counts.extend(enumeration.representation_counts(d5, 50))
            q = eisenstein.q_positive_definite(d5, m, tol=1e-10)
            return abs(counts[m] - q.midpoint()) <= 2 * q.radius() + 1e-6
        tally.check(f"D5 m={m}", coefficient_ok)
    return max(widths)


# -- budget_p5: acceptance criterion 9 through the command line -------------

BUDGET_ARGV = ["budget", "--config", "fixtures/budget_p5.cfg"]


def budget_inputs(seed):
    return BUDGET_ARGV


def budget_run(argv, tally):
    widths = [0.0]

    def budget_ok():
        out = io.StringIO()
        rc = cli.dispatch(argv, out)
        summary = dict(item.split("=", 1)
                       for item in out.getvalue().splitlines()[-1].split())
        lo = Fraction(summary["global_lo"])
        hi = Fraction(summary["global_hi"])
        widths.append(float(hi - lo))
        return (rc == 0 and summary["T_size"] == "213"
                and summary["excluded"] == "0"
                and Fraction(summary["local_sum"]) == Fraction(607516, 5)
                and Fraction(summary["ratio_hi"]) <= Fraction(11, 12)
                and lo <= 282196 <= hi)

    tally.check("budget --config fixtures/budget_p5.cfg", budget_ok)
    return max(widths)


# -- density_sweep: acceptance criterion 2's generator, no repeated key -----

SWEEP_PRIMES = (3, 5, 7, 11, 13)
SWEEP_INSTANCES = 3000


def _vp(m, p):
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def sweep_inputs(seed):
    """Random (p, lattice, m) with rank 2-5 and v_p(m) <= 1.

    Criterion 2 draws p, the rank and m at random; here they are
    stratified (p and rank cycle, and each p walks a seeded permutation
    of its admissible m), because an instance with v_p(m) = 1 at p = 13
    costs fifteen times one with v_p(m) = 0, and drawing their number at
    random would make the run time depend on the seed.  The Gram
    entries are drawn as in criterion 2, redrawn when the determinant
    vanishes or the density key (Gram, p, stable exponent) repeats, so no
    density call can be served from a per-key cache.
    """
    rng = random.Random(seed)
    ms = {}
    for p in SWEEP_PRIMES:
        ms[p] = [m for m in range(1, 201) if _vp(m, p) <= 1]
        rng.shuffle(ms[p])
    keys = set()
    out = []
    for i in range(SWEEP_INSTANCES):
        p = SWEEP_PRIMES[i % len(SWEEP_PRIMES)]
        rank = 2 + (i // len(SWEEP_PRIMES)) % 4
        m = ms[p][(i // len(SWEEP_PRIMES)) % len(ms[p])]
        while True:
            gram = [[0] * rank for _ in range(rank)]
            for r in range(rank):
                gram[r][r] = 2 * rng.choice([1, 2, 3, p, 2 * p, 3 * p]) \
                    * rng.choice([1, -1])
                for c in range(r):
                    gram[r][c] = gram[c][r] = rng.randint(-2, 2)
            key = (tuple(map(tuple, gram)), p, _vp(m, p))
            if key in keys:
                continue
            lattice = IntLattice(gram)
            if lattice.det() != 0:
                break
        keys.add(key)
        out.append((p, lattice, m))
    return out


def sweep_run(instances, tally):
    for i, (p, lattice, m) in enumerate(instances):
        tally.check(f"instance {i} (p={p}, m={m})",
                    lambda: quadforms.hanke_density(p, lattice, m)
                    == quadforms.local_density(p, lattice, m))
    return 0.0


# name -> (make inputs from a seed, run and check; returns interval width)
WORKLOADS = {
    "decay_matrix": (decay_inputs, decay_run),
    "cusp_pdet5": (cusp_inputs, cusp_run),
    "budget_p5": (budget_inputs, budget_run),
    "density_sweep": (sweep_inputs, sweep_run),
}

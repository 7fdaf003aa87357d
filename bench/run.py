"""Benchmark for froblat: end-to-end metrics, or per-layer metrics traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it benchmarks the checkout it sits in, importing
froblat from that checkout's ``src/``.  Workloads and metrics are listed
in BENCHMARK.json at the checkout root, and every workload is a closed
loop of one caller: one sample at a time, each in a fresh interpreter,
so no sample inherits another's caches (the L-value cache lives for the
whole process).

``--trace 0`` runs samples until the next one would end after
``--seconds`` (at least one), tops the set-up measurements up to
SETUP_RUNS with import-only processes, and reports the medians of
``norm_wall_s``, ``setup_s`` and ``peak_rss_mb``.  ``norm_wall_s`` is
the sample's wall time scaled by the core speed that calibration bursts
measured while it ran, and ``setup_s`` the set-up time scaled by the
speed measured right after it (see sample.py).  The raw ``wall_s`` and
``setup_raw_s`` are printed beside them but not bounded, because on a
shared host they drift by tens of percent from one minute to the next.

``--trace 1`` runs three samples: an untraced one, a span pass and a
counting pass, and reports the per-layer metrics.  The tracing overhead
is the span pass's wall time against the untraced one's, both raw, so
it carries the host's drift.  The spans, counters and environment are
written to ``bench/results/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, the error rate and the
environment stamp.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH, "results")

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
SETUP_RUNS = 5
# every child must end before this many seconds into the run
RUN_DEADLINE_S = 170


class SampleFailed(Exception):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload, seed, mode, deadline):
    """Run one sample in a fresh interpreter and return its JSON record."""
    spawned = monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "sample.py"), workload,
           str(seed), mode, repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise SampleFailed(f"{mode} sample passed the run deadline")
    if proc.returncode != 0:
        raise SampleFailed(f"{mode} sample exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    record = json.loads(proc.stdout.splitlines()[-1])
    if not record["env"]["froblat"].startswith(SRC + os.sep):
        raise SampleFailed("sample imported froblat from "
                           + record["env"]["froblat"])
    return record


def git_sha():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def untraced(args, deadline):
    samples = []
    start = monotonic()
    while True:
        before = monotonic()
        samples.append(spawn(args.workload, args.seed, "plain", deadline))
        cost = monotonic() - before
        if monotonic() - start + cost > args.seconds:
            break
    setups = samples[:]
    while len(setups) < SETUP_RUNS:
        setups.append(spawn(args.workload, args.seed, "setup", deadline))
    for i, s in enumerate(samples, 1):
        print(f"sample {i}: wall_s={s['wall_s']:.4f} "
              f"norm_wall_s={s['norm_wall_s']:.4f} "
              f"bursts={s['bursts']} "
              f"setup_s={s['setup_s']:.4f} "
              f"peak_rss_mb={s['peak_rss_mb']:.1f} "
              f"failed={s['failed']}/{s['attempted']}")
    walls = [s["wall_s"] for s in samples]
    norm_walls = [s["norm_wall_s"] for s in samples]
    metrics = {
        "norm_wall_s": statistics.median(norm_walls),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    notes = {
        "norm_wall_s": f"median of {len(walls)} samples, "
                       f"range {min(norm_walls):.4f}..{max(norm_walls):.4f}",
        "setup_s": f"median of {len(setups)} interpreter starts",
        "peak_rss_mb": f"median of {len(samples)} samples",
    }
    raw_setups = [s["setup_raw_s"] for s in setups]
    print(f"metric wall_s = {statistics.median(walls):.6g} s (median of "
          f"{len(walls)} samples, range {min(walls):.4f}..{max(walls):.4f}; "
          "raw, not bounded: it drifts with the host's load)")
    print(f"metric setup_raw_s = {statistics.median(raw_setups):.6g} s "
          f"(median of {len(raw_setups)}, range {min(raw_setups):.4f}.."
          f"{max(raw_setups):.4f}; raw, not bounded)")
    for name, unit in END_TO_END.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit} ({notes[name]})")
    print("metric interval_width = "
          f"{max(s['interval_width'] for s in samples):.6g} "
          "(widest L-value-derived interval; 0 when none is produced)")
    return samples[0]["env"], samples, metrics


def traced(args, deadline, stamp):
    plain = spawn(args.workload, args.seed, "plain", deadline)
    spans = spawn(args.workload, args.seed, "spans", deadline)
    counts = spawn(args.workload, args.seed, "counts", deadline)
    span_overhead = spans["wall_s"] / plain["wall_s"] - 1
    count_overhead = counts["wall_s"] / plain["wall_s"] - 1
    stats = tracing.span_stats(spans["spans"])
    metrics = tracing.layer_metrics(stats, counts["counts"],
                                    spans["interval_width"], span_overhead)
    root = stats["workload." + args.workload]["s"]
    print(f"untraced wall_s = {plain['wall_s']:.4f} s; span pass "
          f"{spans['wall_s']:.4f} s ({span_overhead:+.1%}); counting pass "
          f"{counts['wall_s']:.4f} s ({count_overhead:+.1%})")
    print("self time by boundary (share of the span-pass wall time):")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:42s} {st['self_s']:9.4f} s {st['self_s'] / root:6.1%}"
              f"  calls={st['calls']}")
    for name, (unit, _better) in tracing.LAYER_METRICS.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")

    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS,
                        f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"env": {**spans["env"], **stamp}, "metrics": metrics,
                   "wall_s": {"plain": plain["wall_s"],
                              "spans": spans["wall_s"],
                              "counts": counts["wall_s"]},
                   "counts": counts["counts"],
                   "spans": [{"id": sid, "name": name, "parent": parent,
                              "start": start, "end": end,
                              "workload": args.workload}
                             for sid, name, parent, start, end
                             in spans["spans"]]}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    return spans["env"], [plain, spans, counts], metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "froblat", "__init__.py")):
        print(f"error: no froblat sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    deadline = monotonic() + RUN_DEADLINE_S
    stamp = {"nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
             "workload": args.workload, "seed": args.seed}
    if args.trace:
        listed = spec["per_layer"]
        units = {name: unit
                 for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        listed = spec["end_to_end"]
        units = END_TO_END
    if {m["name"]: m["unit"] for m in listed} != units:
        print("error: the metrics and units in BENCHMARK.json differ from "
              "the ones this benchmark reports", file=sys.stderr)
        return 2
    try:
        if args.trace:
            env, samples, metrics = traced(args, deadline, stamp)
        else:
            env, samples, metrics = untraced(args, deadline)
    except SampleFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        for line in s["failures"]:
            print(f"failure: {line}")
    print(f"metric error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations failed)")
    print("env " + json.dumps({**env, **stamp}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

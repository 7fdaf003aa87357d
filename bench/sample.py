"""One benchmark sample in a fresh interpreter.

    python3 bench/sample.py <workload> <seed> <mode> <spawn_time>

``spawn_time`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so the set-up time covers interpreter start and
the froblat import; ``setup_s`` is that time scaled to the reference
core speed, like ``norm_wall_s``, and ``setup_raw_s`` is the raw one.
Modes: ``setup`` (import only), ``plain`` (untraced, with calibration
bursts), ``spans`` (boundary spans) and ``counts`` (leaf counters).
Prints one JSON object as its last line of standard output.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import froblat  # noqa: E402  (timed as set-up)
import froblat.cli  # noqa: E402,F401
import froblat.regression  # noqa: E402,F401

SETUP_DONE = time.clock_gettime(time.CLOCK_MONOTONIC)

import importlib.metadata  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The calibration burst takes about REF_BURST_S on an uncontended core of
# the machine the benchmark was defined on (Intel Xeon, 2 vCPUs, Python
# 3.11.7).  It runs every BURST_INTERVAL_S of wall time during a plain
# sample, and SETUP_BURSTS times back to back right after the import.
REF_BURST_S = 1.0e-3
BURST_INTERVAL_S = 0.05
SETUP_BURSTS = 20


def _burst():
    """Fixed interpreter work: integer and Fraction arithmetic."""
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    f = Fraction(0)
    for i in range(1, 150):
        f += Fraction(1, i)


class Calibration:
    """Times a fixed burst of work at regular intervals during a sample.

    On a shared host the speed of a core drifts by tens of percent
    within seconds and between minutes, and a sample's wall time drifts
    with it.  Bursts timed while the sample runs (or right after the
    set-up) measure that speed, so ``seconds * REF_BURST_S / mean burst
    time`` estimates the time at the reference speed.
    """

    def __init__(self):
        self.bursts = []

    def burst(self, *_signal_args):
        start = time.perf_counter()
        _burst()
        self.bursts.append(time.perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, BURST_INTERVAL_S,
                         BURST_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def normalize(self, seconds):
        if not self.bursts:
            return seconds
        return seconds * REF_BURST_S * len(self.bursts) / sum(self.bursts)


def environment():
    from sympy.external.gmpy import GROUND_TYPES
    versions = {name: importlib.metadata.version(name)
                for name in ("numpy", "sympy", "mpmath")}
    return {"python": platform.python_version(), **versions,
            "sympy_ground_types": GROUND_TYPES,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "python_flint": importlib.util.find_spec("flint") is not None,
            "froblat": froblat.__file__}


def measure(workload, seed, mode):
    """Run the workload once in ``mode``; returns the sample's record."""
    make_inputs, run = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    tally = workloads.Tally()
    out = {}
    if mode == "plain":
        calibration = Calibration()
        with calibration:
            start = time.perf_counter()
            width = run(inputs, tally)
            wall = time.perf_counter() - start
        # burst time is not the workload's
        wall -= sum(calibration.bursts)
        out.update(norm_wall_s=calibration.normalize(wall),
                   bursts=len(calibration.bursts))
    else:
        patcher = tracing.Patcher()
        if mode == "spans":
            recorder = tracing.SpanRecorder()
            tracing.install_spans(patcher, recorder)
            run = recorder.wrapper("workload." + workload)(run)
            out["spans"] = recorder.spans
        else:
            out["counts"] = counts = Counter()
            tracing.install_counters(patcher, counts)
        try:
            start = time.perf_counter()
            width = run(inputs, tally)
            wall = time.perf_counter() - start
        finally:
            patcher.restore()
    out.update(wall_s=wall, attempted=tally.attempted, failed=tally.failed,
               failures=tally.failures, interval_width=width)
    return out


def main(workload, seed, mode, spawn_time):
    setup = SETUP_DONE - spawn_time
    calibration = Calibration()
    for _ in range(SETUP_BURSTS):
        calibration.burst()
    out = {"setup_raw_s": setup, "setup_s": calibration.normalize(setup),
           "env": environment()}
    if mode != "setup":
        out.update(measure(workload, seed, mode))
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4]))

"""The benchmark's tracing hooks and workloads run against the package.

``bench/run.py --trace 1`` wraps names at the module boundaries
(functions such as ``check_DR`` and ``column_valuation_profile``,
methods such as ``PAdicScalar.__mul__``), and each workload reads names
and records of the package (a fixture's ``want_witness``, an interval's
``midpoint`` and ``radius``, the budget's summary keys).  Installing
both passes and running each workload once here makes a rename or
deletion of any of those names fail in the suite, not only in the
benchmark.
"""

import importlib.util
import os
import sys
import time
from collections import defaultdict

import froblat.cli  # noqa: F401  (loads every module the hooks patch)
import froblat.regression  # noqa: F401

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench(name):
    """``bench/<name>.py``, loaded from its file; the file is only read."""
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, os.path.join(ROOT, "bench", name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_install_and_restore():
    from froblat.padics import PAdicScalar
    tracing = _bench("tracing")
    before = {(module, attr): getattr(sys.modules[module], attr)
              for module, attr, _ in tracing.SPAN_FUNCTIONS}
    mul = PAdicScalar.__dict__["__mul__"]
    patcher = tracing.Patcher()
    try:
        tracing.install_spans(patcher, tracing.SpanRecorder())
        tracing.install_counters(patcher, defaultdict(int))
        assert PAdicScalar.__dict__["__mul__"] is not mul
        for (module, attr), orig in before.items():
            assert getattr(sys.modules[module], attr) is not orig
    finally:
        patcher.restore()
    assert PAdicScalar.__dict__["__mul__"] is mul
    for (module, attr), orig in before.items():
        assert getattr(sys.modules[module], attr) is orig


# operations each workload attempts on its inputs
ATTEMPTED = {"decay_matrix": 19, "cusp_pdet5": 51, "budget_p5": 1,
             "density_sweep": 3000}


def test_every_workload_runs_without_a_failure(monkeypatch):
    """Each benchmark workload, on its seed-977 inputs and from the
    repository root (budget_p5 reads a fixture by relative path),
    attempts its operations and fails none.  Runtime bound: 20 s."""
    workloads = _bench("workloads")
    assert set(workloads.WORKLOADS) == set(ATTEMPTED)
    monkeypatch.chdir(ROOT)
    start = time.time()
    for name, (make_inputs, run) in workloads.WORKLOADS.items():
        tally = workloads.Tally()
        run(make_inputs(977), tally)
        assert (tally.attempted, tally.failed, tally.failures) \
            == (ATTEMPTED[name], 0, []), name
    assert time.time() - start < 20

"""The benchmark's tracing hooks install against the package.

``bench/run.py --trace 1`` wraps names at the module boundaries
(functions such as ``check_DR`` and ``column_valuation_profile``,
methods such as ``PAdicScalar.__mul__``).  Installing both passes here
makes a rename or deletion of any of those names fail in the suite, not
only in the benchmark.
"""

import importlib.util
import os
import sys
from collections import defaultdict

import froblat.cli  # noqa: F401  (loads every module the hooks patch)
import froblat.regression  # noqa: F401

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_hooks_install_and_restore():
    from froblat.padics import PAdicScalar
    tracing = _tracing()
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

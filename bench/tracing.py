"""Boundary tracing for the benchmark, kept outside the program.

Two passes, each in its own fresh interpreter:

* the span pass wraps public names at the module boundaries and records
  one span per call (name, start, end, parent span), kept in memory and
  written out with the workload's name when the run ends;
* the counting pass wraps hot leaves (Kronecker symbols, p-adic scalar
  arithmetic) and input properties with counters only, so their
  wrappers never inflate the span self times.

Most boundary names are bound by ``from``-imports in the calling module,
so a wrapper replaces every ``froblat`` module attribute that is the
original object.  Every replaced name is restored when the pass ends.
"""

import statistics
import sys
import time
from collections import defaultdict


class Patcher:
    """Replaces names at the module boundaries and restores them."""

    def __init__(self):
        self._saved = []

    def function(self, module, attr, make_wrapper):
        """Wrap ``module.attr`` in every froblat module that bound it."""
        orig = getattr(sys.modules[module], attr)
        wrapped = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if name != "froblat" and not name.startswith("froblat."):
                continue
            if mod.__dict__.get(attr) is orig:
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, wrapped)

    def method(self, cls, attr, make_wrapper):
        orig = cls.__dict__[attr]
        self._saved.append((cls, attr, orig))
        setattr(cls, attr, make_wrapper(orig))

    def restore(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)


class SpanRecorder:
    """In-memory spans: (id, name, parent id, start, end)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next = 0

    def call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, parent, start, end))

    def wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                return self.call(name, fn, args, kwargs)
            return traced
        return make


# Public boundaries timed by the span pass, as (module, attribute, span).
SPAN_FUNCTIONS = [
    ("froblat.series", "truncated_product", "series.truncated_product"),
    ("froblat.series", "column_valuation_profile",
     "series.column_valuation_profile"),
    ("froblat.crystals", "find_decaying_submodule",
     "crystals.find_decaying_submodule"),
    ("froblat.crystals", "check_DR", "crystals.check_DR"),
    ("froblat.crystals", "check_DvR", "crystals.check_DvR"),
    ("froblat.quadforms", "local_density", "quadforms.local_density"),
    ("froblat.quadforms", "hanke_density", "quadforms.hanke_density"),
    ("froblat.eisenstein", "q_positive_definite", "eisenstein.coefficient"),
    ("froblat.eisenstein", "q_L_hilbert", "eisenstein.coefficient"),
    ("froblat.eisenstein", "q_L_siegel", "eisenstein.coefficient"),
    ("froblat.enumeration", "representation_counts",
     "enumeration.representation_counts"),
    ("froblat.enumeration", "short_vectors", "enumeration.short_vectors"),
    ("froblat.enumeration", "build_T_set", "enumeration.build_T_set"),
    ("froblat.enumeration", "cusp_deviation", "enumeration.cusp_deviation"),
    ("froblat.budget", "derive_chain", "budget.derive_chain"),
    ("froblat.budget", "run_budget", "budget.run_budget"),
    ("froblat.regression", "run_decay_fixture",
     "regression.run_decay_fixture"),
    ("froblat.regression", "split_equal_decay_indices",
     "regression.split_equal_decay_indices"),
    ("froblat.cli", "dispatch", "cli.dispatch"),
]


def install_spans(patcher, recorder):
    from froblat.crystals import CrystalModel
    for module, attr, span in SPAN_FUNCTIONS:
        patcher.function(module, attr, recorder.wrapper(span))
    patcher.method(CrystalModel, "perturbation_matrix",
                   recorder.wrapper("crystals.perturbation_matrix"))


def _stable_exponent(ell, m):
    v, mm = 0, 2 * m
    while mm % ell == 0:
        mm //= ell
        v += 1
    return 1 + 2 * v


def install_counters(patcher, counts):
    """Counting-pass wrappers; ``counts`` is filled in place."""
    from froblat.padics import PAdicScalar
    density_keys = set()
    discriminants = set()

    def counted(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def density(fn):
        def wrapper(ell, lattice, m, a_exp=None):
            a = _stable_exponent(ell, m) if a_exp is None else a_exp
            key = (tuple(map(tuple, lattice.gram)), ell, a)
            counts["density_calls"] += 1
            if key in density_keys:
                counts["density_repeats"] += 1
            density_keys.add(key)
            return fn(ell, lattice, m, a_exp)
        return wrapper

    def vectors(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts["short_vectors"] += len(out)
            return out
        return wrapper

    def coefficient(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            discriminants.add(out.l_fund)
            counts["fundamental_discriminants"] = len(discriminants)
            return out
        return wrapper

    patcher.method(PAdicScalar, "__mul__", counted("scalar_mul"))
    patcher.method(PAdicScalar, "__add__", counted("scalar_add"))
    patcher.function("froblat.quadforms", "kronecker", counted("kronecker"))
    patcher.function("froblat.quadforms", "local_density", density)
    patcher.function("froblat.enumeration", "short_vectors", vectors)
    for attr in ("q_positive_definite", "q_L_hilbert", "q_L_siegel"):
        patcher.function("froblat.eisenstein", attr, coefficient)


def span_stats(spans):
    """Per span name: calls, inclusive seconds, self seconds, durations.

    Self time is a span's duration minus the time its direct children
    cover; calls are strictly nested, so children never overlap.
    """
    covered = defaultdict(float)
    for _sid, _name, parent, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                 "durations": []})
    for sid, name, _parent, start, end in spans:
        st = stats[name]
        st["calls"] += 1
        st["s"] += end - start
        st["self_s"] += end - start - covered[sid]
        st["durations"].append(end - start)
    return stats


def _percentile_ms(durations, pct):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100)[pct - 1] * 1e3


# Per-layer metrics: name -> (unit, better).  Each one moves the
# end-to-end norm_wall_s of the workload named in the comment.
LAYER_METRICS = {
    # decay_matrix
    "padics.scalar_mul.count": ("count", "lower"),
    "padics.scalar_add.count": ("count", "lower"),
    "series.truncated_product.s": ("s", "lower"),
    "series.truncated_product.calls": ("count", "lower"),
    "series.column_valuation_profile.s": ("s", "lower"),
    "crystals.perturbation_matrix.s": ("s", "lower"),
    "crystals.find_decaying_submodule.s": ("s", "lower"),
    "crystals.find_decaying_submodule.self_s": ("s", "lower"),
    "crystals.check_DR.calls": ("count", "lower"),
    "crystals.check_DvR.calls": ("count", "lower"),
    "regression.run_decay_fixture.max_s": ("s", "lower"),
    # cusp_pdet5 and density_sweep
    "quadforms.local_density.s": ("s", "lower"),
    "quadforms.local_density.calls": ("count", "lower"),
    "quadforms.local_density.key_repeat_share": ("share", "higher"),
    "quadforms.hanke_density.s": ("s", "lower"),
    "quadforms.kronecker.count": ("count", "lower"),
    "eisenstein.coefficient.calls": ("count", "lower"),
    "eisenstein.coefficient.s": ("s", "lower"),
    "eisenstein.coefficient.self_s": ("s", "lower"),
    "eisenstein.coefficient.p50_ms": ("ms", "lower"),
    "eisenstein.coefficient.p99_ms": ("ms", "lower"),
    "eisenstein.fundamental_discriminants": ("count", "lower"),
    "eisenstein.interval_width": ("1", "lower"),
    # budget_p5
    "enumeration.representation_counts.s": ("s", "lower"),
    "enumeration.representation_counts.calls": ("count", "lower"),
    "enumeration.short_vectors.s": ("s", "lower"),
    "enumeration.short_vectors.vectors": ("count", "lower"),
    "enumeration.build_T_set.s": ("s", "lower"),
    "budget.derive_chain.s": ("s", "lower"),
    "budget.run_budget.self_s": ("s", "lower"),
    "cli.dispatch.self_s": ("s", "lower"),
    # the tracer itself: span-pass wall time over the untraced wall time
    "trace.span_overhead_share": ("share", "lower"),
}


def layer_metrics(stats, counts, interval_width, overhead):
    """Values of every LAYER_METRICS name; 0 where a layer is not reached.

    ``stats`` comes from span_stats on the span pass and ``counts`` from
    the counting pass.
    """
    def get(name, field):
        return stats[name][field] if name in stats else 0

    coef = stats["eisenstein.coefficient"] if "eisenstein.coefficient" \
        in stats else {"durations": []}
    fixtures = get("regression.run_decay_fixture", "durations") or [0.0]
    density_calls = counts.get("density_calls", 0)
    out = {
        "padics.scalar_mul.count": counts.get("scalar_mul", 0),
        "padics.scalar_add.count": counts.get("scalar_add", 0),
        "series.truncated_product.s": get("series.truncated_product", "s"),
        "series.truncated_product.calls":
            get("series.truncated_product", "calls"),
        "series.column_valuation_profile.s":
            get("series.column_valuation_profile", "s"),
        "crystals.perturbation_matrix.s":
            get("crystals.perturbation_matrix", "s"),
        "crystals.find_decaying_submodule.s":
            get("crystals.find_decaying_submodule", "s"),
        "crystals.find_decaying_submodule.self_s":
            get("crystals.find_decaying_submodule", "self_s"),
        "crystals.check_DR.calls": get("crystals.check_DR", "calls"),
        "crystals.check_DvR.calls": get("crystals.check_DvR", "calls"),
        "regression.run_decay_fixture.max_s": max(fixtures),
        "quadforms.local_density.s": get("quadforms.local_density", "s"),
        "quadforms.local_density.calls":
            get("quadforms.local_density", "calls"),
        "quadforms.local_density.key_repeat_share":
            counts.get("density_repeats", 0) / density_calls
            if density_calls else 0.0,
        "quadforms.hanke_density.s": get("quadforms.hanke_density", "s"),
        "quadforms.kronecker.count": counts.get("kronecker", 0),
        "eisenstein.coefficient.calls": get("eisenstein.coefficient", "calls"),
        "eisenstein.coefficient.s": get("eisenstein.coefficient", "s"),
        "eisenstein.coefficient.self_s":
            get("eisenstein.coefficient", "self_s"),
        "eisenstein.coefficient.p50_ms": _percentile_ms(coef["durations"], 50),
        "eisenstein.coefficient.p99_ms": _percentile_ms(coef["durations"], 99),
        "eisenstein.fundamental_discriminants":
            counts.get("fundamental_discriminants", 0),
        "eisenstein.interval_width": interval_width,
        "enumeration.representation_counts.s":
            get("enumeration.representation_counts", "s"),
        "enumeration.representation_counts.calls":
            get("enumeration.representation_counts", "calls"),
        "enumeration.short_vectors.s": get("enumeration.short_vectors", "s"),
        "enumeration.short_vectors.vectors": counts.get("short_vectors", 0),
        "enumeration.build_T_set.s": get("enumeration.build_T_set", "s"),
        "budget.derive_chain.s": get("budget.derive_chain", "s"),
        "budget.run_budget.self_s": get("budget.run_budget", "self_s"),
        "cli.dispatch.self_s": get("cli.dispatch", "self_s"),
        "trace.span_overhead_share": overhead,
    }
    assert out.keys() == LAYER_METRICS.keys()
    return out

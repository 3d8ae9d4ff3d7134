"""Outside-in stage trace: time fdsl4's layers by wrapping their public names.

Nothing under ``src/`` is changed. Each traced name is rebound, in every
``fdsl4`` module that holds it, to a wrapper that records a span (name, start,
end, parent span, op). So ``spectral.build_rhs`` is caught where ``spectral``
looks it up, because ``spectral`` imports ``build_rhs`` by name. Class methods
are rebound on their class. A name that no longer exists is skipped and its
metrics are left out of the report.

A layer's self time is its span duration minus the durations of its child
spans. Calls are sequential, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from functools import wraps

# Layer names, as module.attribute under the fdsl4 package, in stage order.
LAYERS = (
    "problem.load_problem",
    "problem.ProblemSpec.make",
    "corrections.base_pair",
    "corrections.assemble",
    "spectral.solve",
    "spectral.moments",
    "spectral.lambda_correction",
    "rhs.build_rhs",
    "recursion.solve_step",
    "verify.residual_sweep",
    "verify.QuadratureRule.build",
    "verify.build_galerkin",
    "verify.galerkin_nearest_eigenvalue",
    "convergence.convergence_report",
)

# Per-layer metric suffixes and their units.
LAYER_METRICS = (("calls", "count"), ("self_s", "s"), ("share", "frac"))

# Counts taken from a layer's arguments: metric -> (layer, argument names).
# The metric is the sum over calls of the product of those arguments, or of 1.
ARG_COUNTS = {
    "spectral.moments.T_sum": ("spectral.moments", ("T",)),
    "verify.quad_passes": ("verify.QuadratureRule.build", ()),
    "verify.quad_nodes": ("verify.QuadratureRule.build", ("panels", "nodes_per_panel")),
}

CACHE = "corrections._derivative_arrays"
CACHE_METRICS = ("hits", "misses", "currsize")

# The counts and fractions the trace reports besides the per-layer triples.
EXTRA_METRICS = tuple((name, "count") for name in ARG_COUNTS) + tuple(
    (f"corrections.derivative_cache.{k}", "count") for k in CACHE_METRICS) + (
    ("trace.overhead_frac", "frac"), ("trace.coverage_frac", "frac"))


def metric_names() -> list:
    """(name, unit) of every per-layer metric the trace can report."""
    return [(f"{layer}.{suffix}", unit) for layer in LAYERS
            for suffix, unit in LAYER_METRICS] + list(EXTRA_METRICS)


def _resolve(path: str):
    """(owner, attribute, value) for 'module.attr' or 'module.Class.attr'."""
    parts = path.split(".")
    owner = sys.modules.get("fdsl4." + parts[0])
    if owner is None:
        raise AttributeError(f"fdsl4.{parts[0]} is not imported")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans kept in memory; ``install``/``uninstall`` rebind the layers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op index]
        self.counts = {name: 0 for name in ARG_COUNTS}
        self.cache = dict.fromkeys(CACHE_METRICS, 0)
        self.present = set()
        self.enabled = True
        self._stack = []
        self._op = None
        self._undo = []
        self._cache_fn = None

    # -- rebinding ------------------------------------------------------------

    def install(self) -> None:
        for path in LAYERS:
            try:
                owner, attr, value = _resolve(path)
            except AttributeError:
                continue
            self.present.add(path)
            if inspect.isclass(owner):
                raw = owner.__dict__[attr]
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, classmethod(self._wrap(path, raw.__func__)))
                continue
            wrapper = self._wrap(path, value)
            for module in [m for k, m in sys.modules.items()
                           if k == "fdsl4" or k.startswith("fdsl4.")]:
                for name, bound in list(vars(module).items()):
                    if bound is value:
                        self._undo.append((module, name, value))
                        setattr(module, name, wrapper)
        try:
            _, _, fn = _resolve(CACHE)
            fn.cache_info()
            self._cache_fn = fn
        except AttributeError:
            self._cache_fn = None

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def _wrap(self, path, fn):
        counters = [(metric, args) for metric, (layer, args) in ARG_COUNTS.items()
                    if layer == path]
        sig = inspect.signature(fn) if counters else None
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if counters:
                tracer._count(counters, sig, args, kwargs)
            spans = tracer.spans
            index = len(spans)
            parent = tracer._stack[-1] if tracer._stack else None
            spans.append([path, 0.0, 0.0, parent, tracer._op])
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                spans[index][1] = start
                spans[index][2] = end
        return wrapper

    def _count(self, counters, sig, args, kwargs) -> None:
        bound = sig.bind(*args, **kwargs).arguments
        for metric, names in counters:
            value = 1
            for name in names:
                value *= bound[name]
            self.counts[metric] += value

    # -- ops ------------------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        if self._cache_fn is not None:
            self._cache_before = self._cache_fn.cache_info()

    def end_op(self) -> None:
        self._op = None
        if self._cache_fn is not None:
            info = self._cache_fn.cache_info()
            self.cache["hits"] += info.hits - self._cache_before.hits
            self.cache["misses"] += info.misses - self._cache_before.misses
            self.cache["currsize"] = info.currsize

    # -- report ----------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def metrics(self, op_wall: float, overhead_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        A share is a layer's self time over the self time of all spans.
        ``op_wall`` is the summed op time, the base of the coverage and the
        overhead; ``overhead_s`` the measured cost of one empty span.
        """
        own = self.self_times()
        calls = dict.fromkeys(self.present, 0)
        self_s = dict.fromkeys(self.present, 0.0)
        in_ops = 0.0
        for (name, _, _, _, op), t in zip(self.spans, own):
            calls[name] += 1
            self_s[name] += t
            if op is not None:
                in_ops += t
        total = sum(own) or 1.0
        out = {}
        for layer in LAYERS:
            if layer in self.present:
                out[f"{layer}.calls"] = (calls[layer], "count")
                out[f"{layer}.self_s"] = (self_s[layer], "s")
                out[f"{layer}.share"] = (self_s[layer] / total, "frac")
        for metric, (layer, _) in ARG_COUNTS.items():
            if layer in self.present:
                out[metric] = (self.counts[metric], "count")
        if self._cache_fn is not None:
            for key in CACHE_METRICS:
                out[f"corrections.derivative_cache.{key}"] = (self.cache[key], "count")
        out["trace.overhead_frac"] = (len(self.spans) * overhead_s / op_wall, "frac")
        out["trace.coverage_frac"] = (in_ops / op_wall, "frac")
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON: one [name, start, end, parent, op] each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, fh)


def span_cost(repeats: int = 20000) -> float:
    """Seconds one traced call of an empty function adds over a plain call."""
    tracer = Tracer()

    def empty():
        return None

    wrapped = tracer._wrap("calibration", empty)
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            empty()
        best_plain = min(best_plain, time.perf_counter() - start)
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        best_wrapped = min(best_wrapped, time.perf_counter() - start)
    return max(0.0, (best_wrapped - best_plain) / repeats)

"""Span tracer installed from outside the hkr package.

`Tracer.install()` wraps every function named in each layer module's
`__all__`, plus a few hot methods, and replaces the original object in every
loaded `hkr` module namespace that holds it.  Modules import each other with
`from .x import y`, so patching only the defining module would let
intra-package calls skip the span.

Each wrapped call is a frame on one stack.  When it ends, its duration minus
the time covered by its child frames is added to its layer's self time, and
its duration is added to its parent's child time.  Time spent in functions
that are not wrapped (for example `Permutation.__mul__` called from
`commuting`) therefore counts as the caller's self time, and time the
wrappers themselves add lands in the caller too.  `Tracer.op()` opens the
root frame of one benchmark operation; its self time is the benchmark's own
time (layer `bench`), so for every operation the layer self times plus the
benchmark's time add up to the operation's duration.

Public functions record a span (name, start, end, parent index) up to
`span_cap` spans; hot primitives record only a call count and total time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("groupcore", "commuting", "inertia", "rings", "fgl", "levelrings", "charmap", "cli")

# (module, class, method) -> span name; counted, never recorded as spans
HOT_METHODS = {
    ("rings", "CyclotomicNumber", "__mul__"): "rings.cyclo_mul",
    ("fgl", "TruncatedSeries", "__mul__"): "fgl.series_mul",
    ("fgl", "TruncatedSeries", "substitute"): "fgl.substitute",
}

# metric -> span names whose outermost calls' durations it sums
INCLUSIVE = {
    "charmap.orthogonality_s": ("charmap.orthogonality_report",),
    "charmap.power_op_s": ("charmap.adams_psi", "charmap.total_power", "charmap.psi_level"),
    "rings.cyclo_mul_s": ("rings.cyclo_mul",),
    "rings.linalg_s": ("rings.mat_rank", "rings.mat_nullspace_dim", "rings.mat_det"),
    "groupcore.classes_s": ("groupcore.conjugacy_classes",),
    "commuting.subgroup_count_s": ("commuting.subgroup_count",),
    "commuting.tuple_classes_s": ("commuting.tuple_classes",),
    "inertia.gl_on_fix_s": ("inertia.gl_on_fix",),
    "fgl.make_fgl_s": ("fgl.make_fgl",),
    "fgl.substitute_s": ("fgl.substitute",),
    "levelrings.galois_fixed_dimension_s": ("levelrings.galois_fixed_dimension",),
}

CALL_COUNTS = {
    "rings.cyclo_mul.calls": "rings.cyclo_mul",
    "groupcore.make_group.calls": "groupcore.make_group",
    "fgl.substitute.calls": "fgl.substitute",
    "fgl.series_mul.calls": "fgl.series_mul",
}

# counters filled by observers on return values
OBSERVED = (
    "groupcore.closure_elements",
    "commuting.hom_tuples.tuples",
    "inertia.fix_n.points",
    "charmap.tables.dixon",
    "charmap.tables.abelian",
    "charmap.table_dixon_s",
    "charmap.table_abelian_s",
)


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.stack: list[list] = []  # frames: [start, child_time, span_index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.inclusive: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list = []
        self.dropped_spans = 0
        self._active: Counter = Counter()
        self._tables_built: dict[int, object] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and hot methods of every layer module."""
        modules = {layer: importlib.import_module(f"hkr.{layer}") for layer in LAYERS}
        loaded = [m for name, m in sys.modules.items() if name == "hkr" or name.startswith("hkr.")]
        for layer, mod in modules.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self._wrap(fn, layer, name, primitive=False, observe=_OBSERVERS.get(name))
                for holder in loaded:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapped)
        for (layer, cls_name, meth), name in HOT_METHODS.items():
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth), layer, name, primitive=True))

    def _wrap(self, fn, layer, name, *, primitive, observe=None):
        groups = tuple(m for m, names in INCLUSIVE.items() if name in names)
        stack, self_s, calls, inclusive, active = (
            self.stack, self.self_s, self.calls, self.inclusive, self._active)
        spans, cap = self.spans, self.span_cap
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:  # outside a benchmark operation
                return fn(*args, **kwargs)
            outermost = [g for g in groups if not active[g]]
            for g in groups:
                active[g] += 1
            index = -1
            if not primitive:
                if len(spans) < cap:
                    index = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped_spans += 1
            parent = stack[-1][2]
            frame = [0.0, 0.0, index]
            stack.append(frame)
            start = frame[0] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                elapsed = end - start
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                calls[name] += 1
                for g in groups:
                    active[g] -= 1
                for g in outermost:
                    inclusive[g] += elapsed
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(tracer, args, result, elapsed)
            return result

        return traced

    # -- operations ----------------------------------------------------------

    def op(self, fn):
        """Run fn as one benchmark operation; return (result, duration, layer
        self times of this operation including the benchmark's own time)."""
        before = dict(self.self_s)
        frame = [0.0, 0.0, -1]
        self.stack.append(frame)
        start = frame[0] = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.self_s["bench"] += duration - frame[1]
        delta = {k: v - before.get(k, 0.0) for k, v in self.self_s.items()}
        return result, duration, delta

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals accumulated so far, by metric name."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["bench.self_s"] = self.self_s.get("bench", 0.0)
        for metric in INCLUSIVE:
            out[metric] = self.inclusive.get(metric, 0.0)
        for metric, name in CALL_COUNTS.items():
            out[metric] = self.calls.get(name, 0)
        for metric in OBSERVED:
            out[metric] = self.counts.get(metric, 0)
        return out


def _observe_make_group(tracer, args, result, elapsed):
    tracer.counts["groupcore.closure_elements"] += result.order


def _observe_hom_tuples(tracer, args, result, elapsed):
    tracer.counts["commuting.hom_tuples.tuples"] += len(result)


def _observe_fix_n(tracer, args, result, elapsed):
    tracer.counts["inertia.fix_n.points"] += len(result.points)


def _observe_character_table(tracer, args, result, elapsed):
    # a table is built once per group object; later calls are cache lookups
    group = result.group
    if id(group) in tracer._tables_built:
        return
    tracer._tables_built[id(group)] = group
    engine = "abelian" if result.size == group.order else "dixon"
    tracer.counts[f"charmap.tables.{engine}"] += 1
    tracer.counts[f"charmap.table_{engine}_s"] += elapsed


_OBSERVERS = {
    "groupcore.make_group": _observe_make_group,
    "commuting.hom_tuples": _observe_hom_tuples,
    "inertia.fix_n": _observe_fix_n,
    "charmap.character_table": _observe_character_table,
}

"""Span tracing for traced benchmark runs.

``Tracer.install`` wraps the package's entry points, one layer per module,
from outside the package.  Each wrapper records a span (layer name, start,
end, parent span, pass; the workload is stored once per file) in memory.
A span with no children is folded into its parent as one record carrying
the count and summed duration of those leaves, which keeps the
per-integrand and per-lookup layers affordable; the self-time arithmetic
is the same either way.  A layer's self time is its span time minus the
time its child spans cover.  ``write`` saves the spans when the run ends.

A wrap point that has moved or been renamed fails the run loudly, at
install time (the attribute is gone) or after the traced passes (a layer the
workload must reach saw no calls), so a refactor never reads as zeros.

Which end-to-end metric each layer should move, on which workload:

=================  ==========================================================
core.weights       solve_s on grid-warm; a small share of both sweeps
operators.series   solve_s on grid-warm
operators.cache    solve_s on sweep-weighted, setup_s on grid-warm,
                   peak_rss_mb everywhere
kernels.quad       solve_s on both sweeps and cli-goldens, setup_s on
                   grid-warm; not solve_s on grid-warm (asserted zero calls)
functions.fn       solve_s on the sweeps
moments            solve_s on cli-goldens
analysis.*         solve_s on cli-goldens and the sweeps
cli.*              solve_s on cli-goldens
=================  ==========================================================
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import defaultdict

PKG = "jainbaskakov"

# (layer, module, attribute).  Every binding of the same function object in
# any module of the package is replaced, so ``from .x import f`` copies are
# covered.
WRAP_POINTS = [
    ("core.weights", "_core", "jain_weights"),
    ("operators.series", "operators", "_series_eval"),
    ("operators.cache", "operators", "_IntegralTable.get"),
    ("kernels.quad", "kernels", "_kernel_expectation"),
    ("analysis.modulus", "analysis", "modulus1"),
    ("analysis.modulus", "analysis", "modulus2"),
    ("analysis.sweep", "analysis", "weighted_norm_error"),
    ("analysis.sweep", "analysis", "voronovskaja_sweep"),
    ("analysis.sweep", "analysis", "converge_sweep"),
    ("analysis.sweep", "analysis", "rate_bound_checks"),
    ("cli.resolve", "cli", "_resolve"),
    ("cli.io", "cli", "_emit"),
]
# Every public function of this module is a wrap point of the moments layer.
MOMENTS_MODULE = "moments"
# scipy's quad as bound in kernels: its ``neval`` gives the integrand calls.
QUAD_BINDING = ("kernels", "quad")
# The CLI looks test functions up by name; traced passes hand it wrapped copies.
CLI_FUNCTION_LOOKUPS = (("cli", "get_function"), ("cli", "shifted_power"))

LAYERS = ["bench.pass", "core.weights", "operators.series", "operators.cache",
          "kernels.quad", "functions.fn", "moments", "analysis.modulus",
          "analysis.sweep", "cli.resolve", "cli.io"]

# Layers each workload must reach; zero calls there means a wrap point moved.
EXPECTED = {
    "sweep-weighted": {"core.weights", "operators.series", "operators.cache",
                       "kernels.quad", "functions.fn", "moments", "analysis.sweep"},
    "sweep-voronovskaja": {"core.weights", "operators.series", "operators.cache",
                           "kernels.quad", "functions.fn", "moments", "analysis.sweep"},
    "grid-warm": {"core.weights", "operators.series", "operators.cache",
                  "functions.fn", "moments"},
    "cli-goldens": {"core.weights", "operators.series", "operators.cache",
                    "kernels.quad", "functions.fn", "moments", "analysis.modulus",
                    "analysis.sweep", "cli.resolve", "cli.io"},
}
UNITS = {
    "core.weights.calls": "count", "core.weights.count": "count", "core.weights.self_s": "s",
    "operators.series.calls": "count", "operators.series.v_terms": "count",
    "operators.series.v_terms_per_eval": "count", "operators.series.self_s": "s",
    "operators.cache.lookups": "count", "operators.cache.misses": "count",
    "operators.cache.hit_ratio": "ratio", "operators.cache.self_s": "s",
    "operators.cache.tables_live": "count", "operators.cache.entries_live": "count",
    "kernels.quad.calls": "count", "kernels.quad.integrand_calls": "count",
    "kernels.quad.integrand_per_integral": "count", "kernels.quad.ms_per_integral": "ms",
    "kernels.quad.self_s": "s",
    "functions.fn.calls": "count", "functions.fn.points": "count", "functions.fn.self_s": "s",
    "moments.calls": "count", "moments.self_s": "s",
    "analysis.modulus.calls": "count", "analysis.modulus.self_s": "s",
    "analysis.sweep.self_s": "s",
    "cli.resolve.self_s": "s", "cli.io.self_s": "s", "cli.io.bytes": "bytes",
    "process.cpu_s": "s", "trace.overhead_ratio": "ratio",
}
# Span record fields and their array type codes.  Folded leaves have id -1,
# first start, last end, summed duration ("busy") and their count.
COLUMNS = (("id", "q"), ("parent", "q"), ("layer", "b"), ("pass_no", "i"),
           ("start", "d"), ("end", "d"), ("busy", "d"), ("count", "q"))
# Counts that must repeat exactly from one traced pass to the next.
REPEATABLE = ("kernels.quad.calls", "operators.cache.lookups",
              "operators.series.v_terms", "kernels.quad.integrand_calls")


class TraceError(RuntimeError):
    """A wrap point or a traced invariant no longer holds."""


def _module(name):
    try:
        return importlib.import_module(f"{PKG}.{name}")
    except ImportError as exc:
        raise TraceError(f"wrap point module {PKG}.{name} is gone: {exc}") from None


def _resolve(module, attr):
    """(owner object, attribute name, current value) of a dotted attribute."""
    owner = _module(module)
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    value = getattr(owner, last, None) if owner is not None else None
    if not callable(value):
        raise TraceError(f"wrap point {PKG}.{module}.{attr} is gone or not callable")
    return owner, last, value


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.ids = {name: i for i, name in enumerate(LAYERS)}
        self.active = False
        self.pass_no = -1
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._fn_copies = {}
        self.columns = {name: array(code) for name, code in COLUMNS}
        self.passes = []  # per traced pass: {metric: value}
        self.calls_seen = [0] * len(LAYERS)

    # -- spans ---------------------------------------------------------------

    def enter(self, layer_id):
        frame = [self._next_id, layer_id, time.perf_counter(), 0.0, None]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = time.perf_counter()
        stack = self._stack
        if stack.pop() is not frame:
            raise TraceError("spans closed out of order")
        sid, lid, start, cover, leaves = frame
        dur = end - start
        self.calls[lid] += 1
        self.total_s[lid] += dur
        self.self_s[lid] += dur - cover
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
            if parent[4] is None:
                parent[4] = {}
            if leaves is None:  # a leaf: fold into the parent
                agg = parent[4].get(lid)
                if agg is None:
                    parent[4][lid] = [1, dur, start, end]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[3] = end
                return
        for leaf_lid, (count, busy, first, last) in (leaves or {}).items():
            self._record(-1, sid, leaf_lid, self.pass_no, first, last, busy, count)
        self._record(sid, parent[0] if parent else -1, lid, self.pass_no, start, end, dur, 1)

    def _record(self, *row):
        for column, value in zip(self.columns.values(), row):
            column.append(value)

    def _spanned(self, layer, fn, after=None):
        lid = self.ids[layer]
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(lid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- wrapped test functions -----------------------------------------------

    def wrap_function(self, f):
        """A copy of test function ``f`` whose calls are spans of functions.fn
        while a traced pass runs; one copy per function, so cache keys hold."""
        copy = self._fn_copies.get(id(f))
        if copy is not None:
            return copy[1]
        lid = self.ids["functions.fn"]
        inner = f.fn

        def fn(t):
            if not self.active:
                return inner(t)
            frame = self.enter(lid)
            try:
                return inner(t)
            finally:
                self.exit(frame)
                self.counters["functions.fn.points"] += getattr(t, "size", 1)

        copy = dataclasses.replace(f, fn=fn)
        self._fn_copies[id(f)] = (f, copy)  # keep f alive so its id stays unique
        return copy

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PKG or name.startswith(PKG + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patch(mod, attr, wrapper)

    def install(self):
        if self._patches:
            raise TraceError("wrappers installed twice")
        quad_id = self.ids["kernels.quad"]
        hooks = {
            "core.weights": self._after_weights,
            "operators.series": self._after_series,
            "cli.io": self._after_io,
        }
        for layer, module, attr in WRAP_POINTS:
            owner, last, orig = _resolve(module, attr)
            if layer == "operators.cache":
                wrapper = self._cache_get(orig, quad_id)
            else:
                wrapper = self._spanned(layer, orig, hooks.get(layer))
            if isinstance(owner, type):
                self._patch(owner, last, wrapper)
            else:
                self._patch_everywhere(orig, wrapper)
        mod = _module(MOMENTS_MODULE)
        moment_fns = [v for k, v in vars(mod).items()
                      if inspect.isfunction(v) and not k.startswith("_")
                      and v.__module__ == mod.__name__]
        if not moment_fns:
            raise TraceError(f"no public functions left in {mod.__name__}")
        for orig in moment_fns:
            self._patch_everywhere(orig, self._spanned("moments", orig))
        owner, last, quad = _resolve(*QUAD_BINDING)
        self._patch(owner, last, self._counted_quad(quad))
        for module, attr in CLI_FUNCTION_LOOKUPS:
            owner, last, lookup = _resolve(module, attr)
            self._patch(owner, last, self._wrapped_lookup(lookup))

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def _cache_get(self, orig, quad_id):
        lid = self.ids["operators.cache"]
        enter, exit_ = self.enter, self.exit
        calls = self.calls  # this pass's list; wrappers are rebuilt per pass

        @functools.wraps(orig)
        def get(table, v):
            before = calls[quad_id]
            frame = enter(lid)
            try:
                return orig(table, v)
            finally:
                exit_(frame)
                if calls[quad_id] != before:  # it computed an integral
                    self.counters["operators.cache.misses"] += 1

        return get

    def _counted_quad(self, quad):
        @functools.wraps(quad)
        def counted(*args, **kwargs):
            out = quad(*args, **kwargs)
            info = out[2] if isinstance(out, tuple) and len(out) > 2 else None
            if not isinstance(info, dict) or "neval" not in info:
                raise TraceError("kernels no longer calls quad with full_output")
            self.counters["kernels.quad.integrand_calls"] += info["neval"]
            return out

        return counted

    def _wrapped_lookup(self, lookup):
        @functools.wraps(lookup)
        def wrapped(*args, **kwargs):
            return self.wrap_function(lookup(*args, **kwargs))

        return wrapped

    def _after_weights(self, args, kwargs, out):
        self.counters["core.weights.count"] += len(out)

    def _after_series(self, args, kwargs, out):
        self.counters["operators.series.v_terms"] += out.v_terms_used

    def _after_io(self, args, kwargs, out):
        base = args[2]["output"]
        for path in (out, f"{base}.plot.dat"):
            self.counters["cli.io.bytes"] += os.path.getsize(path)

    # -- passes ----------------------------------------------------------------

    def begin_pass(self, pass_no):
        self.pass_no = pass_no
        self.calls = [0] * len(LAYERS)
        self.total_s = [0.0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        self.counters = defaultdict(int)
        self.live = [0, 0]
        self.install()
        self.active = True
        self._root = self.enter(self.ids["bench.pass"])

    def probe_cache(self):
        """Record the largest cache seen in this pass (tables, entries)."""
        from jainbaskakov import operators

        tables = getattr(operators.DEFAULT_CACHE, "_tables", None)
        if not isinstance(tables, dict):
            raise TraceError("operators.DEFAULT_CACHE no longer keeps _tables")
        self.live[0] = max(self.live[0], len(tables))
        self.live[1] = max(self.live[1], sum(len(t) for t in tables.values()))

    def end_pass(self):
        self.exit(self._root)
        self.active = False
        self.uninstall()
        c, s, k = self.calls, self.self_s, self.counters
        i = self.ids
        quad_calls = c[i["kernels.quad"]]
        lookups = c[i["operators.cache"]]
        series = c[i["operators.series"]]
        quad_total = self.total_s[i["kernels.quad"]]
        m = {
            "core.weights.calls": c[i["core.weights"]],
            "core.weights.count": k["core.weights.count"],
            "core.weights.self_s": s[i["core.weights"]],
            "operators.series.calls": series,
            "operators.series.v_terms": k["operators.series.v_terms"],
            "operators.series.v_terms_per_eval": _ratio(k["operators.series.v_terms"], series),
            "operators.series.self_s": s[i["operators.series"]],
            "operators.cache.lookups": lookups,
            "operators.cache.misses": k["operators.cache.misses"],
            "operators.cache.hit_ratio": _ratio(lookups - k["operators.cache.misses"], lookups),
            "operators.cache.self_s": s[i["operators.cache"]],
            "operators.cache.tables_live": self.live[0],
            "operators.cache.entries_live": self.live[1],
            "kernels.quad.calls": quad_calls,
            "kernels.quad.integrand_calls": k["kernels.quad.integrand_calls"],
            "kernels.quad.integrand_per_integral": _ratio(
                k["kernels.quad.integrand_calls"], quad_calls),
            "kernels.quad.ms_per_integral": 1e3 * _ratio(quad_total, quad_calls),
            "kernels.quad.self_s": s[i["kernels.quad"]],
            "functions.fn.calls": c[i["functions.fn"]],
            "functions.fn.points": k["functions.fn.points"],
            "functions.fn.self_s": s[i["functions.fn"]],
            "moments.calls": c[i["moments"]],
            "moments.self_s": s[i["moments"]],
            "analysis.modulus.calls": c[i["analysis.modulus"]],
            "analysis.modulus.self_s": s[i["analysis.modulus"]],
            "analysis.sweep.self_s": s[i["analysis.sweep"]],
            "cli.resolve.self_s": s[i["cli.resolve"]],
            "cli.io.self_s": s[i["cli.io"]],
            "cli.io.bytes": k["cli.io.bytes"],
        }
        self.passes.append(m)
        self.calls_seen = [a + b for a, b in zip(self.calls_seen, c)]

    # -- results ---------------------------------------------------------------

    def verify(self):
        """Raise TraceError unless every expected layer was reached and the
        repeatable counts matched across traced passes."""
        if len(self.passes) < 2:
            raise TraceError("a traced run needs at least two traced passes")
        for layer in sorted(EXPECTED[self.workload]):
            if self.calls_seen[self.ids[layer]] == 0:
                raise TraceError(f"layer {layer} saw no calls: has its wrap point moved?")
        if self.workload == "grid-warm":
            quad = [p["kernels.quad.calls"] for p in self.passes]
            if any(quad):
                raise TraceError(f"timed grid-warm passes computed integrals: {quad}")
        elif any(p["kernels.quad.calls"] and not p["kernels.quad.integrand_calls"]
                 for p in self.passes):
            raise TraceError("quadratures ran but no integrand calls were counted")
        for key in REPEATABLE:
            seen = {p[key] for p in self.passes}
            if len(seen) != 1:
                raise TraceError(f"{key} differs between traced passes: {sorted(seen)}")

    def metrics(self) -> dict:
        """Per-layer metrics: the median over traced passes."""
        return {k: statistics.median(p[k] for p in self.passes) for k in self.passes[0]}

    def write(self, path):
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, workload=np.array(self.workload), layers=np.array(LAYERS),
                            **{name: np.array(col) for name, col in self.columns.items()})


def _ratio(num, den):
    return num / den if den else 0.0

"""Spans around the calls into each dpkanon module, recorded from outside.

Modules import names directly (`from .kmember import greedy_k_member`), so a
function is wrapped at every `dpkanon.*` module attribute that holds it:
that is where each caller looks it up. The package source is not touched,
and a function a later change removes is simply never called.

Per-record callees are not given spans of their own; their call count and
total time are added to the span that is open when they run.
"""
from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import dpkanon  # noqa: F401  (loads every submodule the CLI uses)
import dpkanon.cli  # noqa: F401

SPAN_FUNCS = (
    "dataset.load_table", "dataset.standardize", "dataset.build_empirical_joint",
    "kmember.greedy_k_member",
    "dither.build_cell_partition",
    "rosenblatt.forward_gaussian",
    "pipeline.prepare", "pipeline.transform",
    "pipeline.write_anonymized_csv", "pipeline.write_sidecar",
    "reid.reid_trials", "reid.match_min_distance",
    "shiftlearn.nonparametric_weights", "shiftlearn.logistic_weights",
    "shiftlearn.build_design", "shiftlearn.weighted_least_squares",
    "shiftlearn.predict", "shiftlearn.histogram_intersection",
)
PER_RECORD_FUNCS = (
    "dither.substream", "dither.sample_intra_cluster", "dither.sample_gaussian",
    "rosenblatt.forward_cell_uniform", "rosenblatt.inverse_empirical_indices",
)
TRANSFORM_METHODS = ("centroid", "resample", "permute", "cell_dither", "gaussian")


def _original(qualname):
    module, name = qualname.split(".")
    return getattr(sys.modules.get(f"dpkanon.{module}"), name, None)


@contextmanager
def _patched(replacements):
    """Swap each original function for its replacement at every dpkanon
    module attribute that holds it; restore on exit."""
    saved = []
    try:
        for orig, repl in replacements:
            if orig is None:  # removed from the package
                continue
            for modname, mod in list(sys.modules.items()):
                if modname != "dpkanon" and not modname.startswith("dpkanon."):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, repl)
                        saved.append((mod, attr, orig))
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def _method_of(args, kwargs):
    return kwargs["method"] if "method" in kwargs else args[1]


class Tracer:
    """In-memory span recorder. A span is a dict with name, start, end,
    parent id, invocation id, and the per-record callees it aggregated."""

    def __init__(self):
        self.spans = []
        self.invocation = 0
        self._stack = []
        self.models = []  # (ClusterModel, table) from greedy_k_member calls

    def _open(self, name):
        span = {"id": len(self.spans), "name": name, "inv": self.invocation,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "agg": {}}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if name == "pipeline.transform":
                span["tag"] = _method_of(args, kwargs)
            elif name == "kmember.greedy_k_member":
                self.models.append((result, args[0]))
            elif name == "dataset.build_empirical_joint":
                span["cells"] = len(result.counts)
            return result
        return wrapper

    def _record_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                agg = self._stack[-1]["agg"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
        return wrapper

    @contextmanager
    def installed(self):
        repl = []
        for name in SPAN_FUNCS:
            if (fn := _original(name)) is not None:
                repl.append((fn, self._span_wrapper(name, fn)))
        for name in PER_RECORD_FUNCS:
            if (fn := _original(name)) is not None:
                repl.append((fn, self._record_wrapper(name, fn)))
        with _patched(repl):
            yield self


def layer_metrics(spans, models) -> dict:
    """Per-layer values of one traced round: seconds and call counts per
    function, self times, and the exact counts taken from return values."""
    from dpkanon.kmember import total_distortion

    by_id = {s["id"]: s for s in spans}
    child_s = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]
    total, calls, self_s = {}, {}, {}
    for s in spans:
        dur = s["end"] - s["start"]
        key = s["name"] + (f".{s['tag']}" if "tag" in s else "")
        total[key] = total.get(key, 0.0) + dur
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        own = dur - child_s[s["id"]]
        for name, (n, t) in s["agg"].items():
            total[name] = total.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + n
            own -= t
        self_s[key] = self_s.get(key, 0.0) + own

    m = {}
    for name in ("dataset.load_table", "dataset.standardize",
                 "dataset.build_empirical_joint", "kmember.greedy_k_member",
                 "dither.build_cell_partition", "pipeline.prepare",
                 "pipeline.write_anonymized_csv", "pipeline.write_sidecar",
                 "reid.reid_trials", "reid.match_min_distance", "cli.main",
                 *(f for f in SPAN_FUNCS if f.startswith("shiftlearn."))):
        m[f"{name}.s"] = total.get(name, 0.0)
    for name in ("dataset.build_empirical_joint", "reid.match_min_distance",
                 "rosenblatt.forward_gaussian", *PER_RECORD_FUNCS):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("rosenblatt.forward_gaussian", *PER_RECORD_FUNCS):
        m[f"{name}.s"] = total.get(name, 0.0)
    for method in TRANSFORM_METHODS:
        m[f"pipeline.transform.s.{method}"] = total.get(f"pipeline.transform.{method}", 0.0)
        m[f"pipeline.transform.self_s.{method}"] = self_s.get(
            f"pipeline.transform.{method}", 0.0)
    m["reid.reid_trials.self_s"] = self_s.get("reid.reid_trials", 0.0)
    # distinct QI tuples of the table the pipeline clusters
    m["dataset.joint_cells"] = max(
        (s["cells"] for s in spans if s["name"] == "dataset.build_empirical_joint"
         and s["parent"] is not None
         and by_id[s["parent"]]["name"] == "pipeline.prepare"), default=0)
    m["kmember.clusters"] = sum(model.c for model, _ in models)
    m["kmember.total_distortion"] = sum(total_distortion(model, table)
                                        for model, table in models)
    return m


def median_metrics(rounds) -> dict:
    """Median over rounds; a value equal in every round (an exact count) is
    kept as it is."""
    out = {}
    for key in rounds[0]:
        vals = [r[key] for r in rounds]
        out[key] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    return out


@contextmanager
def memory_probe(peaks: dict):
    """Record the tracemalloc peak above the starting level of each
    `pipeline.transform` call (per method) and `reid.match_min_distance`
    call, in MB; keep the largest per key. Runs apart from the timed rounds
    because tracemalloc slows every allocation."""
    def probe(key_of, fn):
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args, **kwargs)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            key = key_of(args, kwargs)
            peaks[key] = max(peaks.get(key, 0.0), peak)
            return result
        return wrapper

    repl = [
        (_original("pipeline.transform"),
         probe(lambda a, kw: f"pipeline.transform.peak_mb.{_method_of(a, kw)}",
               _original("pipeline.transform"))),
        (_original("reid.match_min_distance"),
         probe(lambda a, kw: "reid.match_min_distance.peak_mb",
               _original("reid.match_min_distance"))),
    ]
    tracemalloc.start()
    try:
        with _patched(repl):
            yield
    finally:
        tracemalloc.stop()

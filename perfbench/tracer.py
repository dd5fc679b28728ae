"""Spans around the public functions of each momentbounds layer, recorded from outside.

:meth:`Tracer.install` replaces every binding of an instrumented function
in the loaded ``momentbounds`` modules with a wrapper that records a span
(name, start, end, parent, op id), so calls made through ``from .x import
f`` names are seen too.  A span's self time is its duration minus the
time of the child spans it covers.  QR and the eigen-solve share the one
``rmt.sample_haar_batch`` span, and quadrature shows only inside its
callers, because both live below the public functions.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _moment_info(fn, args, kwargs, result):
    n = _bind(fn, args, kwargs)["req"].n
    return {"terms": math.prod(range(n - 1, 0, -2)) if n % 2 == 0 else 0}


def _bound_info(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    key = (tuple(tf.spec_string for tf in a["slot_functions"]), a["family"].value, a["regime"])
    return {"key": key}


def _objective_info(fn, args, kwargs, result):
    from momentbounds.optimize import PENALTY_SCALE

    return {"feasible": int(result < PENALTY_SCALE)}


def _search_info(fn, args, kwargs, result):
    return {
        "evals": sum(t.evaluations for t in result.trace),
        "converged": sum(t.converged for t in result.trace),
    }


def _haar_info(fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    return {"group": a["group"].value, "matrices": a["count"]}


def _verify_info(fn, args, kwargs, result):
    return {"failed": sum(not c.passed for c in result)}


# (module, function, span name, extra-attribute extractor)
FUNCTIONS = [
    ("testfunc", "make_from_generator", "testfunc.build", None),
    ("testfunc", "sigma2", "testfunc.sigma2", None),
    ("kernels", "expectation_1level", "kernels.expectation", None),
    ("kernels", "expectation_2level", "kernels.expectation", None),
    ("moments", "r_term", "moments.r_term", None),
    ("moments", "centered_moment", "moments.centered_moment", _moment_info),
    ("bounds", "bound_moment", "bounds.bound_moment", _bound_info),
    ("bounds", "reproduce_table", "bounds.reproduce_table", lambda f, a, k, r: {"cells": len(r)}),
    ("optimize", "objective", "optimize.objective", _objective_info),
    ("optimize", "search", "optimize.search", _search_info),
    ("rmt", "sample_haar_batch", "rmt.sample_haar_batch", _haar_info),
    ("rmt", "verify_moments", "rmt.verify_moments", _verify_info),
    ("rmt", "predicted_moment", "rmt.predicted_moment", None),
]
# phi is called per quadrature point, so its spans are only summed, not kept.
METHODS = [
    ("testfunc", "NaiveTestFunction", "phi", "testfunc.phi.naive"),
    ("testfunc", "GeneratorBackedTestFunction", "phi", "testfunc.phi.gen"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.stack: list[list] = []  # open spans: [id, child seconds]
        self.op = -1
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.busy = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.durations = defaultdict(list)
        self.extra = defaultdict(list)
        self.points = defaultdict(int)
        self.open_names = defaultdict(int)
        self.ids = itertools.count()
        self.missing: list[str] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.startswith("momentbounds")]
        for module, attr, name, info in FUNCTIONS:
            original = getattr(importlib.import_module(f"momentbounds.{module}"), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, name, info)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"momentbounds.{module}"), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap_points(getattr(cls, attr), name))

    def _enter(self, name: str) -> tuple[list, float]:
        frame = [next(self.ids), 0.0]
        self.stack.append(frame)
        self.open_names[name] += 1
        return frame, perf_counter()

    def _exit(self, name: str, frame: list, start: float) -> float:
        end = perf_counter()
        self.stack.pop()
        self.open_names[name] -= 1
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        if not self.open_names[name]:
            self.busy[name] += duration
        self.self_time[name] += duration - frame[1]
        return end

    def _wrap(self, fn, name, info):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1][0] if self.stack else None
            frame, start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                end = self._exit(name, frame, start)
                self.durations[name].append(end - start)
                self.spans.append((frame[0], name, start, end, parent, self.op))
            if info is not None:
                try:
                    attrs = info(fn, args, kwargs, result)
                except Exception as exc:  # noqa: BLE001 - a changed signature loses one metric
                    self.missing.append(f"{name}: {type(exc).__name__}: {exc}")
                else:
                    self.extra[name].append(dict(attrs, seconds=end - start))
            return result

        return wrapper

    def _wrap_points(self, method, name):
        def wrapper(obj, x):
            frame, start = self._enter(name)
            try:
                return method(obj, x)
            finally:
                self._exit(name, frame, start)
                self.points[name] += getattr(x, "size", 1)

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        self.op = op_id
        return self._wrap(fn, "cli.main", None)(*args)

    def _sum(self, name: str, field: str) -> int:
        return sum(e.get(field, 0) for e in self.extra[name])

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of one traced pass, except the percentiles."""
        out = {"cli.main.self_s": self.self_time["cli.main"]}
        for name in ("testfunc.build", "testfunc.sigma2", "kernels.expectation",
                     "moments.r_term", "moments.centered_moment", "bounds.bound_moment",
                     "optimize.objective"):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.busy_s"] = self.busy[name]
        for name in ("bounds.reproduce_table", "optimize.search", "rmt.verify_moments",
                     "rmt.predicted_moment"):
            out[f"{name}.busy_s"] = self.busy[name]
        for kind in ("naive", "gen"):
            name = f"testfunc.phi.{kind}"
            out[f"{name}.points"] = self.points[name]
            out[f"{name}.busy_s"] = self.busy[name]
            out[f"{name}.ns_per_point"] = 1e9 * self.busy[name] / max(1, self.points[name])
        # Generator phi: two length-512 dot products (cos and sin) per point.
        from momentbounds.testfunc import GeneratorBackedTestFunction

        nodes = getattr(GeneratorBackedTestFunction, "_GL_NODES", 0)
        out["testfunc.phi.gen.flops"] = 4 * nodes * self.points["testfunc.phi.gen"]
        out["moments.r_term.failed"] = self.failed["moments.r_term"]
        terms = self._sum("moments.centered_moment", "terms")
        out["moments.matching.terms"] = terms
        out["moments.matching.self_s"] = self.self_time["moments.centered_moment"]
        out["moments.matching.ns_per_term"] = 1e9 * out["moments.matching.self_s"] / max(1, terms)
        out["bounds.bound_moment.self_s"] = self.self_time["bounds.bound_moment"]
        out["bounds.reproduce_table.cells"] = self._sum("bounds.reproduce_table", "cells")
        keys = [e["key"] for e in self.extra["bounds.bound_moment"]]
        out["bounds.repeat_moment_frac"] = (len(keys) - len(set(keys))) / max(1, len(keys))
        out["optimize.objective.feasible_frac"] = self._sum(
            "optimize.objective", "feasible") / max(1, self.calls["optimize.objective"])
        out["optimize.search.evals"] = self._sum("optimize.search", "evals")
        out["optimize.search.converged"] = self._sum("optimize.search", "converged")
        for group in ("so-even", "so-odd", "u"):
            name = f"rmt.sample_haar_batch.{group}"
            spans = [e for e in self.extra["rmt.sample_haar_batch"] if e["group"] == group]
            matrices = sum(e["matrices"] for e in spans)
            busy = sum(e["seconds"] for e in spans)
            out[f"{name}.matrices"] = matrices
            out[f"{name}.busy_s"] = busy
            out[f"{name}.us_per_matrix"] = 1e6 * busy / max(1, matrices)
        out["rmt.verify_moments.self_s"] = self.self_time["rmt.verify_moments"]
        out["rmt.verify_moments.failed"] = self._sum("rmt.verify_moments", "failed")
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": o}
            for i, n, s, e, p, o in self.spans
        ]


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}


# Span durations pooled over the traced passes of a run, so that a
# percentile rests on every call the run made.
PERCENTILES = {"testfunc.build": (50,), "moments.r_term": (50,), "optimize.objective": (50, 90)}


def percentile_metrics(durations: list[dict[str, list[float]]]) -> dict[str, float]:
    out = {}
    for name, qs in PERCENTILES.items():
        pooled = sorted(d for run in durations for d in run.get(name, []))
        for q in qs:
            out[f"{name}.p{q}_ms"] = (
                1e3 * pooled[min(len(pooled) - 1, q * len(pooled) // 100)] if pooled else 0.0
            )
    return out

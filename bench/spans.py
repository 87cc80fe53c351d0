"""Outside-in spans around kincal's public functions.

Each traced function is replaced, at the module or class attribute where
its caller looks it up, by a wrapper that records a span (name, start,
end, parent, run id). Spans stay in memory until the run ends. A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

import numpy as np

# (module, class or None, attribute, span name). The same function
# reached through two attributes (rls_update from kincal.cli and from
# lookahead) gets two span names so the two call sites stay apart.
TRACED = (
    ("kincal.cli", None, "run_experiment", "cli.run_experiment"),
    ("kincal.cli", None, "write_records", "cli.write_records"),
    ("kincal.cli", None, "select_next", "active.select_next"),
    ("kincal.cli", None, "rls_update", "estimator.rls_update"),
    ("kincal.cli", None, "measure", "sim.measure"),
    ("kincal.cli", None, "metrics", "sim.metrics"),
    ("kincal.cli", None, "prediction_error", "estimator.prediction_error"),
    ("kincal.active", None, "lookahead_cost", "active.lookahead_cost"),
    ("kincal.active", None, "rls_update", "estimator.rls_update.lookahead"),
    ("kincal.direct", None, "minimize", "direct.minimize"),
    ("kincal.direct", None, "potentially_optimal", "direct.potentially_optimal"),
    ("kincal.kinematics", "ChainObservationModel", "predict", "kinematics.predict"),
    ("kincal.kinematics", "ChainObservationModel", "jacobian", "kinematics.jacobian"),
    ("kincal.kinematics", "ChainObservationModel", "predict_batch",
     "kinematics.predict_batch"),
    ("kincal.fov", "FovConfig", "contains", "fov.contains"),
)

_START, _END = 1, 2


class Tracer:
    """Installs the wrappers, keeps the spans, computes per-layer numbers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self._patches = []
        self.penalized = 0       # lookahead calls that returned 2 tr(P)
        self.rejected = 0        # measure calls that returned None
        self.evaluations = []    # objective evaluations per selection
        self.written_bytes = 0
        self._prior_state = None
        self._prior_trace = 0.0

    def install(self) -> None:
        after = {
            "active.lookahead_cost": self._after_lookahead,
            "sim.measure": self._after_measure,
            "active.select_next": self._after_select,
            "cli.write_records": self._after_write,
        }
        for module_name, class_name, attr, name in TRACED:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, name, after.get(name)))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, original, name, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """A span timed by the caller, under the span open now."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    def _after_lookahead(self, args, cost) -> None:
        # runs inside direct.minimize's span, so tr(P) is taken once per
        # selection (one state) to keep DIRECT's self time honest
        state = args[0].state
        if state is not self._prior_state:
            self._prior_state = state
            self._prior_trace = float(np.trace(state.covariance))
        if cost == self._prior_trace + self._prior_trace:
            self.penalized += 1

    def _after_measure(self, _args, y) -> None:
        if y is None:
            self.rejected += 1

    def _after_select(self, _args, result) -> None:
        self.evaluations.append(result.evaluations)

    def _after_write(self, args, _result) -> None:
        path = args[2]
        for name in (path, os.path.splitext(path)[0] + ".csv", path + ".timing"):
            if os.path.exists(name):
                self.written_bytes += os.path.getsize(name)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent, self.run_id]))
                fh.write("\n")

    def layer_stats(self) -> dict:
        """Per span name: calls, inclusive per-call seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"durations": [], "self": 0.0})
            entry["durations"].append(end - start)
            entry["self"] += end - start - child[i]
        return stats

    def summary(self, wall: float) -> dict:
        """Per-layer metrics of this traced repeat, plus self seconds by
        span name and the part of `wall` outside every span."""
        stats = self.layer_stats()
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        metrics = per_layer_metrics(stats, self)
        metrics["trace.covered_ratio"] = roots / wall
        return {"metrics": metrics, "wall_s": wall, "outside_spans_s": wall - roots,
                "self_s": {name: entry["self"] for name, entry in stats.items()}}


def per_layer_metrics(stats: dict, tracer: Tracer) -> dict:
    """The per-layer metric values of one traced repeat, by metric name."""

    def calls(name):
        return len(stats.get(name, {"durations": []})["durations"])

    def us_p50(name):
        durations = stats.get(name, {"durations": []})["durations"]
        return 1e6 * statistics.median(durations) if durations else 0.0

    def self_s(name):
        return stats.get(name, {"self": 0.0})["self"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    out = {}
    for layer in ("kinematics.predict", "kinematics.jacobian", "kinematics.predict_batch",
                  "estimator.rls_update"):
        out[f"{layer}.calls"] = calls(layer)
        out[f"{layer}.us_p50"] = us_p50(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    out["estimator.rls_update.lookahead_calls"] = calls("estimator.rls_update.lookahead")
    out["estimator.rls_update.lookahead_self_s"] = self_s("estimator.rls_update.lookahead")
    for layer in ("estimator.prediction_error", "sim.metrics"):
        out[f"{layer}.us_p50"] = us_p50(layer)
        out[f"{layer}.self_s"] = self_s(layer)
    lookahead = calls("active.lookahead_cost")
    out["active.lookahead_cost.calls"] = lookahead
    out["active.lookahead_cost.us_p50"] = us_p50("active.lookahead_cost")
    out["active.lookahead_cost.self_s"] = self_s("active.lookahead_cost")
    out["active.lookahead_cost.penalized_ratio"] = ratio(tracer.penalized, lookahead)
    out["active.select_next.calls"] = calls("active.select_next")
    out["active.select_next.us_p50"] = us_p50("active.select_next")
    out["active.select_next.self_s"] = self_s("active.select_next")
    out["direct.minimize.self_s"] = self_s("direct.minimize")
    out["direct.potentially_optimal.calls"] = calls("direct.potentially_optimal")
    out["direct.potentially_optimal.self_s"] = self_s("direct.potentially_optimal")
    evaluations = tracer.evaluations
    out["direct.evals_per_select"] = ratio(sum(evaluations), len(evaluations))
    measures = calls("sim.measure")
    out["sim.measure.calls"] = measures
    out["sim.measure.us_p50"] = us_p50("sim.measure")
    out["sim.measure.rejected_ratio"] = ratio(tracer.rejected, measures)
    out["fov.contains.calls"] = calls("fov.contains")
    out["fov.contains.self_s"] = self_s("fov.contains")
    out["cli.run_experiment.self_s"] = self_s("cli.run_experiment")
    out["cli.write_records.s"] = sum(stats.get("cli.write_records", {"durations": []})["durations"])
    out["cli.write_records.bytes"] = tracer.written_bytes
    return out

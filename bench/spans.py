"""In-memory span tracer for the traced benchmark run.

The tracer replaces public functions of vecsobol in the modules where their
callers look them up. Each call records one span: name, start, end, the id
of the span that caused it, the pass it belongs to, and counts taken at the
same boundary. Spans stay in memory and are written out when the run ends.
Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# span name -> per-layer metric holding the span's summed self time
SELF_TIME_METRICS = {
    "spaces.sample": "spaces.sample_s",
    "models.evaluate": "models.evaluate_s",
    "models.load_external": "models.load_external_s",
    "pickfreeze.design": "pickfreeze.design_s",
    "pickfreeze.evaluate_pairs": "pickfreeze.evaluate_pairs_s",
    "pickfreeze.estimate": "pickfreeze.estimate_s",
    "pickfreeze.estimate_weighted": "pickfreeze.estimate_weighted_s",
    "pickfreeze.read_sample": "pickfreeze.read_sample_s",
    "inference.delta": "inference.delta_s",
    "inference.bootstrap": "inference.bootstrap_s",
    "inference.replication": "inference.replication_s",
    "oracle.quadrature": "oracle.quadrature_s",
    "oracle.closed_form": "oracle.closed_form_s",
    "oracle.exact_index": "oracle.exact_index_s",
    "cli.parse": "cli.parse_s",
    "cli.run": "cli.run_self_s",
    "cli.report": "cli.report_s",
}

# span name -> per-layer metric counting its calls
CALL_METRICS = {
    "spaces.sample": "spaces.sample_calls",
    "models.evaluate": "models.evaluate_calls",
    "pickfreeze.estimate": "pickfreeze.estimate_calls",
}

# summed per-span counts; estimate_bytes is turned into bytes per estimate
COUNT_METRICS = (
    "spaces.draws",
    "models.rows",
    "models.table_rows",
    "pickfreeze.estimate_bytes",
    "inference.bootstrap_rows",
    "inference.replicates",
    "oracle.grid_nodes",
    "cli.report_bytes",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "B"
    if metric == "oracle.max_residual":
        return "abs"
    return "count"


def _rows(a, result):
    return {"models.rows": int(np.shape(a["inputs"])[0])}


def _draws(a, result):
    return {"spaces.draws": int(a["n"]) * len(a["marginals"])}


def _estimate_bytes(a, result):
    # computed from array sizes, not measured traffic
    sample = a["sample"]
    return {"pickfreeze.estimate_bytes": int(sample.y.nbytes + sample.y_u.nbytes)}


def _bootstrap_rows(a, result):
    return {"inference.bootstrap_rows": int(a["b_reps"]) * int(a["sample"].n)}


def _replicates(a, result):
    return {"inference.replicates": int(a["reps"])}


def _quadrature(a, result):
    nodes = int(a["nodes_per_dim"]) ** a["space"].dims
    return {"oracle.grid_nodes": nodes, "oracle.max_residual": float(result.residual)}


def _closed_form(a, result):
    return {"oracle.max_residual": float(result.residual)}


def _table_rows(a, result):
    return {"models.table_rows": int(result.params["rows"])}


def _report_bytes(a, result):
    return {"cli.report_bytes": len(result.encode())}


def instrument(tracer: "Tracer", vs) -> None:
    """Wrap the public layer functions of the package modules in ``vs``.

    ``vs`` maps module names (spaces, models, pickfreeze, inference, oracle,
    cli) to the imported modules. A function is wrapped in every module that
    calls it through its own namespace.
    """
    cli, inference, oracle = vs["cli"], vs["inference"], vs["oracle"]
    tracer.wrap([vs["pickfreeze"]], "sample_marginals", "spaces.sample", _draws)
    tracer.wrap([vs["models"].VectorModel], "evaluate", "models.evaluate", _rows)
    tracer.wrap([cli], "load_external_model", "models.load_external", _table_rows)
    tracer.wrap([cli, inference], "generate_design", "pickfreeze.design")
    tracer.wrap([cli, inference], "evaluate_pairs", "pickfreeze.evaluate_pairs")
    tracer.wrap([cli, inference], "estimate_index", "pickfreeze.estimate", _estimate_bytes)
    tracer.wrap([cli], "estimate_index_general", "pickfreeze.estimate_weighted")
    tracer.wrap([cli], "read_sample_csv", "pickfreeze.read_sample")
    tracer.wrap([cli, inference], "delta_ci", "inference.delta")
    tracer.wrap([inference], "delta_variance", "inference.delta")
    tracer.wrap([cli, inference], "bootstrap_ci", "inference.bootstrap", _bootstrap_rows)
    tracer.wrap([cli], "clt_diagnostic", "inference.replication", _replicates)
    # linear_model imports covariances_linear from the oracle module when it
    # builds a model, so the wrapper must be in place before configs are parsed
    tracer.wrap([cli, oracle], "covariances_quadrature", "oracle.quadrature", _quadrature)
    tracer.wrap([oracle], "covariances_linear", "oracle.closed_form", _closed_form)
    tracer.wrap([cli, oracle], "exact_index", "oracle.exact_index")
    tracer.wrap([cli], "parse_config", "cli.parse")
    tracer.wrap([cli], "run", "cli.run")
    tracer.wrap([cli], "report_to_json", "cli.report", _report_bytes)


class Tracer:
    """Records spans while active; an inactive wrapper calls straight through.

    ``pass_id`` tags every span recorded, so the spans of one pass share an
    identifier ("setup" for set-up, 0, 1, ... for traced passes).
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self.pass_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owners, attr, name, counts=None):
        for owner in owners:
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._traced(original, name, counts))

    def _traced(self, fn, name, counts):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"id": len(tracer.spans), "parent": parent, "name": name, "pass": tracer.pass_id}
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span["counts"] = counts(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def restore(self) -> None:
        """Put every original function back."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def layer_metrics(self, traced_passes) -> dict:
        """Per-layer metrics: set-up spans once plus the median over traced passes."""
        setup = _aggregate([s for s in self.spans if s["pass"] == "setup"])
        per_pass = [_aggregate([s for s in self.spans if s["pass"] == p]) for p in traced_passes]
        out = {}
        for name in setup:
            values = [m[name] for m in per_pass] or [0.0]
            if name == "oracle.max_residual":
                out[name] = max(setup[name], *values)
            else:
                out[name] = setup[name] + statistics.median(values)
        return out


def _aggregate(spans: list[dict]) -> dict:
    """Self times, call counts and counts of one group of spans.

    A span's self time is its duration minus the time its direct children
    cover. The program is single-threaded, so children never overlap and the
    covered time is the sum of their durations.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    out.update(dict.fromkeys(CALL_METRICS.values(), 0))
    out.update(dict.fromkeys(COUNT_METRICS, 0))
    out["oracle.max_residual"] = 0.0
    by_id = {s["id"]: s for s in spans}
    pair_rows = 0
    for s in spans:
        name = s["name"]
        out[SELF_TIME_METRICS[name]] += s["end"] - s["start"] - child_time[s["id"]]
        if name in CALL_METRICS:
            out[CALL_METRICS[name]] += 1
        for key, value in s.get("counts", {}).items():
            if key == "oracle.max_residual":
                out[key] = max(out[key], value)
            else:
                out[key] += value
        parent = by_id.get(s["parent"])
        if name == "models.evaluate" and parent and parent["name"] == "pickfreeze.evaluate_pairs":
            pair_rows += s["counts"]["models.rows"]
    estimates = out["pickfreeze.estimate_calls"]
    out["pickfreeze.estimate_bytes"] = out["pickfreeze.estimate_bytes"] / estimates if estimates else 0.0
    pairs = sum(1 for s in spans if s["name"] == "pickfreeze.evaluate_pairs")
    out["pickfreeze.rows_per_index"] = pair_rows / pairs if pairs else 0.0
    return out

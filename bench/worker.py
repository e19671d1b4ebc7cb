"""The measured process of one benchmark run; run.py starts it.

It imports vecsobol, sets one workload up from the files in its work
directory and prints "ready". With --setup-only it stops there. Otherwise it
runs timed passes for --seconds (at least MIN_PASSES), checks the outputs,
and prints one JSON line with its measurements. With --trace 1 it alternates
untraced and traced passes and reports per-layer metrics from the traced
ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3


def count_model_rows(model_cls) -> list:
    """Wrap ``model_cls.evaluate`` so that every call adds its row count to
    the one-item list returned. It costs one Python call per evaluation."""
    rows = [0]
    evaluate = model_cls.evaluate

    def counted(self, inputs):
        rows[0] += len(inputs)
        return evaluate(self, inputs)

    model_cls.evaluate = counted
    return rows


def _timed_pass(wl, state, vs, rows) -> tuple[float, object, int]:
    """Wall time, output (None when the pass raised) and model rows of one pass."""
    rows[0] = 0
    t0 = time.perf_counter()
    try:
        out = wl.run_pass(state, vs)
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - t0, out, rows[0]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]

    vs = workloads.import_package()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.instrument(tracer, vs)
        tracer.pass_id, tracer.active = "setup", True
    state = wl.setup(args.work, vs)
    if tracer:
        tracer.active = False
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # the first pass's output and row count are the reference every later
    # pass must reproduce exactly
    rows = count_model_rows(vs["models"].VectorModel)
    walls, traced_walls, outputs = [], [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(walls) + len(traced_walls) < MIN_PASSES:
        traced = tracer is not None and len(traced_walls) < len(walls)
        if traced:
            tracer.pass_id, tracer.active = len(traced_walls), True
        wall, out, n_rows = _timed_pass(wl, state, vs, rows)
        if tracer:
            tracer.active = False
        (traced_walls if traced else walls).append(wall)
        outputs.append((out, n_rows))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first, model_evals = outputs[0]
    failed = sum(out is None or (out, n) != (first, model_evals) for out, n in outputs)
    result = {"passes": len(outputs), "model_evals": model_evals, "walls": walls,
              "peak_rss_mb": peak_rss_mb}
    if tracer:
        tracer.restore()
        tracer.write(args.work / "spans.json")
        layers = tracer.layer_metrics(range(len(traced_walls)))
        layers["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
        result["layers"] = layers

    try:
        errors = wl.check(args.work, state, first, vs)
    except Exception as exc:
        traceback.print_exc()
        errors = [f"check raised {exc!r}"]
    # every pass either failed already or reproduced the first output, so a
    # failed check fails them all
    result["failed"] = result["passes"] if errors else failed
    result["errors"] = errors

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "blas": f"{blas.get('name')} {blas.get('version')}"}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

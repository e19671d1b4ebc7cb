"""vecsobol benchmark: one workload per call, checked outputs, metrics by name.

Usage, from the root of the repository:

    python3 bench/run.py --workload bigN_delta --seed 1 --seconds 45 --trace 0

It generates the workload's inputs from --seed into bench/work/<workload>/,
times set-up in fresh processes, starts bench/worker.py to run and check the
analysis passes, prints each metric with its unit and provenance, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The package is imported from src/ of the same checkout; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Set-up-only processes that run before and after the measured worker, whose
# own set-up is one more sample; spreading the samples over the run keeps a
# slow moment of the host from setting all of them.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 1, 2
WORKER_TIMEOUT_S = 150
# One BLAS thread: with two, a pass waits at every BLAS barrier for whichever
# vCPU the shared host stalls, and one thread measured no slower here.
BLAS_THREADS = 1


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _start_worker(args, work: Path, setup_only: bool) -> tuple[float, subprocess.Popen]:
    """Start a worker; returns the seconds from its start until it reported ready."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit {proc.returncode})")
    return ready, proc


def _probe_setup(args, work: Path) -> float:
    ready, proc = _start_worker(args, work, setup_only=True)
    _finish(proc)
    return ready


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (SRC / "vecsobol" / "__init__.py").is_file():
        print(f"benchmark: no vecsobol package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("benchmark: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    work = BENCH_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sizes = wl.generate(work, args.seed)

    # the traced run reports no set-up time, so it needs no probes
    probes = not args.trace
    setup_samples = [_probe_setup(args, work) for _ in range(SETUP_PROBES_BEFORE * probes)]
    ready, proc = _start_worker(args, work, setup_only=False)
    setup_samples.append(ready)
    res = json.loads(_finish(proc).strip().splitlines()[-1])
    setup_samples += [_probe_setup(args, work) for _ in range(SETUP_PROBES_AFTER * probes)]

    provenance = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": _nproc(), "blas_threads": BLAS_THREADS, "python": platform.python_version(),
        **res["versions"], "git_commit": _git_commit(), "sizes": sizes, "passes": res["passes"],
    }
    (work / "provenance.json").write_text(json.dumps(provenance, indent=1), encoding="utf-8")
    print("provenance " + json.dumps(provenance))
    for err in res["errors"]:
        print(f"check failed: {err}", file=sys.stderr)

    attempted, failed = res["passes"], res["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in res["layers"].items()}
    else:
        wall = statistics.median(res["walls"])
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "evals_per_s": {"value": res["model_evals"] / wall, "unit": "1/s"},
            "model_evals": {"value": res["model_evals"], "unit": "count"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            # failed_frac is 0 whenever the run is clean; its complement keeps
            # the metric nonzero, and failed/attempted carry the raw counts
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} passes)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not res["errors"] and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

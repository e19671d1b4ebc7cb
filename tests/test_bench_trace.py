"""Contract between the benchmark's span tracer and the package.

bench/spans.py wraps package functions by name in the modules where their
callers look them up. A refactor that moves a call to a name the tracer does
not wrap leaves a traced run silently without that layer's spans; this test
runs one traced closed-form CLI analysis and asserts the layers it must show.
"""

import importlib.util
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_records_the_closed_form_oracle():
    spans, workloads = _load_bench_module("spans"), _load_bench_module("workloads")
    vs = workloads.import_package()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, vs)
        config = vs["cli"].parse_config(
            "model: identity_2\nsubsets: [[1]]\nn: 200\nseed: 1\noracle: auto\nci: delta\n"
        )
        tracer.pass_id, tracer.active = 0, True
        report = vs["cli"].run(config)
    finally:
        tracer.restore()
    assert report.subsets[0].oracle_method == "closed_form"
    names = {span["name"] for span in tracer.spans}
    expected = {"cli.run", "pickfreeze.estimate", "inference.delta", "oracle.closed_form",
                "oracle.exact_index"}
    assert expected <= names

"""Contract between the benchmark's span tracer and the package.

bench/spans.py wraps package functions by name in the modules where their
callers look them up. A refactor that moves a call to a name the tracer does
not wrap leaves a traced run silently without that layer's spans; these
tests run traced CLI analyses and assert the layers and counts they must show.
"""

import importlib.util
from pathlib import Path

from vecsobol import inference

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_run(config_text):
    """Run one CLI analysis under the bench tracer; returns (report, spans)."""
    spans, workloads = _load_bench_module("spans"), _load_bench_module("workloads")
    vs = workloads.import_package()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, vs)
        config = vs["cli"].parse_config(config_text)
        tracer.pass_id, tracer.active = 0, True
        report = vs["cli"].run(config)
    finally:
        tracer.restore()
    return report, tracer.spans


def test_traced_run_records_the_closed_form_oracle():
    report, spans = _traced_run(
        "model: identity_2\nsubsets: [[1]]\nn: 200\nseed: 1\noracle: auto\nci: delta\n"
    )
    assert report.subsets[0].oracle_method == "closed_form"
    names = {span["name"] for span in spans}
    expected = {"cli.run", "pickfreeze.estimate", "inference.delta", "oracle.closed_form",
                "oracle.exact_index"}
    assert expected <= names


def test_traced_draws_count_every_design_column():
    # the tracer reads n and the marginals off sample_marginals' arguments
    n = 2**17
    report, spans = _traced_run(
        f"model: sum_prod\nsubsets: [[1], [2]]\nn: {n}\nseed: 1\noracle: auto\n"
    )
    assert [s.oracle_method for s in report.subsets] == ["quadrature"] * 2
    draws = {}
    for span in spans:
        if span["name"] == "spaces.sample":
            draws[span["parent"]] = draws.get(span["parent"], 0) + span["counts"]["spaces.draws"]
    designs = [span["id"] for span in spans if span["name"] == "pickfreeze.design"]
    # one design for the run: two inputs drawn for x and, for x', the union
    # of the two subsets' complements, which is both inputs: 4n
    assert sorted(draws) == designs and len(designs) == 1 and set(draws.values()) == {4 * n}
    assert sum(span["name"] == "oracle.quadrature" for span in spans) == 2


def test_traced_bootstrap_study_keeps_its_spans_on_the_calling_thread(monkeypatch):
    # the replicates' resampling runs on the study's pool and records no span;
    # every span is recorded on the calling thread and nests in its parent
    monkeypatch.setattr(inference, "_available_cpus", lambda: 2)
    reps = 200
    report, spans = _traced_run(
        "model: sum_prod\nsubsets: [[1]]\nn: 300\nseed: 3\noracle: auto\n"
        f"ci: {{kind: bootstrap, reps: 200}}\nreplications: {reps}\n"
    )
    assert report.subsets[0].replication["reps"] == reps
    names = [span["name"] for span in spans]
    assert names.count("inference.bootstrap") == 1 and names.count("inference.replication") == 1
    (study,) = [span["id"] for span in spans if span["name"] == "inference.replication"]
    designs = [span for span in spans if span["name"] == "pickfreeze.design"]
    assert sum(span["parent"] == study for span in designs) == reps
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]

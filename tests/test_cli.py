import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecsobol import (
    ConfigurationError,
    ContractError,
    DegenerateModelError,
    DegenerateSampleError,
    InputSpace,
    PickFreezeSample,
    SubsetIndex,
    VectorModel,
    bootstrap_ci,
    estimate_index,
    evaluate_pairs,
    generate_design,
    get_model,
    load_external_model,
    read_sample_csv,
)
from vecsobol import cli, oracle, pickfreeze, spaces
from vecsobol.cli import (
    EXIT_CONFIG,
    EXIT_DEGENERATE,
    EXIT_IO,
    EXIT_OK,
    RunReport,
    RunConfig,
    SubsetResult,
    config_from_tree,
    main,
    parse_config,
    report_to_json,
    run,
    write_report,
)
from vecsobol.pickfreeze import write_sample_csv

MINIMAL = """
schema: 1
model: identity_2
subsets: [[1]]
n: 1000
seed: 1
"""

COIN = "{kind: discrete, points: [0, 1], probs: [0.5, 0.5]}"
MIXED_SUM_PROD = f"""
model: sum_prod
space: [{{kind: uniform}}, {COIN}]
subsets: [[1]]
n: 1000
seed: 1
oracle: auto
"""


# Runs large enough that a BLAS product over all n rows is split across threads
BLAS_DELTA_WEIGHTED = """
model: {name: linear, params: {matrix: [[1.974, 0.709, 0.231, 0.32, 0.106, 0.765],
  [-0.901, -0.684, -0.921, -0.925, -0.488, -0.072], [-1.796, -0.062, 1.802, 0.532, -0.67, 0.923],
  [0.025, -0.054, 1.802, 0.817, -0.119, 0.383]]}}
subsets: [[1], [2], [3], [4], [5], [6], [1, 2]]
n: 200000
seed: 610
ci: delta
oracle: auto
matrix: [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]]
"""
BLAS_BOOTSTRAP = """
model: sum_prod
subsets: [[1]]
n: 200000
seed: 17
ci: {kind: bootstrap, reps: 200}
oracle: auto
"""
# a bootstrap replication study, whose batches resample 65 tables at once
BLAS_BOOTSTRAP_STUDY = """
model: sum_prod
subsets: [[1], [2]]
n: 500
seed: 3
ci: {kind: bootstrap, reps: 200}
oracle: auto
replications: 200
"""


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pairs_csv(tmp_path, n=500):
    model = get_model("sum_prod")
    sample = evaluate_pairs(model, generate_design(model.space(), SubsetIndex((0,), 2), n, 3))
    path = tmp_path / "pairs.csv"
    write_sample_csv(sample, str(path))
    return path


# (field the error must name, config; PAIRS stands for a valid sample file)
MALFORMED = [
    ("ci.level", MINIMAL + "ci: {kind: delta, level: abc}\n"),
    ("space[0].low", "model: sum_prod\nspace: [{kind: uniform, low: abc}, {kind: uniform}]\n"
     "subsets: [[1]]\n"),
    ("transform.scale", MINIMAL + "transform: {kind: homothety, scale: abc}\n"),
    # the field with its message, so its test id differs from the entry above
    ("transform.scale: homothety requires a nonzero scale",
     MINIMAL + "transform: {kind: homothety, scale: 0}\n"),
    ("transform.kind", MINIMAL + "transform: {kind: weird, scale: 1}\n"),
    ("seed", "sample: PAIRS\nseed: abc\n"),
    ("seed", "sample: PAIRS\nseed: -1\n"),
    ("seed", "model: identity_2\nsubsets: [[1]]\nseed: -1\n"),
    ("subsets[0]", "sample: PAIRS\nsubsets: [1]\n"),
    ("subsets[0]", "sample: PAIRS\nsubsets: [[]]\n"),
    ("matrix", "model: {name: linear, params: {matrix: [[1, 0], [1]]}}\nsubsets: [[1]]\n"),
    ("model.params", "model: {name: identity_2, params: [1]}\nsubsets: [[1]]\n"),
    ("model.params.coords[0]", "model: {name: u_only, params: {coords: [a]}}\nsubsets: [[1]]\n"),
    ("space[0].support", "model: sum_prod\nspace: [{kind: discrete, support: [1, 2]},"
     " {kind: uniform}]\nsubsets: [[1]]\n"),
    ("seeds", MINIMAL + "seeds: 5\n"),
    ("replication", MINIMAL + "replication: 300\n"),
    ("ci.reps", MINIMAL + "ci: {kind: bootstrap, reps: 250.7}\n"),
    ("sample", "sample: no-such-pairs.csv\n"),
    ("model.params", "model: {name: constant, params: {values: [a]}}\nsubsets: [[1]]\n"),
    # one spelling per field: a second spelling beside the first is an unknown key
    ("space[0].a", "model: sum_prod\nspace: [{kind: uniform, low: 0, high: 1, a: 5, b: 9},"
     " {kind: uniform}]\nsubsets: [[1]]\n"),
    ("space[0].support: not a key of a discrete marginal",
     "model: sum_prod\nspace: [{kind: discrete, points: [0, 1], probs: [0.5, 0.5], "
     "support: {3: 1.0}}, {kind: uniform}]\nsubsets: [[1]]\n"),
    # the full group's estimate is 1 in every replicate, so it has no spread to study
    ("replications: subset [1, 2]", "model: sum_prod\nsubsets: [[1], [1, 2]]\noracle: auto\n"
     "replications: 200\n"),
    # a marginal whose variance is not finite: the draw, or the closed-form
    # oracle's input variances, would overflow
    ("space[0]", "model: {name: linear, params: {matrix: [[1.0]]}}\n"
     "space: [{kind: uniform, low: -1e308, high: 1e308}]\nsubsets: [[1]]\nn: 100\noracle: auto\n"),
    ("space[0]", "model: {name: linear, params: {matrix: [[1.0e-200]]}}\n"
     "space: [{kind: normal, sd: 1.0e+160}]\nsubsets: [[1]]\noracle: auto\n"),
    ("space[0]", "model: {name: linear, params: {matrix: [[1.0e-200]]}}\n"
     "space: [{kind: uniform, low: -1.0e+160, high: 1.0e+160}]\nsubsets: [[1]]\noracle: auto\n"),
    ("space[0]", "model: {name: linear, params: {matrix: [[1.0e-200]]}}\n"
     "space: [{kind: discrete, points: [-1.0e+200, 1.0e+200], probs: [0.5, 0.5]}]\n"
     "subsets: [[1]]\noracle: auto\n"),
    # sample mode has no model, so the message names the outputs only
    ("matrix: is 3x3 but the outputs have 2 components",
     "sample: PAIRS\nmatrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"),
]

# (field, config; PAIRS stands for a valid sample file of 5 pairs): a sample
# mode run finds these faults only once it has read the file; in model mode
# the delta method's floor on n is checked with the config
TOO_SMALL = [
    ("matrix", "sample: PAIRS\nmatrix: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"),
    ("sample", "sample: PAIRS\nci: delta\n"),
    ("n", "model: sum_prod\nsubsets: [[1]]\nn: 5\nci: delta\n"),
    ("n", "model: sum_prod\nsubsets: [[1]]\nn: 5\noracle: auto\nreplications: 200\n"),
]

# (what the one-line error must say, config text; None is a --config path with
# no file, PAIRS a valid sample file, TABLE a valid external table)
CONFIG_FAULTS = [
    ("configuration is empty", ""),
    ("configuration must be a mapping", "- model: sum_prod\n"),
    ("config: cannot read", None),
    ("model.name", "model: {name: 3}\nsubsets: [[1]]\n"),
    ("model.external: cannot read file", "model: {external: no-such-table.csv}\nsubsets: [[1]]\n"),
    ("space: missing", "model: {external: TABLE}\nsubsets: [[1]]\n"),
    ("matrix entries must be finite", MINIMAL + "matrix: [[.inf, 0], [0, 1]]\n"),
    ("exactly one subset label", "sample: PAIRS\nsubsets: [[1], [2]]\n"),
]

# a valid tree per mode; the property below replaces one field of it
VALID_TREES = {
    "model": {
        "schema": 1,
        "model": "sum_prod",
        "space": [
            {"kind": "discrete", "points": [0, 1], "probs": [0.5, 0.5]},
            {"kind": "uniform", "low": -1, "high": 2},
        ],
        "subsets": [[1], [2]],
        "n": 100,
        "seed": 3,
        "ci": {"kind": "bootstrap", "level": 0.9, "reps": 300},
        "oracle": "auto",
        "matrix": [[1, 0], [0, 2]],
        "transform": {"kind": "homothety", "scale": 2.0},
        "replications": 200,
    },
    "sample": {
        "schema": 1,
        "sample": "pairs.csv",
        "subsets": [[1]],
        "seed": 3,
        "ci": {"kind": "delta", "level": 0.9},
        "oracle": "none",
        "matrix": [[1, 0], [0, 2]],
    },
}
FIELDS = [(mode, (key,)) for mode, tree in VALID_TREES.items() for key in tree]
FIELDS += [(mode, ("ci", key)) for mode, tree in VALID_TREES.items() for key in tree["ci"]]
FIELDS += [
    ("model", ("space", i, key))
    for i, marginal in enumerate(VALID_TREES["model"]["space"])
    for key in marginal
]
YAML_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)

# a valid u_only tree, the one model whose params hold config coordinates
U_ONLY_TREE = {"model": {"name": "u_only", "params": {"dims": 3, "coords": [1]}}, "subsets": [[1]]}
# (tree, path of a count field, its floor, its ceiling, the path that names a
# value above the ceiling, the int the config keeps): a field's value is read
# by spaces._count with its floor, and an int above the ceiling is refused by
# a check that only the config or the model knows
COUNT_FIELDS = [
    (VALID_TREES["model"], "n", 2, np.iinfo(np.intp).max // 16, "n", lambda c: c.n),
    (VALID_TREES["model"], "ci.reps", 200, np.inf, None, lambda c: c.ci.reps),
    (VALID_TREES["model"], "replications", 200, np.inf, None, lambda c: c.replications),
    (VALID_TREES["model"], "subsets[0][0]", 1, 2, "subsets[0]",
     lambda c: c.subsets[0].indices[0] + 1),
    (U_ONLY_TREE, "model.params.coords[0]", 1, 3, "model",
     lambda c: int(np.flatnonzero(c.model.evaluate(np.eye(3))[:, 0])[0]) + 1),
    (VALID_TREES["model"], "schema", 1, 1, "schema", lambda c: 1),
    # ci.reps has the bootstrap's floor whatever the interval kind
    ({**VALID_TREES["model"], "ci": {"kind": "delta"}}, "ci.reps", 200, np.inf, None,
     lambda c: c.ci.reps),
    ({**VALID_TREES["model"], "ci": {"kind": "none"}}, "ci.reps", 200, np.inf, None,
     lambda c: c.ci.reps),
]
COUNT_VALUES = st.one_of(
    st.integers(-3, 3000),
    st.integers(-3, 3000).map(float),
    st.integers(-3, 30).map(lambda m: f"{m}e2"),
    st.floats().map(repr),
    st.floats(),
    st.booleans(),
    st.text(max_size=5),
)


# a valid file per kind: its header, its data rows, the config that reads PATH
INPUT_FILES = {
    "sample": ("y_1,y_2,yu_1,yu_2\n", "1,2,3,4\n5,6,7,9\n", "sample: PATH\n"),
    "table": ("x1,x2,y1,y2\n", "0.5,0.5,1,0.25\n0.25,0.5,0.75,0.125\n",
              "model: {external: PATH}\nspace: [{kind: uniform}, {kind: uniform}]\n"
              "subsets: [[1]]\nn: 10\nseed: 1\n"),
}
# (case, what the error must say, the file's text: HEADER stands for its header)
FILE_FAULTS = [
    ("abc", "data row 2", "HEADER1,2,3,4\n5,abc,7,8\n"),
    ("nan", "data row 2", "HEADER1,2,3,4\n5,nan,7,8\n"),
    ("inf", "data row 2", "HEADER1,2,3,4\n5,inf,7,8\n"),
    ("1e400", "data row 1", "HEADER1,1e400,3,4\n5,6,7,8\n"),
    ("ragged", "data row 3", "HEADER1,2,3,4\n\n5,6,7,8\n5,6,7\n"),
    ("narrow", "data row 1 has 3 cells", "HEADER1,2,3\n5,6,7\n"),
    ("header only", "a header row and data rows", "HEADER\n"),
    ("empty", "a header row and data rows", ""),
]
TABLE_FAULTS = [("conflict", "data row 3", "HEADER1,2,3,4\n0,0,0,0\n1,2,3,5\n")]
FILE_CASES = [(kind, *case) for kind in INPUT_FILES for case in FILE_FAULTS]
FILE_CASES += [("table", *case) for case in TABLE_FAULTS]
NUMBERS = st.floats().map(repr) | st.integers(-3, 3).map(str)
CELLS = NUMBERS | st.sampled_from(["", " 1 ", '"2"', "1e400", "1_0", "0x1"]) | st.text(max_size=4)


def _main_on_file(directory, kind, text):
    header, _, config_text = INPUT_FILES[kind]
    path = directory / f"{kind}.csv"
    path.write_text(text.replace("HEADER", header), encoding="utf-8")
    config = directory / "run.yaml"
    config.write_text(config_text.replace("PATH", str(path)))
    return path, main(["--config", str(config), "--output", str(directory / "r.json")])


class TestParseConfig:
    def test_minimal_defaults(self):
        config = parse_config(MINIMAL)
        assert config.model.name == "identity_2"
        assert config.subsets == [SubsetIndex((0,), 2)]
        assert config.n == 1000 and config.seed == 1
        assert config.matrix is None  # identity weighting by default
        assert config.ci.kind == "none" and config.oracle == "none"

    def test_space_defaults_to_model_space(self):
        config = parse_config(MINIMAL)
        assert config.space == get_model("identity_2").default_space

    def test_subset_out_of_bounds_names_field(self):
        with pytest.raises(ConfigurationError, match=r"subsets\[0\]"):
            parse_config("model: identity_2\nsubsets: [[3]]\nn: 100\nseed: 1\n")

    def test_wrong_matrix_shape_names_field(self):
        text = MINIMAL + "matrix: [[1, 0, 0], [0, 1, 0]]\n"
        with pytest.raises(ConfigurationError, match="matrix"):
            parse_config(text)

    def test_non_orthogonal_isometry_names_field(self):
        text = MINIMAL + "transform: {kind: isometry, matrix: [[1, 0], [1, 1]]}\n"
        with pytest.raises(ConfigurationError, match="transform.matrix"):
            parse_config(text)

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError, match="model"):
            parse_config("model: banana\nsubsets: [[1]]\n")

    def test_space_dimension_mismatch(self):
        text = "model: identity_2\nspace: [{kind: uniform}]\nsubsets: [[1]]\n"
        with pytest.raises(ConfigurationError, match="space"):
            parse_config(text)

    def test_bad_schema(self):
        with pytest.raises(ConfigurationError, match="schema"):
            parse_config("schema: 2\nmodel: identity_2\nsubsets: [[1]]\n")

    def test_ci_forms(self):
        assert parse_config(MINIMAL + "ci: delta\n").ci.kind == "delta"
        config = parse_config(MINIMAL + "ci: {kind: bootstrap, reps: 400, level: 0.9}\n")
        assert config.ci.kind == "bootstrap" and config.ci.reps == 400 and config.ci.level == 0.9
        with pytest.raises(ConfigurationError, match="ci"):
            parse_config(MINIMAL + "ci: {kind: bootstrap, reps: 10}\n")

    def test_not_yaml(self):
        with pytest.raises(ConfigurationError):
            parse_config("model: [unclosed\n")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(FIELDS), YAML_VALUES)
    def test_any_field_value_parses_or_is_a_configuration_error(self, where, value):
        mode, path = where
        tree = json.loads(json.dumps(VALID_TREES[mode]))
        node = tree
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            assert isinstance(config_from_tree(tree), RunConfig)
        except (ConfigurationError, ContractError):
            pass

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.sampled_from(COUNT_FIELDS), COUNT_VALUES)
    @example(COUNT_FIELDS[0], 2000.0)
    @example(COUNT_FIELDS[0], "1e4")
    @example(COUNT_FIELDS[3], 1.0)
    @example(COUNT_FIELDS[6], -7)
    @example(COUNT_FIELDS[7], 0)
    def test_a_count_field_is_read_by_the_count_rule(self, field, value):
        """The config keeps the int spaces._count reads from the value (numeric
        text read as an int, else a float), or names the field refusing it."""
        tree, path, least, most, above, kept = field
        parsed = value
        for number in (int, float) if isinstance(value, str) else ():
            try:
                parsed = number(value)
                break
            except ValueError:
                pass
        try:
            count = spaces._count(parsed, "count")
        except ContractError:
            count = None
        tree = json.loads(json.dumps(tree))
        node, keys = tree, re.findall(r"\w+", path)
        for key in keys[:-1]:
            node = node[int(key) if key.isdigit() else key]
        node[int(keys[-1]) if keys[-1].isdigit() else keys[-1]] = value
        if count is not None and least <= count <= most:
            kept_count = kept(config_from_tree(tree))
            assert kept_count == count and type(kept_count) is int
            return
        with pytest.raises(ConfigurationError) as refused:
            config_from_tree(tree)
        named = path if count is None or count < least else above
        assert str(refused.value).startswith(f"{named}: ")

    def test_json_is_accepted(self):
        config = parse_config(json.dumps({"model": "sum_prod", "subsets": [[1], [2]], "n": 50}))
        assert len(config.subsets) == 2


class TestRun:
    def test_estimate_against_oracle(self):
        config = parse_config(
            "model: identity_2\nsubsets: [[1]]\nn: 100000\nseed: 5\noracle: auto\n"
        )
        report = run(config)
        rec = report.subsets[0]
        assert rec.oracle_subset == 0.5
        assert abs(rec.estimate - rec.oracle_subset) < 0.01
        assert rec.oracle_method == "closed_form"
        assert rec.oracle_sum_residual <= 1e-10

    def test_weighted_counterexample_end_to_end(self):
        base = (
            "model: identity_2\nsubsets: [[1]]\nn: 200000\nseed: 6\noracle: auto\n"
            "matrix: [[1, 0], [0, 2]]\n"
        )
        plain = run(parse_config(base)).subsets[0]
        swapped = run(
            parse_config(base + "transform: {kind: isometry, matrix: [[0, 1], [1, 0]]}\n")
        ).subsets[0]
        assert plain.oracle_weighted == pytest.approx(1 / 3, abs=1e-12)
        assert swapped.oracle_weighted == pytest.approx(2 / 3, abs=1e-12)
        assert plain.estimate_weighted == pytest.approx(1 / 3, abs=0.01)
        assert swapped.estimate_weighted == pytest.approx(2 / 3, abs=0.01)
        # the identity-weighted index is isometry invariant, as it must be
        assert swapped.oracle_subset == pytest.approx(plain.oracle_subset, abs=1e-12)

    def test_replications_embed_a_study(self):
        config = parse_config(
            "model: identity_2\nsubsets: [[1]]\nn: 400\nseed: 7\noracle: auto\n"
            "replications: 200\n"
        )
        rep = run(config).subsets[0].replication
        assert rep is not None
        assert rep["reps"] == 200 and rep["n_per_rep"] == 400
        assert 0.0 <= rep["coverage"] <= 1.0
        assert rep["normality_stat"] < 0.2

    def test_replications_require_oracle(self):
        with pytest.raises(ConfigurationError, match="replications"):
            parse_config(
                "model: identity_2\nsubsets: [[1]]\nn: 400\nseed: 7\nreplications: 200\n"
            )

    def test_quadrature_oracle_for_builtin(self):
        config = parse_config("model: sum_prod\nsubsets: [[1], [2]]\nn: 5000\nseed: 2\noracle: auto\n")
        report = run(config)
        for rec in report.subsets:
            assert rec.oracle_method == "quadrature"
            assert rec.oracle_subset == pytest.approx(15 / 31, abs=1e-9)

    def test_quadrature_nodes_fit_the_grid_cap(self, monkeypatch):
        # 4 smooth inputs: 64^4 nodes exceed the cap, so fewer nodes per input are used
        monkeypatch.setattr(oracle, "MAX_GRID_NODES", 10**4)
        model = VectorModel(in_dims=4, out_dims=2, kind="builtin",
                            eval_fn=lambda x: np.stack([x.sum(axis=1), x[:, 0] * x[:, 1]], axis=1))
        config = RunConfig(model, InputSpace.uniform(4), [SubsetIndex((0,), 4)], 100, 2, oracle="auto")
        rec = run(config).subsets[0]
        assert rec.oracle_method == "quadrature"
        assert rec.oracle_subset == pytest.approx(3 / 11, abs=1e-12)

    def test_quadrature_nodes_per_input(self):
        # the most nodes, up to 64, whose product grid stays within MAX_GRID_NODES
        nodes = [oracle.grid_nodes(InputSpace.uniform(d)) for d in (1, 2, 3, 4)]
        assert nodes == [64, 64, 64, 56]
        assert oracle.grid_nodes(InputSpace.uniform(5)) is None

    def test_quadrature_nodes_share_the_cap_with_discrete_supports(self, monkeypatch):
        # discrete supports multiply the grid; a grid over the cap gets 1 node and fails there
        def uniform_points(count):
            return spaces.Discrete(tuple(range(count)), (1 / count,) * count)

        hundred = uniform_points(100)
        beside = InputSpace(InputSpace.uniform(2).marginals + (hundred, hundred))
        assert oracle.grid_nodes(beside) == 31
        assert oracle.grid_nodes(InputSpace((uniform_points(2), uniform_points(3)))) == 64
        monkeypatch.setattr(oracle, "MAX_GRID_NODES", 8)
        three = uniform_points(3)
        assert oracle.grid_nodes(InputSpace((spaces.Uniform(0, 1), three, three))) == 1

    def test_linear_kind_gets_the_closed_form(self):
        # the route follows the model's kind: a hand-built linear model and a
        # transformed corpus one both get the closed form
        a = np.array([[1.0, 2.0], [0.5, -1.0]])
        model = VectorModel(in_dims=2, out_dims=2, kind="linear", eval_fn=lambda x: x @ a.T,
                            matrix=a)
        space = InputSpace.uniform(2)
        triple = oracle.exact_route(model, space)(SubsetIndex((0,), 2))
        expected = oracle.covariances_linear(a, space.variances(), SubsetIndex((0,), 2))
        assert triple.method == "closed_form"
        assert np.array_equal(triple.subset, expected.subset)
        config = parse_config(MINIMAL + "oracle: auto\ntransform: {kind: homothety, scale: 3}\n")
        assert run(config).subsets[0].oracle_method == "closed_form"

    def test_non_finite_model_outputs_are_named(self):
        # NaN wherever x1 > 0.9: the oracle and the estimator each say what is wrong
        def _eval(x):
            y = np.stack([x[:, 0] + x[:, 1], x[:, 0] * x[:, 1]], axis=1)
            y[x[:, 0] > 0.9] = np.nan
            return y

        model = VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=_eval)
        space, subset = InputSpace.uniform(2), SubsetIndex((0,), 2)
        with pytest.raises(DegenerateModelError, match="total output covariance is not finite"):
            oracle.exact_route(model, space)(subset)
        with pytest.raises(DegenerateSampleError, match=r"output row \d+ is not finite"):
            run(RunConfig(model, space, [subset], 200, 2, oracle="auto"))

    def test_a_constant_input_gets_the_closed_form(self):
        config = parse_config("model: {name: linear, params: {matrix: [[1, 1]]}}\n"
                              "space: [{kind: discrete, points: [2.0], probs: [1.0]}, {kind: normal}]\n"
                              "subsets: [[1]]\nn: 200\nseed: 2\noracle: auto\n")
        rec = run(config).subsets[0]
        assert rec.oracle_method == "closed_form"
        assert (rec.oracle_subset, rec.oracle_complement, rec.oracle_sum_residual) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("law", [
        "{kind: discrete, points: [1e200, 0, 1], probs: [0, 0.5, 0.5]}",
        "{kind: discrete, points: [0, -1e200, 1], probs: [0.5, 0, 0.5]}",
        "{kind: discrete, points: [0, 1, 3], probs: [0.5, 0.5, 0]}",
    ], ids=["front", "middle", "end"])
    def test_a_zero_probability_point_leaves_the_report(self, tmp_path, law):
        # it enters no moment, no grid and no draw, however far out it lies
        config, outs = tmp_path / "run.yaml", [tmp_path / "coin.json", tmp_path / "law.json"]
        for space, out in zip((COIN, law), outs):
            config.write_text(f"model: sum_prod\nspace: [{space}, {{kind: uniform}}]\n"
                              "subsets: [[1], [2]]\nn: 1000\nseed: 3\noracle: auto\nci: delta\n")
            assert main(["--config", str(config), "--output", str(out), "--reproducible"]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_mixed_space_gets_a_grid_oracle(self):
        config = parse_config(MIXED_SUM_PROD)
        rec = run(config).subsets[0]
        assert rec.oracle_method == "quadrature"
        # uniform x1, fair-coin x2: Tr C_1 = 5/48 and Tr Sigma = 21/48
        assert rec.oracle_subset == pytest.approx(5 / 21, abs=1e-12)

    def test_the_grid_is_sized_once_per_run(self, monkeypatch):
        calls = []
        sizing = oracle.grid_nodes
        monkeypatch.setattr(oracle, "grid_nodes", lambda space: calls.append(space) or sizing(space))
        config = parse_config("model: sum_prod\nsubsets: [[1], [2], [1, 2]]\nn: 200\nseed: 2\n"
                              "oracle: auto\n")
        assert [rec.oracle_method for rec in run(config).subsets] == ["quadrature"] * 3
        assert len(calls) == 1

    @pytest.mark.parametrize("model", [
        "{external: TABLE}\nspace: [{kind: uniform}, {kind: uniform}]",
        "{name: u_only, params: {dims: 5}}",
    ], ids=["external", "u_only-5"])
    def test_a_study_with_no_oracle_target_is_refused_before_any_draw(self, tmp_path, capsys,
                                                                       monkeypatch, model):
        # an external table answers only its own rows, and 5 continuous
        # inputs admit no grid: either is known before the design is drawn
        rows, draws = [], []
        evaluate, sample = VectorModel.evaluate, pickfreeze.sample_marginals
        monkeypatch.setattr(VectorModel, "evaluate",
                            lambda self, x: rows.append(len(x)) or evaluate(self, x))
        monkeypatch.setattr(pickfreeze, "sample_marginals",
                            lambda *args: draws.append(args) or sample(*args))
        table = tmp_path / "table.csv"
        table.write_text("".join(INPUT_FILES["table"][:2]))
        config = tmp_path / "run.yaml"
        config.write_text(f"model: {model.replace('TABLE', str(table))}\nsubsets: [[1]]\n"
                          "n: 100\nseed: 1\noracle: auto\nreplications: 200\n")
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: replications: no oracle target")
        assert rows == [] and draws == []

    def test_sample_only_mode(self, tmp_path):
        model = get_model("sum_prod")
        sample = evaluate_pairs(
            model, generate_design(model.space(), SubsetIndex((0,), 2), 5000, 3)
        )
        path = tmp_path / "pairs.csv"
        write_sample_csv(sample, str(path))
        config = parse_config(f"sample: {path}\nci: delta\nseed: 0\n")
        report = run(config)
        assert report.subsets[0].n == 5000
        assert report.subsets[0].estimate == pytest.approx(15 / 31, abs=0.05)
        assert report.subsets[0].ci_low <= report.subsets[0].estimate


def _recording_model(in_dims):
    """A two-output model that keeps a copy of every input block it evaluates."""
    blocks = []

    def record(x):
        blocks.append(x.copy())
        return np.stack([x.sum(axis=1), np.prod(x, axis=1)], axis=1)

    return VectorModel(in_dims=in_dims, out_dims=2, kind="builtin", eval_fn=record), blocks


MARGINALS = [spaces.Uniform(-1, 2), spaces.Normal(3, 0.5), spaces.Discrete((0.0, 1.0, 4.0), (0.2, 0.3, 0.5))]


@st.composite
def _runs(draw):
    """A mixed space of 1-4 inputs and 1-4 subsets of it."""
    marginals = draw(st.lists(st.sampled_from(MARGINALS), min_size=1, max_size=4))
    p = len(marginals)
    groups = st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True)
    subsets = [SubsetIndex(tuple(g), p) for g in draw(st.lists(groups, min_size=1, max_size=4))]
    return InputSpace(tuple(marginals)), subsets, draw(st.integers(0, 2**32 - 1))


class TestSharedDesign:
    """run() draws one design for all its subsets and evaluates f(x) once."""

    @pytest.mark.parametrize("subsets", [[[1]], [[1], [2]], [[1], [2], [3], [4], [5], [6], [1, 2]]],
                             ids=["s1", "s2", "s7"])
    def test_a_run_evaluates_one_plus_s_times_n_rows(self, subsets):
        n = 300
        model, blocks = _recording_model(6)
        subsets = [SubsetIndex.from_one_based(u, 6) for u in subsets]
        run(RunConfig(model, InputSpace.uniform(6), subsets, n, 4))
        assert [len(b) for b in blocks] == [n] * (1 + len(subsets))

    def test_a_bootstrap_interval_reads_its_sample_once(self, monkeypatch):
        # the table pass also reduces the moments that the estimate reads
        passes = []
        kernel = pickfreeze._pair_moments
        monkeypatch.setattr(pickfreeze, "_pair_moments", lambda *a: passes.append(1) or kernel(*a))
        run(parse_config("model: sum_prod\nsubsets: [[1], [2]]\nn: 300\nseed: 4\n"
                         "ci: {kind: bootstrap, reps: 200}\n"))
        assert len(passes) == 2
        model = get_model("sum_prod")
        sample = evaluate_pairs(model, generate_design(model.space(), SubsetIndex((0,), 2), 300, 4))
        passes.clear()
        bootstrap_ci(sample, 200, 0.95, 5)
        assert len(passes) == 1

    def test_every_subset_is_resampled_with_the_runs_one_pattern(self):
        # the subsets share the rows of A, so one pattern from the (0, 1)
        # stream resamples them all, and a repeated subset reports one interval
        config = parse_config(
            "model: {name: linear, params: {matrix: [[1, 2, 0.5], [0, -1, 3]]}}\n"
            "subsets: [[1], [2, 3], [3], [1]]\nn: 500\nseed: 8\nci: {kind: bootstrap, reps: 200}\n"
        )
        report = run(config)
        for i, rec in enumerate(report.subsets):
            sample = evaluate_pairs(config.model, cli.subset_design(config, i))
            est = bootstrap_ci(sample, 200, 0.95, spaces.stream(8, 0, 1))
            assert (rec.sigma2_hat, rec.ci_low, rec.ci_high) == (est.sigma2_hat, est.ci_low, est.ci_high)
        first, repeated = ((r.sigma2_hat, r.ci_low, r.ci_high) for r in report.subsets[::3])
        assert first == repeated

    def test_one_subset_and_sample_mode_intervals_keep_their_patterns(self, tmp_path):
        # a one-subset run draws its pattern from the (0, 1) stream, and a
        # sample-mode run from the config seed
        config = parse_config("model: sum_prod\nsubsets: [[2]]\nn: 400\nseed: 6\n"
                              "ci: {kind: bootstrap, reps: 200, level: 0.9}\n")
        sample = evaluate_pairs(config.model, cli.subset_design(config, 0))
        path = tmp_path / "pairs.csv"
        write_sample_csv(sample, str(path))
        sample_config = parse_config(f"sample: {path}\nseed: 6\nci: {{kind: bootstrap, reps: 200}}\n")
        cases = [(config, bootstrap_ci(sample, 200, 0.9, spaces.stream(6, 0, 1))),
                 (sample_config, bootstrap_ci(read_sample_csv(str(path)), 200, 0.95, 6))]
        for config, est in cases:
            rec = run(config).subsets[0]
            assert (rec.sigma2_hat, rec.ci_low, rec.ci_high) == (est.sigma2_hat, est.ci_low, est.ci_high)

    def test_one_subset_run_is_its_generate_design_sample(self):
        model = get_model("sum_prod")
        config = parse_config("model: sum_prod\nsubsets: [[2]]\nn: 3000\nseed: 21\n")
        design_ss = np.random.SeedSequence(21).spawn(1)[0].spawn(1)[0]
        design = generate_design(config.space, config.subsets[0], config.n, design_ss)
        expected = estimate_index(evaluate_pairs(model, design))
        assert run(config).subsets[0].estimate == expected

    def test_each_estimate_is_its_subset_design_sample(self):
        config = parse_config(
            "model: {name: linear, params: {matrix: [[1, 2, 0.5], [0, -1, 3]]}}\n"
            "subsets: [[1], [2, 3], [1, 2, 3], [3]]\nn: 2000\nseed: 8\n"
        )
        report = run(config)
        for i, rec in enumerate(report.subsets):
            sample = evaluate_pairs(config.model, cli.subset_design(config, i))
            assert rec.estimate == estimate_index(sample)
        assert report.subsets[2].estimate == 1.0  # the full group

    def test_each_estimate_is_its_row_major_subset_design_sample(self):
        # run() holds its design column-major; on C-ordered copies of each
        # subset's design the estimate is the same, bit for bit
        config = parse_config(
            "model: {name: linear, params: {matrix: [[1, -2, 0.5, 3], [0.25, 1, -1.5, 2], "
            "[2, 0, 1, -1]]}}\n"
            f"space: [{{kind: uniform, low: -1, high: 2}}, {{kind: normal, mean: 3, sd: 0.5}}, "
            f"{COIN}, {{kind: uniform}}]\n"
            "subsets: [[1], [2, 3], [4]]\nn: 3000\nseed: 12\n"
        )
        report = run(config)
        for i, rec in enumerate(report.subsets):
            design = cli.subset_design(config, i)
            y = config.model.evaluate(np.ascontiguousarray(design.x))
            y_u = config.model.evaluate(np.ascontiguousarray(design.x_u(config.subsets[i])))
            assert rec.estimate == estimate_index(PickFreezeSample(y, y_u))

    def test_a_run_holds_one_second_block_at_a_time(self):
        # while a subset is evaluated, memory holds at most the design (x and
        # the redrawn columns), the shared output, and this subset's second
        # block and output; the previous subset's sample is gone
        n, k, p = 200_000, 4, 6
        matrix = np.random.default_rng(5).standard_normal((k, p)).round(3).tolist()
        config = config_from_tree({
            "model": {"name": "linear", "params": {"matrix": matrix}},
            "subsets": [[j] for j in range(1, p + 1)] + [[1, 2]],
            "n": n, "seed": 7, "ci": "delta", "oracle": "auto",
            "matrix": np.diag([1.0, 2.0, 3.0, 4.0]).tolist(),
        })
        config.reproducible = True
        tracemalloc.start()
        try:
            run(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        redrawn = p  # the first-order subsets free every input
        assert peak < 8 * n * (2 * p + redrawn + 2 * k) + 2**20

    def test_a_study_evaluates_one_shared_design_per_replicate(self, monkeypatch):
        # the run's design and each replicate's are (1 + s) n rows apiece;
        # a linear model's closed-form oracle evaluates no rows
        rows = []
        evaluate = VectorModel.evaluate

        def counting(model, x):
            rows.append(len(x))
            return evaluate(model, x)

        monkeypatch.setattr(VectorModel, "evaluate", counting)
        n, reps, s = 50, 200, 3
        config = parse_config(
            "model: {name: linear, params: {matrix: [[1, 2, 0.5], [0, -1, 3]]}}\n"
            f"subsets: [[1], [2], [1, 3]]\nn: {n}\nseed: 8\noracle: auto\nreplications: {reps}\n"
        )
        report = run(config)
        assert sum(rows) == (1 + s) * n * (1 + reps)
        assert [sub.replication["reps"] for sub in report.subsets] == [reps] * s

    def test_subset_designs_share_the_base_rows(self):
        config = parse_config("model: sum_prod\nsubsets: [[1], [2]]\nn: 50\nseed: 3\n")
        u, v = config.subsets
        first, second = (cli.subset_design(config, i) for i in range(2))
        assert np.array_equal(first.x, second.x)
        assert np.array_equal(first.x_u(u)[:, 0], first.x[:, 0])
        assert np.array_equal(second.x_u(v)[:, 1], second.x[:, 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_runs())
    def test_run_evaluates_exactly_the_subset_design_rows(self, case):
        space, subsets, seed = case
        n = 40
        model, blocks = _recording_model(space.dims)
        config = RunConfig(model, space, subsets, n, seed)
        run(config)
        views = [cli.subset_design(config, i) for i in range(len(subsets))]
        requested = {tuple(row) for v, u in zip(views, subsets) for block in (v.x, v.x_u(u))
                     for row in block}
        assert sum(len(b) for b in blocks) == (1 + len(subsets)) * n
        assert {tuple(row) for b in blocks for row in b} == requested


class TestReports:
    def _report(self):
        config = parse_config(MINIMAL + "oracle: auto\nci: delta\n")
        config.reproducible = True
        return run(config)

    def test_json_roundtrip_is_lossless(self):
        report = self._report()
        assert json.loads(report_to_json(report)) == asdict(report)

    def test_csv_rows(self, tmp_path):
        config = parse_config("model: sum_prod\nsubsets: [[1], [2], [1, 2]]\nn: 500\nseed: 3\n")
        path = tmp_path / "out.csv"
        write_report(run(config), str(path), "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "subset,estimate,oracle,sigma2_hat,ci_low,ci_high,n,seed"
        assert len(lines) == 4
        assert lines[3].startswith("1+2,")

    def test_non_finite_values_are_rejected(self):
        report = RunReport(
            schema=1,
            tool="vecsobol",
            version="0.0",
            seed=0,
            n=10,
            subsets=[SubsetResult(subset=[1], n=10, seed=0, estimate=float("nan"))],
        )
        with pytest.raises(Exception, match="non-finite"):
            report_to_json(report)


class TestMain:
    def test_reproducible_runs_are_byte_identical(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            "model: sum_prod\nsubsets: [[1], [2]]\nn: 2000\nseed: 11\n"
            "oracle: auto\nci: delta\n"
        )
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            rc = main(["--config", str(config), "--output", str(out), "--reproducible"])
            assert rc == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs CPU affinity and at least two CPUs",
    )
    def test_report_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        # The first two runs draw large designs; in the second run the shared
        # x' redraws the union of the subsets' complements, inputs 1-4 of 5.
        # The third is a replication study with bootstrap intervals. None
        # opens a thread pool.
        n = 2**17 + 1
        runs = [f"model: sum_prod\nsubsets: [[1], [2]]\nn: {n}\nci: delta\n",
                "model: {name: linear, params: {matrix: [[1, 2, 0, -1, 0.5], [0, 1, 3, 1, -2]]}}\n"
                f"subsets: [[5], [2, 5], [1, 3, 5]]\nn: {n}\nci: delta\n",
                "model: sum_prod\nsubsets: [[1]]\nn: 100\nci: {kind: bootstrap, reps: 200}\n"
                "replications: 200\n"]
        # buffered stdout, the interpreter's default: its exit flushes what is left
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        # BLAS sizes its own thread count from the CPUs and may reorder its
        # sums with it; hold it fixed so only the package's threads see the pin
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        for i, run in enumerate(runs):
            config = tmp_path / f"run-{i}.yaml"
            config.write_text(run + "seed: 13\noracle: auto\n")
            outs = []
            for pin in (True, False):
                out = tmp_path / f"pinned-{pin}-{i}.json"
                code = (
                    "import concurrent.futures, os, sys\n"
                    f"if {pin}: os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})\n"
                    "opened = []\n"
                    "class Recording(concurrent.futures.ThreadPoolExecutor):\n"
                    "    def __init__(self, *args, **kwargs):\n"
                    "        opened.append(args)\n"
                    "        super().__init__(*args, **kwargs)\n"
                    "concurrent.futures.ThreadPoolExecutor = Recording\n"
                    "from vecsobol.cli import main\n"
                    f"rc = main(['--config', {str(config)!r}, '--output', {str(out)!r}, "
                    "'--reproducible'])\n"
                    "print(max((args[0] for args in opened), default=0))\n"
                    "sys.exit(rc)\n"
                )
                proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, check=True)
                workers = int(proc.stdout.split()[-1])  # the largest pool opened
                assert workers == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    @pytest.mark.skipif(_cpu_count() < 2, reason="needs at least two CPUs")
    @pytest.mark.parametrize("config", [BLAS_DELTA_WEIGHTED, BLAS_BOOTSTRAP, BLAS_BOOTSTRAP_STUDY],
                             ids=["delta-weighted", "bootstrap", "bootstrap-study"])
    def test_report_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path, config):
        path = tmp_path / "run.yaml"
        path.write_text(config)
        # buffered stdout, the interpreter's default: its exit flushes what is left
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        outs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            out = tmp_path / f"threads-{threads}.json"
            code = (
                "import sys\n"
                "from vecsobol.cli import main\n"
                f"sys.exit(main(['--config', {str(path)!r}, '--output', {str(out)!r}, '--reproducible']))\n"
            )
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(
            ["--model", "identity_2", "--subset", "1", "--subset", "1,2",
             "--n", "500", "--seed", "9", "--output", str(out), "--reproducible"]
        )
        assert rc == EXIT_OK
        tree = json.loads(out.read_text())
        assert [s["subset"] for s in tree["subsets"]] == [[1], [1, 2]]
        assert tree["subsets"][1]["estimate"] == 1.0  # full group

    def test_matrix_file_flag(self, tmp_path):
        mfile = tmp_path / "m.txt"
        mfile.write_text("1 0\n0 2\n")
        out = tmp_path / "r.json"
        rc = main(
            ["--model", "identity_2", "--subset", "1", "--n", "100000", "--seed", "4",
             "--matrix", str(mfile), "--output", str(out), "--reproducible"]
        )
        assert rc == EXIT_OK
        tree = json.loads(out.read_text())
        assert abs(tree["subsets"][0]["estimate_weighted"] - 1 / 3) < 0.01
        # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, is skipped
        mfile.write_bytes(b"\xef\xbb\xbf" + mfile.read_bytes())
        marked = tmp_path / "marked.json"
        rc = main(["--model", "identity_2", "--subset", "1", "--n", "100000", "--seed", "4",
                   "--matrix", str(mfile), "--output", str(marked), "--reproducible"])
        assert rc == EXIT_OK and marked.read_bytes() == out.read_bytes()

    def test_counts_given_as_any_integral_number_give_the_bytes_of_ints(self, tmp_path):
        outs = []
        for n, reps in (("1e3", "2e2"), ("1000", "200")):
            out = tmp_path / f"{n}.json"
            rc = main(["--model", "sum_prod", "--subset", "1", "--n", n, "--seed", "3",
                       "--oracle", "auto", "--ci", "bootstrap", "--ci-reps", reps,
                       "--replications", reps, "--output", str(out), "--reproducible"])
            assert rc == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag, value, path", [
        ("--n", "abc", "n"), ("--seed", "1.5", "seed"), ("--ci-level", "x", "ci.level"),
        ("--ci-reps", "1.5", "ci.reps"), ("--replications", "2.5", "replications"),
        ("--subset", "x", "subsets[1][0]"),
    ])
    def test_a_malformed_flag_exits_2_naming_its_field(self, tmp_path, capsys, flag, value, path):
        rc = main(["--model", "sum_prod", "--subset", "1", flag, value,
                   "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["", "# weights\n\n"], ids=["empty", "comments only"])
    def test_matrix_file_without_numbers_exits_2_naming_the_file(self, tmp_path, capsys, text):
        mfile = tmp_path / "m.txt"
        mfile.write_text(text)
        rc = main(["--model", "identity_2", "--subset", "1", "--n", "100", "--seed", "4",
                   "--matrix", str(mfile), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith(f"configuration error: matrix: cannot read {mfile}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field, text", MALFORMED, ids=[f for f, _ in MALFORMED])
    def test_malformed_config_exits_2_naming_its_field(self, tmp_path, capsys, field, text):
        config = tmp_path / "run.yaml"
        config.write_text(text.replace("PAIRS", str(_pairs_csv(tmp_path))))
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("configuration error: ") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, text", TOO_SMALL,
                             ids=[f"{f}-{i}" for i, (f, _) in enumerate(TOO_SMALL)])
    def test_error_found_at_run_time_starts_with_its_field(self, tmp_path, capsys, field, text):
        config = tmp_path / "run.yaml"
        config.write_text(text.replace("PAIRS", str(_pairs_csv(tmp_path, n=5))))
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    @pytest.mark.parametrize("message, text", CONFIG_FAULTS, ids=[m for m, _ in CONFIG_FAULTS])
    def test_config_fault_exits_2_with_one_line(self, tmp_path, capsys, message, text):
        config = tmp_path / "run.yaml"
        if text is not None:
            table = tmp_path / "table.csv"
            table.write_text("".join(INPUT_FILES["table"][:2]))
            text = text.replace("TABLE", str(table))
            config.write_text(text.replace("PAIRS", str(_pairs_csv(tmp_path))))
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("configuration error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("scale", ["1e308", "1e-320"])
    def test_extreme_finite_weights_are_estimated(self, tmp_path, capsys, scale):
        # the ratio does not depend on M's scale, so neither may the run
        config = tmp_path / "run.yaml"
        config.write_text(f"model: sum_prod\nsubsets: [[1]]\nn: 1000\nseed: 1\n"
                          f"matrix: [[{scale}, 0], [0, {scale}]]\n")
        out = tmp_path / "r.json"
        assert main(["--config", str(config), "--output", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        sub = json.loads(out.read_text())["subsets"][0]
        assert abs(sub["estimate_weighted"] - sub["estimate"]) <= np.spacing(sub["estimate"])

    def test_ci_flags_update_the_configured_interval(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(MINIMAL + "ci: {kind: bootstrap, reps: 300}\n")
        out = tmp_path / "r.json"
        rc = main(["--config", str(config), "--ci-level", "0.9", "--output", str(out), "--reproducible"])
        assert rc == EXIT_OK
        sub = json.loads(out.read_text())["subsets"][0]
        assert sub["ci_method"] == "bootstrap" and sub["ci_level"] == 0.9

    @pytest.mark.parametrize("text", [
        BLAS_DELTA_WEIGHTED,
        f"model: sum_prod\nspace: [{{kind: uniform}}, {COIN}]\nsubsets: [[1], [2]]\nn: 200000\nseed: 5\n"
        "ci: {kind: bootstrap, reps: 200}\noracle: auto\ntransform: {kind: general_linear, "
        "matrix: [[1, 2], [-0.5, 3]]}\nmatrix: [[2, 0], [0, 1]]\n",
    ], ids=["linear_delta_weighted", "transformed_bootstrap"])
    def test_chunked_report_equals_the_whole_block_report(self, tmp_path, monkeypatch, text):
        # two full chunks and a one-row tail; the reference evaluates every
        # block in one model call
        n = 2 * pickfreeze._BLOCK_ROWS + 1
        config = tmp_path / "run.yaml"
        config.write_text(text.replace("n: 200000", f"n: {n}"))
        chunked, whole = tmp_path / "chunked.json", tmp_path / "whole.json"
        assert main(["--config", str(config), "--output", str(chunked), "--reproducible"]) == EXIT_OK
        # _BLOCK_ROWS also blocks the kernel, so the reference replaces the evaluator
        monkeypatch.setattr(pickfreeze, "_evaluate_chunks",
                            lambda model, n, block: model.evaluate(block(slice(0, n))))
        assert main(["--config", str(config), "--output", str(whole), "--reproducible"]) == EXIT_OK
        assert chunked.read_bytes() == whole.read_bytes()

    def test_sample_mode_reproducible_reports_are_byte_identical(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            f"sample: {_pairs_csv(tmp_path)}\nsubsets: [[1]]\nseed: 4\n"
            "ci: {kind: bootstrap, reps: 200}\nmatrix: [[1, 0], [0, 2]]\n"
        )
        outs = [tmp_path / name for name in ("a.json", "b.json", "timed.json")]
        for out in outs:
            flags = ["--reproducible"] if out.name != "timed.json" else []
            assert main(["--config", str(config), "--output", str(out), *flags]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["subsets"][0]["elapsed_s"] is None
        # a UTF-8 byte-order mark before the header is skipped
        pairs = tmp_path / "pairs.csv"
        pairs.write_bytes(b"\xef\xbb\xbf" + pairs.read_bytes())
        marked = tmp_path / "marked.json"
        assert main(["--config", str(config), "--output", str(marked), "--reproducible"]) == EXIT_OK
        assert marked.read_bytes() == outs[0].read_bytes()
        timed = json.loads(outs[2].read_text())
        assert timed["elapsed_s"] >= timed["subsets"][0]["elapsed_s"] >= 0.0
        assert timed["subsets"][0]["subset"] == [1]

    @pytest.mark.parametrize("params", ["{matrix: [[1, .inf], [0, 1]]}", "{values: [.nan, 1]}"],
                             ids=["linear", "constant"])
    def test_non_finite_corpus_parameter_exits_2(self, tmp_path, capsys, params):
        name = "linear" if "matrix" in params else "constant"
        config = tmp_path / "run.yaml"
        config.write_text(f"model: {{name: {name}, params: {params}}}\nsubsets: [[1]]\nn: 100\n")
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("configuration error: model: ") and "must be finite" in err

    @pytest.mark.parametrize("model, code, message", [
        ("{name: linear, params: {matrix: [[10, 1], [0, 1]]}}", EXIT_CONFIG,
         "configuration error: transform: overflows when folded into the linear model's matrix"),
        ("sum_prod", EXIT_DEGENERATE, "error: sample output row "),
        ("identity_2", EXIT_DEGENERATE, "error: sample output row "),
    ], ids=["linear", "sum_prod", "identity_2"])
    def test_overflowing_transform_is_named_without_a_warning(self, tmp_path, capsys, model,
                                                               code, message):
        # warnings are errors under this suite, so numpy's overflow warning fails the test
        config = tmp_path / "run.yaml"
        config.write_text(f"model: {model}\nsubsets: [[1]]\nn: 100\nseed: 1\n"
                          "transform: {kind: homothety, scale: 1e308}\n")
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == code
        assert err.startswith(message) and err.count("\n") == 1

    def test_overflowing_isometry_check_is_named_without_a_warning(self, tmp_path, capsys):
        # O^t O overflows here, and a NaN defect is refused like a large one
        config = tmp_path / "run.yaml"
        config.write_text(MINIMAL + "transform: {kind: isometry, "
                          "matrix: [[1e200, 1e200], [1e200, -1e200]]}\n")
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("configuration error: transform.matrix: ") and err.count("\n") == 1

    def test_transform_is_folded_into_the_model_when_read(self):
        config = parse_config(MINIMAL + "transform: {kind: homothety, scale: 3}\n")
        assert np.array_equal(config.model.matrix, 3 * np.eye(2))
        assert not hasattr(config, "transform")

    @pytest.mark.parametrize("model", ["identity_2", "sum_prod"])
    def test_small_homothety_keeps_the_oracle(self, tmp_path, model):
        # Tr(total) is about 1e-14 here; the index does not change under a homothety
        config = tmp_path / "run.yaml"
        config.write_text(f"model: {model}\nsubsets: [[1]]\nn: 200\nseed: 1\noracle: auto\n"
                          "transform: {kind: homothety, scale: 1e-7}\n")
        out = tmp_path / "r.json"
        assert main(["--config", str(config), "--output", str(out), "--reproducible"]) == EXIT_OK
        expected = 0.5 if model == "identity_2" else 15 / 31
        assert json.loads(out.read_text())["subsets"][0]["oracle_subset"] == pytest.approx(
            expected, abs=1e-9)

    @pytest.mark.parametrize("n", [10**18, 10**20])
    def test_unaddressable_n_exits_2(self, tmp_path, capsys, n):
        config = tmp_path / "run.yaml"
        config.write_text(f"model: sum_prod\nsubsets: [[1]]\nn: {n}\n")
        assert main(["--config", str(config), "--output", str(tmp_path / "r.json")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: n: must be in [2, ")

    def test_design_too_large_for_memory_exits_3(self, tmp_path, capsys):
        # 1e17 rows of two inputs is 1.4 EiB, beyond any 57-bit address space,
        # so the allocation fails before a page is touched
        config = tmp_path / "run.yaml"
        config.write_text(f"model: sum_prod\nsubsets: [[1]]\nn: {10**17}\n")
        assert main(["--config", str(config), "--output", str(tmp_path / "r.json")]) == EXIT_DEGENERATE
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1

    def test_exit_codes(self, tmp_path):
        assert main(["--model", "nope", "--subset", "1"]) == EXIT_CONFIG
        assert main(["--model", "identity_2", "--subset", "5"]) == EXIT_CONFIG
        assert (
            main(["--model", "constant", "--subset", "1", "--n", "100", "--seed", "1"])
            == EXIT_DEGENERATE
        )
        out = tmp_path / "no-such-dir" / "r.json"
        rc = main(
            ["--model", "identity_2", "--subset", "1", "--n", "100", "--seed", "1",
             "--output", str(out)]
        )
        assert rc == EXIT_IO

    @pytest.mark.parametrize("stdout", ["full", "closed"])
    def test_a_report_that_cannot_reach_stdout_exits_4(self, stdout):
        # buffered stdout, the interpreter's default: its exit flushes what is left
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys\nfrom vecsobol.cli import main\n"
                "sys.exit(main(['--model', 'identity_2', '--subset', '1', '--n', '20', '--reproducible']))\n")
        if stdout == "full":
            if not os.path.exists("/dev/full"):
                pytest.skip("needs /dev/full")
            with open("/dev/full", "w") as full:
                proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=full,
                                      stderr=subprocess.PIPE, text=True)
        else:
            # the child closes its fd 1 before the interpreter starts
            proc = subprocess.run([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE,
                                  text=True, preexec_fn=lambda: os.close(1))
        assert proc.returncode == EXIT_IO
        assert proc.stderr.startswith("report error: cannot write report to stdout: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("source", ["model", "sample"])
    def test_too_few_distinct_pairs_to_bootstrap_exit_3(self, tmp_path, capsys, source):
        # three pairs with e = 0: a resample that draws one of them three
        # times has a zero denominator
        if source == "model":
            argv = ["--model", "sum_prod", "--subset", "1,2", "--n", "3"]
        else:
            path = tmp_path / "pairs.csv"
            path.write_text("y_1,y_2,yu_1,yu_2\n1,2,1,2\n3,1,3,1\n0.5,4,0.5,4\n")
            argv = ["--sample", str(path), "--subset", "1"]
        rc = main([*argv, "--ci", "bootstrap", "--ci-reps", "200", "--seed", "1",
                   "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_DEGENERATE
        assert "too few distinct pairs to bootstrap" in capsys.readouterr().err

    def test_singular_discrete_oracle_exits_3(self, tmp_path, capsys):
        # u_only pads its output with a zero column, so no grid gives it a definite covariance
        config = tmp_path / "run.yaml"
        config.write_text(
            f"model: u_only\nspace: [{COIN}, {COIN}]\nsubsets: [[1]]\nn: 1000\nseed: 1\n"
            "oracle: auto\n"
        )
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_DEGENERATE
        assert "total output covariance is singular" in capsys.readouterr().err

    def test_over_cap_discrete_grid_exits_3(self, tmp_path, capsys, monkeypatch):
        # the route is refused where it is sized, before the design is evaluated
        monkeypatch.setattr(oracle, "MAX_GRID_NODES", 8)
        rows, evaluate = [], VectorModel.evaluate
        monkeypatch.setattr(VectorModel, "evaluate",
                            lambda self, x: rows.append(len(x)) or evaluate(self, x))
        three = "{kind: discrete, points: [0, 1, 2], probs: [0.25, 0.5, 0.25]}"
        config = tmp_path / "run.yaml"
        config.write_text(
            f"model: sum_prod\nspace: [{three}, {three}]\nsubsets: [[1]]\nn: 100\nseed: 1\n"
            "oracle: auto\n"
        )
        rc = main(["--config", str(config), "--output", str(tmp_path / "r.json")])
        assert rc == EXIT_DEGENERATE
        assert "grid has 9 nodes, above the cap of 8" in capsys.readouterr().err
        assert rows == []

    def _tabulated_config(self, tmp_path, extra=""):
        # tabulate every row the run will ask for, then drive it from the
        # table: the run's base rows once and each subset's second block
        table = tmp_path / "table.csv"
        config_text = (
            "model: {external: %s}\n"
            "space: [{kind: uniform}, {kind: uniform}]\n"
            "subsets: [[1], [2]]\nn: 400\nseed: 13\n" % table
        ) + extra
        model = get_model("sum_prod")
        table.write_text("x1,x2,y1,y2\n0,0,0,0\n")  # placeholder so parsing succeeds
        config = parse_config(config_text)
        design = cli.run_design(config)
        xs = np.vstack([design.x] + [design.x_u(u) for u in design.subsets])
        assert len(np.unique(xs, axis=0)) == 3 * 400  # (1 + s) n distinct rows
        ys = model.evaluate(xs)
        rows = ["x1,x2,y1,y2"] + [
            ",".join(repr(float(v)) for v in (*x, *y)) for x, y in zip(xs, ys)
        ]
        table.write_text("\n".join(rows) + "\n")

        config = tmp_path / "cfg.yaml"
        config.write_text(config_text)
        return config

    def test_tabulation_draws_the_design_once(self, tmp_path, monkeypatch):
        calls = []
        draw = pickfreeze.sample_marginals
        monkeypatch.setattr(pickfreeze, "sample_marginals",
                            lambda *args: calls.append(args) or draw(*args))
        self._tabulated_config(tmp_path)
        assert len(calls) == 2  # A and B, once each

    def test_external_model_run(self, tmp_path):
        config = self._tabulated_config(tmp_path)
        out = tmp_path / "r.json"
        assert main(["--config", str(config), "--output", str(out), "--reproducible"]) == EXIT_OK
        tree = json.loads(out.read_text())
        direct = run(parse_config("model: sum_prod\nsubsets: [[1], [2]]\nn: 400\nseed: 13\n"))
        assert [s["estimate"] for s in tree["subsets"]] == [s.estimate for s in direct.subsets]
        # a UTF-8 byte-order mark before the header is skipped
        table = tmp_path / "table.csv"
        table.write_bytes(b"\xef\xbb\xbf" + table.read_bytes())
        marked = tmp_path / "marked.json"
        assert main(["--config", str(config), "--output", str(marked), "--reproducible"]) == EXIT_OK
        assert marked.read_bytes() == out.read_bytes()

    def test_external_model_has_no_oracle(self, tmp_path, capsys):
        # a table answers only its own rows, not the quadrature nodes
        out = tmp_path / "r.json"
        config = self._tabulated_config(tmp_path, "oracle: auto\n")
        assert main(["--config", str(config), "--output", str(out), "--reproducible"]) == EXIT_OK
        sub = json.loads(out.read_text())["subsets"][0]
        assert sub["estimate"] is not None
        assert all(value is None for key, value in sub.items() if key.startswith("oracle_"))
        config.write_text(config.read_text() + "replications: 200\n")
        assert main(["--config", str(config), "--output", str(out)]) == EXIT_CONFIG
        assert "no oracle target" in capsys.readouterr().err


class TestInputFiles:
    @pytest.mark.parametrize(
        "kind, case, message, text", FILE_CASES, ids=[f"{k}-{c}" for k, c, *_ in FILE_CASES]
    )
    def test_faulty_file_exits_2_naming_the_file(self, tmp_path, capsys, kind, case, message, text):
        path, rc = _main_on_file(tmp_path, kind, text)
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith(f"configuration error: {path}: ") and message in err
        assert "Traceback" not in err

    def test_the_valid_files_load(self, tmp_path):
        for kind, (header, rows, _) in INPUT_FILES.items():
            (tmp_path / kind).write_text(header + rows, encoding="utf-8")
        assert read_sample_csv(str(tmp_path / "sample")).n == 2
        assert load_external_model(str(tmp_path / "table")).params["rows"] == 2

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sampled_from(sorted(INPUT_FILES)),
        st.booleans(),
        st.text(max_size=20),
        st.lists(st.lists(NUMBERS, min_size=4, max_size=4), min_size=2, max_size=5)
        | st.lists(st.lists(CELLS, max_size=5), max_size=5),
    )
    def test_any_file_exits_cleanly(self, tmp_path_factory, kind, keep_header, header, rows):
        """An arbitrary header or body gives exit 0, 2 or 3, never an uncaught error."""
        text = ("HEADER" if keep_header else header + "\n") + "\n".join(map(",".join, rows))
        assert _main_on_file(tmp_path_factory.getbasetemp(), kind, text)[1] in (0, 2, 3)

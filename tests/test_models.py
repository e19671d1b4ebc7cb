import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecsobol.models
from vecsobol import (
    ConfigurationError,
    ContractError,
    VectorModel,
    apply_transform,
    corpus_names,
    get_model,
    linear_model,
    load_external_model,
    sample_inputs,
)


def test_identity_model_eval():
    model = linear_model(np.eye(2))
    assert np.array_equal(model.evaluate([[3.0, 4.0]]), [[3.0, 4.0]])


def test_diagonal_linear_eval():
    model = linear_model([[2.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(model.evaluate([[1.0, 1.0]]), [[2.0, 1.0]])


def test_sum_prod_eval():
    model = get_model("sum_prod")
    assert np.array_equal(model.evaluate([[0.5, 0.5]]), [[1.0, 0.25]])


def test_eval_is_bit_stable():
    model = get_model("sum_prod")
    x = sample_inputs(model.space(), 100, 5)
    assert np.array_equal(model.evaluate(x), model.evaluate(x.copy()))


# one instance of every corpus entry, with parameters that make each do real work
LAYOUT_CORPUS = {
    "identity_2": {},
    "linear": {"matrix": [[1.5, -2.0, 0.25, 3.0, 1.0], [0.5, 1.0, -1.0, 2.0, -0.75]]},
    "sum_prod": {},
    "u_only": {"dims": 5, "coords": (0, 2, 3, 4)},
    "constant": {"values": (1.0, -2.0, 3.5), "dims": 4},
}


def _layout_pair(model, n, seed):
    """One design for the model as C- and Fortran-ordered copies."""
    x = sample_inputs(model.space(), n, seed)
    return np.ascontiguousarray(x), np.asfortranarray(x)


@pytest.mark.parametrize("n", [7, 50_000])
def test_outputs_do_not_depend_on_the_input_layout(tmp_path, n):
    assert set(LAYOUT_CORPUS) == set(corpus_names())
    models = [get_model(name, **params) for name, params in LAYOUT_CORPUS.items()]
    sum_prod = get_model("sum_prod")
    models.append(apply_transform(sum_prod, [[2.0, -1.0], [0.5, 3.0]]))
    c_rows, f_rows = _layout_pair(sum_prod, n, 11)
    table = tmp_path / "table.csv"
    np.savetxt(table, np.hstack([c_rows, sum_prod.evaluate(c_rows)]), fmt="%.17g",
               delimiter=",", header="x1,x2,y1,y2", comments="")
    external = load_external_model(str(table))
    cases = [(model, *_layout_pair(model, n, 11)) for model in models]
    cases.append((external, c_rows, f_rows))
    for model, c_x, f_x in cases:
        assert c_x.flags.c_contiguous and f_x.flags.f_contiguous
        assert model.evaluate(f_x).tobytes() == model.evaluate(c_x).tobytes(), model.name


def test_eval_dimension_contract():
    model = get_model("sum_prod")
    with pytest.raises(ContractError):
        model.evaluate(np.zeros((3, 3)))


@pytest.mark.parametrize("make", [
    lambda: VectorModel(in_dims=0, out_dims=2, kind="builtin", eval_fn=lambda x: x),
    lambda: VectorModel(in_dims=2, out_dims=0, kind="builtin", eval_fn=lambda x: x),
    lambda: linear_model(np.zeros((0, 2))),
], ids=["no-inputs", "no-outputs", "linear-no-outputs"])
def test_a_model_needs_an_input_and_an_output(make):
    # refused where the model is made, not when its first sample is built
    with pytest.raises(ContractError, match="at least one input and one output"):
        make()


def test_corpus_contents():
    names = corpus_names()
    for expected in ("identity_2", "linear", "sum_prod", "u_only", "constant"):
        assert expected in names
    with pytest.raises(ConfigurationError):
        get_model("nope")
    with pytest.raises(ConfigurationError):
        get_model("linear")  # matrix parameter is required


def test_u_only_ignores_complement():
    model = get_model("u_only", dims=3, coords=(0, 2))
    out = model.evaluate([[1.0, 99.0, 2.0], [1.0, -5.0, 2.0]])
    assert np.array_equal(out[0], out[1])
    assert out[0, 0] == 3.0 and out[0, 1] == 0.0


def test_constant_model():
    model = get_model("constant")
    out = model.evaluate(np.zeros((4, 2)))
    assert np.array_equal(out, np.tile([1.0, 2.0], (4, 1)))


def test_corpus_parameters_must_be_finite():
    with pytest.raises(ConfigurationError, match="finite"):
        get_model("linear", matrix=[[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ConfigurationError, match="finite"):
        get_model("constant", values=[np.nan, 1.0])


def test_models_module_does_not_import_the_oracles():
    # the oracle route follows from a model's kind; models knows nothing of it
    tree = ast.parse(Path(vecsobol.models.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for alias in node.names for part in alias.name.split("."))
    assert "oracle" not in imported


def test_swap_isometry_exchanges_coordinates():
    # the isometry that exchanges the two canonical basis vectors
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    model = apply_transform(linear_model(np.eye(2)), swap)
    assert np.array_equal(model.evaluate([[1.0, 2.0]]), [[2.0, 1.0]])


def test_unit_homothety_is_identity():
    model = get_model("sum_prod")
    t = apply_transform(model, np.eye(2))
    x = sample_inputs(model.space(), 50, 1)
    assert np.array_equal(t.evaluate(x), model.evaluate(x))


def test_homothety_scales_outputs():
    model = apply_transform(get_model("sum_prod"), 2.0 * np.eye(2))
    assert np.array_equal(model.evaluate([[0.5, 0.5]]), [[2.0, 0.5]])


def test_isometry_roundtrip_recovers_outputs():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    for model in (get_model("sum_prod"), get_model("identity_2")):
        fwd = apply_transform(model, q)
        back = apply_transform(fwd, q.T)
        x = sample_inputs(model.space(), 200, 8)
        assert np.max(np.abs(back.evaluate(x) - model.evaluate(x))) < 1e-12


def test_transform_validation():
    # the transform's kinds are checked where the config is read; here only its shape
    with pytest.raises(ContractError):
        apply_transform(get_model("sum_prod"), np.eye(3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    scale=st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0),
    rows=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_homothety_matrix_is_the_scalar_multiple(scale, rows, seed):
    # lam * I composes like the scalar lam, bit for bit, also where it overflows
    base = get_model("sum_prod")
    x = sample_inputs(base.space(), rows, seed)
    with np.errstate(over="ignore"):
        expected = scale * base.evaluate(x)
    got = apply_transform(base, scale * np.eye(2)).evaluate(x)
    assert np.array_equal(got, expected, equal_nan=True)
    folded = apply_transform(get_model("identity_2"), scale * np.eye(2))
    assert folded.kind == "linear" and np.array_equal(folded.matrix, scale * np.eye(2))


def test_external_model_roundtrip(tmp_path):
    base = get_model("sum_prod")
    x = sample_inputs(base.space(), 20, 4)
    y = base.evaluate(x)
    path = tmp_path / "table.csv"
    rows = ["x1,x2,y1,y2"]
    for xi, yi in zip(x, y):
        rows.append(",".join(repr(float(v)) for v in (*xi, *yi)))
    path.write_text("\n".join(rows) + "\n")

    model = load_external_model(str(path))
    assert model.in_dims == 2 and model.out_dims == 2 and model.kind == "external"
    assert np.array_equal(model.evaluate(x), y)
    with pytest.raises(ContractError):
        model.evaluate(np.array([[123.0, 456.0]]))


def test_external_model_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigurationError):
        load_external_model(str(path))


def _table(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text("x1,x2,y1,y2\n" + text)
    return load_external_model(str(path))


def test_external_model_treats_signed_zeros_as_one_input(tmp_path):
    model = _table(tmp_path, "0.0,1.0,5.0,6.0\n-0.0,1.0,5.0,6.0\n2.0,-0.0,7.0,8.0\n")
    assert model.params["rows"] == 2  # distinct inputs
    out = model.evaluate(np.array([[-0.0, 1.0], [2.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(out, [[5.0, 6.0], [7.0, 8.0], [5.0, 6.0]])


def test_external_model_repeated_inputs_must_agree(tmp_path):
    model = _table(tmp_path, "1,2,3,4\n5,6,7,8\n1,2,3,4\n")
    assert model.params["rows"] == 2
    with pytest.raises(ConfigurationError, match="data row 3: conflicting"):
        _table(tmp_path, "1,2,3,4\n5,6,7,8\n1,2,3,4.5\n")


def test_external_model_names_the_first_missing_input(tmp_path):
    model = _table(tmp_path, "1,2,3,4\n")
    with pytest.raises(ContractError, match=r"\[5\.0, 6\.0\] is not among"):
        model.evaluate(np.array([[1.0, 2.0], [5.0, 6.0], [7.0, 8.0]]))
    with pytest.raises(ContractError):
        model.evaluate(np.array([[np.nan, 2.0]]))

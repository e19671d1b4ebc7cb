"""Exact-oracle tests.

Frozen expected values were derived independently by symbolic integration
(sum/product map on uniform inputs) and by exact 4-point enumeration; the
oracles under test must reproduce them, not the other way around.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsobol import (
    ContractError,
    CovarianceTriple,
    DegenerateModelError,
    Discrete,
    IllPosedIndexError,
    InputSpace,
    Normal,
    ResourceError,
    SubsetIndex,
    Uniform,
    VectorModel,
    covariances_linear,
    covariances_monte_carlo,
    covariances_quadrature,
    decompose_grid,
    evaluate_pairs,
    exact_index,
    generate_design,
    get_model,
    linear_model,
)

U1 = SubsetIndex((0,), 2)

# symbolic integration of (x1 + x2, x1 * x2) over uniform(0,1)^2, group {x1}
SUM_PROD_C_U = np.array([[1 / 12, 1 / 24], [1 / 24, 1 / 48]])
SUM_PROD_SIGMA = np.array([[1 / 6, 1 / 12], [1 / 12, 7 / 144]])
SUM_PROD_TR_C_U = 5 / 48
SUM_PROD_TR_SIGMA = 31 / 144
SUM_PROD_INDEX = 15 / 31

# exact enumeration of the same map on the 4-point grid uniform{0,1}^2
SUM_PROD_DISCRETE_C_U = np.array([[1 / 4, 1 / 8], [1 / 8, 1 / 16]])
SUM_PROD_DISCRETE_SIGMA = np.array([[1 / 2, 1 / 4], [1 / 4, 3 / 16]])


def _pm1_space():
    return InputSpace((Discrete((-1.0, 1.0), (0.5, 0.5)),) * 2)


def _product_model():
    def _eval(x):
        return np.stack([x[:, 0] * x[:, 1], np.zeros(x.shape[0])], axis=1)

    return VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=_eval, name="product")


# ---------------------------------------------------------------------------
# closed form for linear maps
# ---------------------------------------------------------------------------


class TestCovariancesLinear:
    def test_identity_unit_variances(self):
        triple = covariances_linear(np.eye(2), np.ones(2), U1)
        assert np.array_equal(triple.total, np.eye(2))
        assert np.array_equal(triple.subset, np.diag([1.0, 0.0]))
        assert np.array_equal(triple.complement, np.diag([0.0, 1.0]))
        assert np.array_equal(triple.interaction, np.zeros((2, 2)))
        assert triple.method == "closed_form"

    def test_diagonal_map_against_monte_carlo(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0]])
        triple = covariances_linear(a, np.ones(2), U1)
        assert np.allclose(triple.subset, np.diag([4.0, 0.0]))
        assert np.allclose(triple.total, np.diag([4.0, 1.0]))
        mc = covariances_monte_carlo(
            linear_model(a), InputSpace.normal(2), U1, 1_000_000, seed=101
        )
        bound = 5.0 / np.sqrt(1_000_000) * 4.0  # scaled by the largest variance
        assert np.max(np.abs(mc.subset - triple.subset)) < bound
        assert np.max(np.abs(mc.total - triple.total)) < bound

    def test_full_set_gives_everything(self):
        # on every route: the full group's part is the total, bit for bit,
        # and the complement and interaction parts are exactly zero
        full = SubsetIndex((0, 1), 2)
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        model, sum_prod = linear_model(a), get_model("sum_prod")
        triples = [
            covariances_linear(a, np.ones(2), full),
            covariances_quadrature(model, model.space(), full, 8),
            covariances_quadrature(sum_prod, sum_prod.space(), full, 64),
            covariances_monte_carlo(model, model.space(), full, 10_000, seed=1),
            covariances_monte_carlo(sum_prod, sum_prod.space(), full, 100_000, seed=1),
        ]
        for triple in triples:
            assert triple.subset.tobytes() == triple.total.tobytes(), triple.method
            assert not triple.complement.any() and not triple.interaction.any(), triple.method

    def test_singular_map_rejected(self):
        with pytest.raises(DegenerateModelError):
            covariances_linear(np.array([[1.0, 0.0], [2.0, 0.0]]), np.ones(2), U1)

    def test_identity_residual_is_tiny(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            v = rng.uniform(0.5, 2.0, size=3)
            triple = covariances_linear(a, v, SubsetIndex((0, 2), 3))
            assert triple.residual <= 1e-12
            assert triple.identity_defect() <= 1e-12

    @pytest.mark.parametrize("variances, message", [
        (np.array([1.0, -1.0]), "^input variances must be nonnegative"),
        (np.ones(3), "^need 2 input variances"),
        ([np.nan, 1.0], "^input variances must be finite"),
        ([np.inf, 1.0], "^input variances must be finite"),
        (["a", 1.0], "^input variances "),
        ([[1.0], [1.0, 2.0]], "^input variances "),
        (None, "^input variances "),
        (1.0, "^input variances "),
    ], ids=["negative", "too many", "nan", "inf", "text", "ragged", "none", "scalar"])
    def test_contracts(self, variances, message):
        # never blamed on the model, never numpy's warning or bare ValueError
        with pytest.raises(ContractError, match=message):
            covariances_linear(np.eye(2), variances, U1)


# ---------------------------------------------------------------------------
# exact enumeration on discrete grids
# ---------------------------------------------------------------------------


class TestDecomposeDiscrete:
    def test_additive_model_has_no_interaction(self):
        comps = decompose_grid(get_model("identity_2"), _pm1_space(), U1, 1)
        assert np.array_equal(comps.mean, np.zeros(2))
        # group part is (x1, 0) at grid points -1, +1 of the first coordinate
        assert np.array_equal(comps.subset_values, [[-1.0, 0.0], [1.0, 0.0]])
        assert np.array_equal(comps.complement_values, [[0.0, -1.0], [0.0, 1.0]])
        assert np.max(np.abs(comps.interaction_values)) == 0.0

    def test_pure_interaction_model(self):
        comps = decompose_grid(_product_model(), _pm1_space(), U1, 1)
        assert np.max(np.abs(comps.subset_values)) == 0.0
        assert np.max(np.abs(comps.complement_values)) == 0.0
        # the interaction part is the full product term
        x1, x2 = (np.asarray(m.points) for m in _pm1_space().marginals)
        prods = np.multiply.outer(x1, x2).ravel()
        assert np.array_equal(comps.interaction_values[:, 0], prods)

    def test_sum_prod_on_four_point_grid(self):
        space = InputSpace((Discrete((0.0, 1.0), (0.5, 0.5)),) * 2)
        comps = decompose_grid(get_model("sum_prod"), space, U1, 1)
        triple = comps.covariance_triple()
        assert np.allclose(triple.subset, SUM_PROD_DISCRETE_C_U, atol=1e-14)
        assert np.allclose(triple.total, SUM_PROD_DISCRETE_SIGMA, atol=1e-14)
        assert triple.method == "enumeration"
        assert triple.residual <= 1e-12

    def test_component_invariants(self):
        space = InputSpace(
            (
                Discrete((0.0, 1.0, 2.0), (0.25, 0.5, 0.25)),
                Discrete((-1.0, 1.0), (0.3, 0.7)),
                Discrete((0.0, 5.0), (0.9, 0.1)),
            )
        )

        def _eval(x):
            return np.stack(
                [x[:, 0] * x[:, 1] + x[:, 2], np.exp(-x[:, 0]) + x[:, 1] * x[:, 2]], axis=1
            )

        model = VectorModel(in_dims=3, out_dims=2, kind="builtin", eval_fn=_eval, name="mix")
        for subset in (SubsetIndex((0,), 3), SubsetIndex((0, 2), 3), SubsetIndex((1,), 3)):
            comps = decompose_grid(model, space, subset, 1)
            assert comps.reconstruction_residual() <= 1e-10
            assert comps.component_mean_defect() <= 1e-12
            assert comps.orthogonality_defect() <= 1e-12
            assert comps.covariance_triple().residual <= 1e-12

    def test_full_subset(self):
        comps = decompose_grid(get_model("identity_2"), _pm1_space(), SubsetIndex((0, 1), 2), 1)
        triple = comps.covariance_triple()
        assert np.allclose(triple.subset, triple.total)
        assert np.max(np.abs(triple.complement)) == 0.0

    def test_grid_cap(self):
        many = Discrete(tuple(map(float, range(10_000))), (1.0 / 10_000,) * 10_000)
        with pytest.raises(ResourceError):
            decompose_grid(get_model("sum_prod"), InputSpace((many, many)), U1, 1)


# ---------------------------------------------------------------------------
# tensorized quadrature
# ---------------------------------------------------------------------------


class TestCovariancesQuadrature:
    def test_sum_prod_moments(self):
        model = get_model("sum_prod")
        triple = covariances_quadrature(model, model.space(), U1, 64)
        assert abs(np.trace(triple.subset) - SUM_PROD_TR_C_U) < 1e-10
        assert abs(np.trace(triple.total) - SUM_PROD_TR_SIGMA) < 1e-10
        assert np.allclose(triple.subset, SUM_PROD_C_U, atol=1e-10)
        assert np.allclose(triple.total, SUM_PROD_SIGMA, atol=1e-10)
        assert triple.method == "quadrature"
        assert triple.residual <= 1e-8 and not triple.accuracy_warning

    def test_matches_closed_form_on_linear_models(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            a = rng.normal(size=(2, 3))
            model = linear_model(a)
            space = InputSpace.normal(3)
            subset = SubsetIndex((0, 2), 3)
            quad = covariances_quadrature(model, space, subset, 16)
            closed = covariances_linear(a, space.variances(), subset)
            for part in ("total", "subset", "complement", "interaction"):
                assert np.max(np.abs(getattr(quad, part) - getattr(closed, part))) < 1e-10

    def test_monte_carlo_cross_check(self):
        model = get_model("sum_prod")
        quad = covariances_quadrature(model, model.space(), U1, 64)
        mc = covariances_monte_carlo(model, model.space(), U1, 1_000_000, seed=2024)
        bound = 5.0 / np.sqrt(1_000_000)
        for part in ("total", "subset", "complement"):
            assert np.max(np.abs(getattr(quad, part) - getattr(mc, part))) < bound

    def test_constant_model_is_degenerate(self):
        model = get_model("constant")
        with pytest.raises(DegenerateModelError):
            covariances_quadrature(model, model.space(), U1, 8)

    def test_zero_padded_output_is_degenerate(self):
        model = get_model("u_only")
        with pytest.raises(DegenerateModelError):
            covariances_quadrature(model, model.space(), U1, 8)

    def test_dimension_cap_and_marginal_kind(self):
        model = linear_model(np.ones((1, 5)))
        with pytest.raises(ResourceError):
            covariances_quadrature(model, InputSpace.uniform(5), SubsetIndex((0,), 5), 4)
        # a discrete space takes its support as the rule: the same triple as enumeration
        quad = covariances_quadrature(get_model("identity_2"), _pm1_space(), U1, 4)
        enum = decompose_grid(get_model("identity_2"), _pm1_space(), U1, 1).covariance_triple()
        for part in ("total", "subset", "complement", "interaction"):
            assert np.max(np.abs(getattr(quad, part) - getattr(enum, part))) <= 1e-15

    def test_memory_stays_within_64_bytes_per_node(self):
        # the outputs and the interaction tensor take 48 B per node at k=3; no
        # full-grid input matrix, weight vector or weighted copy may join them
        def _eval(x):
            return np.stack(
                [np.exp(x[:, 0]) * np.sin(x[:, 1]), x[:, 1] * x[:, 3] + np.cos(x[:, 2]),
                 np.exp(-x[:, 0] * x[:, 3])], axis=1)

        model = VectorModel(in_dims=4, out_dims=3, kind="builtin", eval_fn=_eval, name="smooth")
        space, subset = InputSpace.uniform(4), SubsetIndex((1, 2), 4)
        covariances_quadrature(model, space, subset, 2)  # warm the rule code outside the trace
        tracemalloc.start()
        try:
            covariances_quadrature(model, space, subset, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 16**4 <= 64


# ---------------------------------------------------------------------------
# the grid kernel against a brute-force reference
# ---------------------------------------------------------------------------


def _reference_triple(f, rules, subset):
    """Covariance triple from conditional means formed cell by cell in a Python loop."""
    p = len(rules)
    cells = list(itertools.product(*(range(len(x)) for x, _ in rules)))
    y = {c: f(np.array([[rules[j][0][c[j]] for j in range(p)]]))[0] for c in cells}
    w = {c: math.prod(rules[j][1][c[j]] for j in range(p)) for c in cells}
    mean = sum(w[c] * y[c] for c in cells)

    def centred_conditional(axes):
        num, den = {}, {}
        for c in cells:
            key = tuple(c[j] for j in axes)
            num[key] = num.get(key, 0.0) + w[c] * y[c]
            den[key] = den.get(key, 0.0) + w[c]
        return {key: num[key] / den[key] - mean for key in num}, den

    def cov(values, weights):
        return sum(weights[key] * np.outer(v, v) for key, v in values.items())

    sub, sub_w = centred_conditional(subset.indices)
    comp, comp_w = centred_conditional(subset.complement)
    centred = {c: y[c] - mean for c in cells}
    inter = {
        c: centred[c]
        - sub[tuple(c[j] for j in subset.indices)]
        - comp[tuple(c[j] for j in subset.complement)]
        for c in cells
    }
    return cov(centred, w), cov(sub, sub_w), cov(comp, comp_w), cov(inter, w)


_coef = st.floats(-2.0, 2.0, allow_nan=False)
_marginals = st.one_of(
    st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3).flatmap(
        lambda raw: st.builds(
            Discrete,
            st.lists(st.floats(-3.0, 3.0), min_size=len(raw), max_size=len(raw), unique=True)
            .map(tuple),
            st.just(tuple(np.asarray(raw) / sum(raw))),
        )
    ),
    st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(-2.0, 2.0), st.floats(0.1, 3.0)),
    st.builds(Normal, st.floats(-2.0, 2.0), st.floats(0.1, 2.0)),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    marginals=st.lists(_marginals, min_size=1, max_size=3),
    nodes=st.integers(2, 5),
    coef=st.lists(_coef, min_size=12, max_size=12),
)
def test_grid_kernel_matches_a_brute_force_reference(marginals, nodes, coef):
    space = InputSpace(tuple(marginals))
    p = space.dims
    a = np.asarray(coef).reshape(2, 6)

    def _eval(x):
        # smooth and bounded, with main effects and interactions of every input
        x = np.hstack([x, np.zeros((x.shape[0], 3 - p))])
        feats = np.stack(
            [np.sin(x[:, 0]), np.cos(x[:, 1]), np.tanh(x[:, 2]), np.sin(x[:, 0] * x[:, 1]),
             np.cos(x[:, 1] - x[:, 2]), np.sin(x[:, 0]) * np.cos(x[:, 2])], axis=1)
        return feats @ a.T

    model = VectorModel(in_dims=p, out_dims=2, kind="builtin", eval_fn=_eval, name="smooth")
    rules = [m.quadrature(nodes) for m in marginals]
    for size in range(1, p + 1):
        for indices in itertools.combinations(range(p), size):
            subset = SubsetIndex(indices, p)
            comps = decompose_grid(model, space, subset, nodes)
            triple = comps.covariance_triple()
            reference = _reference_triple(model.evaluate, rules, subset)
            scale = max(1.0, float(np.max(np.abs(reference[0]))))
            for got, want in zip(
                (triple.total, triple.subset, triple.complement, triple.interaction), reference
            ):
                assert np.max(np.abs(got - want)) <= 1e-12 * scale
            assert comps.reconstruction_residual() <= 1e-12
            assert comps.component_mean_defect() <= 1e-12
            assert comps.orthogonality_defect() <= 1e-12


# ---------------------------------------------------------------------------
# trace-ratio indices
# ---------------------------------------------------------------------------


def _proof_triple():
    return covariances_linear(np.eye(2), np.ones(2), U1)


class TestExactIndex:
    @pytest.mark.parametrize("lams", [(1.0, 1.0), (1.0, 2.0), (3.0, 5.0)])
    def test_diagonal_weighting(self, lams):
        l1, l2 = lams
        idx = exact_index(_proof_triple(), np.diag([l1, l2]))
        assert abs(idx.subset - l1 / (l1 + l2)) < 1e-12

    def test_identity_weighting_is_half(self):
        idx = exact_index(_proof_triple(), np.eye(2))
        assert idx.subset == pytest.approx(0.5, abs=1e-12)
        assert idx.complement == pytest.approx(0.5, abs=1e-12)
        assert idx.interaction == pytest.approx(0.0, abs=1e-12)

    def test_swap_counterexample(self):
        # exchanging the output coordinates flips the weighted index
        triple = _proof_triple()
        m = np.diag([1.0, 2.0])
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        before = exact_index(triple, m).subset
        after = exact_index(triple.left_compose(swap), m).subset
        assert abs(before - 1.0 / 3.0) < 1e-12
        assert abs(after - 2.0 / 3.0) < 1e-12
        assert before != after

    def test_scalar_reduction(self):
        # one output coordinate: any nonzero weighting gives the variance ratio
        triple = covariances_linear(np.array([[1.0, 2.0]]), np.array([1.0, 1.0]), U1)
        expected = triple.subset[0, 0] / triple.total[0, 0]
        for m in (np.array([[1.0]]), np.array([[-3.7]]), np.array([[0.004]])):
            assert exact_index(triple, m).subset == pytest.approx(expected, abs=1e-12)

    def test_sum_to_one_over_random_weightings(self):
        rng = np.random.default_rng(11)
        model = get_model("sum_prod")
        triple = covariances_quadrature(model, model.space(), U1, 32)
        for _ in range(50):
            m = rng.normal(size=(2, 2))
            m = m + m.T
            if abs(np.trace(m @ triple.total)) < 1e-6:
                continue
            assert exact_index(triple, m).sum_defect() <= 1e-10

    def test_general_linear_transformation_rule(self):
        rng = np.random.default_rng(13)
        triple = covariances_linear(rng.normal(size=(3, 3)), np.ones(3), SubsetIndex((1,), 3))
        for _ in range(20):
            o = rng.normal(size=(3, 3))
            m = rng.normal(size=(3, 3))
            lhs = exact_index(triple.left_compose(o), m).subset
            rhs = exact_index(triple, o.T @ m @ o).subset
            assert abs(lhs - rhs) < 1e-10

    def test_identity_weighting_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = rng.normal(size=(3, 4))
            v = rng.uniform(0.5, 2.0, size=4)
            triple = covariances_linear(a, v, SubsetIndex((0, 3), 4))
            idx = exact_index(triple, np.eye(3))
            assert -1e-12 <= idx.subset <= 1.0 + 1e-12

    def test_isometry_and_homothety_invariance(self):
        rng = np.random.default_rng(19)
        triple = covariances_linear(rng.normal(size=(2, 2)), np.ones(2), U1)
        base = exact_index(triple, np.eye(2)).subset
        for _ in range(20):
            q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            assert abs(exact_index(triple.left_compose(q), np.eye(2)).subset - base) < 1e-10
        for lam in (-3.0, 0.25, 7.5):
            scaled = triple.left_compose(lam * np.eye(2))
            assert abs(exact_index(scaled, np.eye(2)).subset - base) < 1e-10

    @pytest.mark.parametrize("lam", [1e-150, 1e-7, 1e7, 1e150])
    def test_scaled_outputs_and_weights_give_the_same_index(self, lam):
        # the ill-posed floor scales with M and the total, as the index does
        model = get_model("sum_prod")
        antisymmetric = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for triple in (_proof_triple(), covariances_quadrature(model, model.space(), U1, 32)):
            m = np.diag([1.0, 2.0])
            base = exact_index(triple, m)
            for scaled in (exact_index(triple.left_compose(lam * np.eye(2)), m),
                           exact_index(triple, lam * m)):
                for part in ("subset", "complement", "interaction"):
                    assert getattr(scaled, part) == pytest.approx(getattr(base, part), abs=1e-12)
            with pytest.raises(IllPosedIndexError):
                exact_index(triple.left_compose(lam * np.eye(2)), antisymmetric)

    def test_weight_scale_moves_no_bit(self):
        # the oracle shares the estimator's weight helper: no finite M over- or
        # underflows, and 2^1020 M and 2^-1000 M give M's indices bit for bit
        model = get_model("sum_prod")
        triple = covariances_quadrature(model, model.space(), U1, 8).left_compose(1e4 * np.eye(2))
        m = np.array([[1.0, 0.3], [0.3, 2.0]])
        for power in (1020, -1000):
            assert exact_index(triple, np.ldexp(m, power)) == exact_index(triple, m)

    def test_ill_posed_guard(self):
        with pytest.raises(IllPosedIndexError):
            exact_index(_proof_triple(), np.array([[0.0, 1.0], [-1.0, 0.0]]))  # antisymmetric
        with pytest.raises(ContractError):
            exact_index(_proof_triple(), np.eye(3))


# ---------------------------------------------------------------------------
# monte carlo oracle
# ---------------------------------------------------------------------------


class TestMonteCarloOracle:
    def test_identity_map(self):
        model = get_model("identity_2")
        mc = covariances_monte_carlo(model, model.space(), U1, 500_000, seed=3)
        assert np.max(np.abs(mc.subset - np.diag([1.0, 0.0]))) < 5.0 / np.sqrt(500_000)
        assert mc.identity_defect() <= 1e-12  # holds by construction
        assert mc.method == "monte_carlo"

    @pytest.mark.parametrize("model", [
        linear_model([[1.0, -2.0, 0.5, 3.0], [0.25, 1.0, -1.5, 2.0], [2.0, 0.0, 1.0, -1.0]],
                     InputSpace((Uniform(-1, 2), Normal(3, 0.5), Discrete((0.0, 1.0), (0.4, 0.6)),
                                 Uniform(0, 1)))),
        get_model("sum_prod"),
    ], ids=["linear", "sum_prod"])
    def test_triple_does_not_depend_on_the_draw_layout(self, monkeypatch, model):
        # draws come column-major; the triple is the one row-major draws give
        from vecsobol import pickfreeze

        subset = SubsetIndex((0,), model.in_dims)
        got = covariances_monte_carlo(model, model.space(), subset, 20_000, seed=5)
        draw = pickfreeze.sample_marginals
        monkeypatch.setattr(pickfreeze, "sample_marginals",
                            lambda *args: np.ascontiguousarray(draw(*args)))
        row_major = covariances_monte_carlo(model, model.space(), subset, 20_000, seed=5)
        for part in ("total", "subset", "complement", "interaction"):
            assert getattr(got, part).tobytes() == getattr(row_major, part).tobytes()

    def test_memory_stays_below_fifteen_doubles_per_row(self):
        # the design (A and B), f(A), and one second block with its output
        # at a time; sum_prod has two inputs and two outputs
        model = get_model("sum_prod")
        n = 1_000_000
        tracemalloc.start()
        try:
            covariances_monte_carlo(model, model.space(), U1, n, seed=2024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 15

    def test_memory_is_the_chunked_layout(self):
        # A and B (every column is redrawn), f(A) and one f(A_u), plus one
        # chunk: no whole second block and no n-row model temporaries
        model = get_model("sum_prod")
        n, p, k = 1_000_000, 2, 2
        tracemalloc.start()
        try:
            covariances_monte_carlo(model, model.space(), U1, n, seed=2024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (2 * p + 2 * k) + 2 * 2**20

    def test_seed_disjoint_from_estimator_streams(self):
        from vecsobol import evaluate_pairs, generate_design

        model = get_model("identity_2")
        design = generate_design(model.space(), U1, 1000, 3)
        mc = covariances_monte_carlo(model, model.space(), U1, 1000, seed=3)
        # same numeric seed must not reproduce the design draws
        sample = evaluate_pairs(model, design)
        assert not np.allclose(mc.total, (sample.y - sample.y.mean(0)).T
                               @ (sample.y - sample.y.mean(0)) / 1000)


# ---------------------------------------------------------------------------
# one residual rule, non-finite models
# ---------------------------------------------------------------------------


class TestResidualRule:
    def test_residual_is_the_identity_defect_of_the_stored_parts(self):
        eye = np.eye(2)
        triple = CovarianceTriple(total=eye, subset=0.5 * eye, complement=0.5 * eye - 1e-3,
                                  interaction=np.zeros((2, 2)), method="test")
        assert triple.residual == pytest.approx(1e-3) and triple.accuracy_warning
        # composing recomputes the residual, and the warning follows it
        shrunk = triple.left_compose(1e-3 * eye)
        assert shrunk.residual == shrunk.identity_defect() < 1e-6
        # the defect relative to the total is still 1e-3
        assert shrunk.accuracy_warning
        with pytest.raises(TypeError):
            CovarianceTriple(total=eye, subset=eye, complement=eye, interaction=eye,
                             method="test", residual=0.0)

    @pytest.mark.parametrize("compose, matrix, message", [
        ("triple", [[np.nan, 0.0], [0.0, 1.0]], "^composition matrix must be finite"),
        ("triple", [[1e200, 0.0], [0.0, 1.0]],
         "^composition matrix overflows a covariance: total covariance must be finite"),
        ("sample", [[1e308, 1e308], [0.0, 1.0]],
         "^matrix overflows the sample outputs: composed outputs must be finite"),
    ], ids=["nan", "overflow", "sample-overflow"])
    def test_a_composition_with_no_finite_triple_is_refused_where_it_is_made(
            self, compose, matrix, message):
        # not a triple whose residual is NaN and whose indices are NaN, nor an
        # overflowed total that exact_index calls too close to zero, nor a
        # sample whose overflowed rows only the estimator names
        model = get_model("sum_prod")
        target = (_proof_triple() if compose == "triple" else
                  evaluate_pairs(model, generate_design(model.space(), U1, 300, 1)))
        with pytest.raises(ContractError, match=message):
            target.left_compose(matrix)

    def test_warning_does_not_follow_the_output_scale(self):
        # rounding grows with the outputs; relative to the total it stays at 1e-15
        model = get_model("sum_prod")
        triple = covariances_quadrature(model, model.space(), U1, 64)
        scaled = triple.left_compose(1e6 * np.eye(2))
        assert scaled.residual > 1e-6 and not scaled.accuracy_warning

    def test_every_route_reports_its_identity_defect(self):
        model = get_model("sum_prod")
        triples = [
            covariances_linear(np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones(2), U1),
            covariances_quadrature(model, model.space(), U1, 8),
            covariances_monte_carlo(model, model.space(), U1, 1000, seed=1),
        ]
        for triple in triples:
            assert triple.residual == triple.identity_defect() <= 1e-12


def _nan_where_x1_large():
    def _eval(x):
        y = np.stack([x[:, 0] + x[:, 1], x[:, 0] * x[:, 1]], axis=1)
        y[x[:, 0] > 0.9] = np.nan
        return y

    return VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=_eval, name="nan_x1")


class TestNonFiniteModel:
    def test_grid_oracle_names_a_non_finite_covariance(self):
        model = _nan_where_x1_large()
        with pytest.raises(DegenerateModelError, match="total output covariance is not finite"):
            covariances_quadrature(model, InputSpace.uniform(2), U1, 16)

    def test_monte_carlo_oracle_names_a_non_finite_covariance(self):
        model = _nan_where_x1_large()
        with pytest.raises(DegenerateModelError, match="total output covariance is not finite"):
            covariances_monte_carlo(model, InputSpace.uniform(2), U1, 1000, seed=1)

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecsobol import (
    ContractError,
    DegenerateSampleError,
    IllPosedIndexError,
    InputSpace,
    PickFreezeSample,
    SharedDesign,
    SubsetIndex,
    VectorModel,
    apply_transform,
    delta_variance,
    estimate_index,
    estimate_index_general,
    evaluate_pairs,
    evaluate_shared,
    generate_design,
    get_model,
    linear_model,
    load_external_model,
    read_sample_csv,
    write_sample_csv,
)
from vecsobol import pickfreeze
from vecsobol.pickfreeze import _frozen_mix

U1 = SubsetIndex((0,), 2)


def _sample(model_name="identity_2", subset=U1, n=2000, seed=8, **params):
    model = get_model(model_name, **params)
    return evaluate_pairs(model, generate_design(model.space(), subset, n, seed))


def _random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


class TestDesign:
    def test_shapes_and_range(self):
        design = generate_design(InputSpace.uniform(2), U1, 3, 7)
        assert design.x.shape == (3, 2)
        assert design.x_prime.shape == (3, 1)
        assert np.all(design.x >= 0) and np.all(design.x < 1)
        assert np.all(design.x_prime >= 0) and np.all(design.x_prime < 1)

    def test_full_set_has_empty_redraw(self):
        full = SubsetIndex((0, 1), 2)
        design = generate_design(InputSpace.uniform(2), full, 5, 7)
        assert design.x_prime.shape == (5, 0)

    def test_determinism(self):
        a = generate_design(InputSpace.uniform(2), U1, 10, 3)
        b = generate_design(InputSpace.uniform(2), U1, 10, 3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.x_prime, b.x_prime)

    def test_base_and_redraw_streams_differ(self):
        design = generate_design(InputSpace.uniform(2), U1, 1000, 3)
        assert abs(np.corrcoef(design.x[:, 1], design.x_prime[:, 0])[0, 1]) < 0.1

    def test_contracts(self):
        with pytest.raises(ContractError):
            generate_design(InputSpace.uniform(2), U1, 1, 3)
        with pytest.raises(ContractError):
            generate_design(InputSpace.uniform(3), U1, 10, 3)


class TestEvaluatePairs:
    def test_identity_makes_freezing_visible(self):
        model = get_model("identity_2")
        design = generate_design(model.space(), U1, 50, 4)
        sample = evaluate_pairs(model, design)
        assert np.array_equal(sample.y, design.x)
        assert np.array_equal(sample.y_u[:, 0], design.x[:, 0])
        assert np.array_equal(sample.y_u[:, 1], design.x_prime[:, 0])

    def test_u_only_pair_coincides(self):
        sample = _sample("u_only", n=100, dims=2, coords=(0,))
        assert np.array_equal(sample.y, sample.y_u)

    def test_sum_prod_single_row(self):
        design = SharedDesign(
            x=np.array([[0.5, 0.2]]), x_prime=np.array([[0.9]]), subsets=(U1,)
        )
        sample = evaluate_pairs(get_model("sum_prod"), design)
        assert np.allclose(sample.y, [[0.7, 0.10]])
        assert np.allclose(sample.y_u, [[1.4, 0.45]])

    def test_dimension_contract(self):
        design = generate_design(InputSpace.uniform(2), U1, 10, 1)
        with pytest.raises(ContractError):
            evaluate_pairs(get_model("u_only", dims=3), design)

    def test_a_design_of_two_groups_is_refused(self):
        # evaluate_pairs yields one sample: it must not drop the second group
        design = generate_design(InputSpace.uniform(2), [U1, SubsetIndex((1,), 2)], 10, 1)
        with pytest.raises(ContractError, match="one-group design, got 2 groups"):
            evaluate_pairs(get_model("sum_prod"), design)


class TestEstimator:
    def test_matches_literal_formula(self):
        # transliteration of the defining sums, accumulated with plain floats
        sample = _sample(n=500, seed=12)
        y, yu, n = sample.y, sample.y_u, sample.n
        num = den = 0.0
        for l in range(y.shape[1]):
            s_prod = sum(y[i, l] * yu[i, l] for i in range(n))
            s_mean = sum((y[i, l] + yu[i, l]) / 2.0 for i in range(n))
            s_sq = sum((y[i, l] ** 2 + yu[i, l] ** 2) / 2.0 for i in range(n))
            num += s_prod - s_mean**2 / n
            den += s_sq - s_mean**2 / n
        assert estimate_index(sample) == pytest.approx(num / den, abs=1e-12)

    def test_identity_2_converges_to_half(self):
        assert estimate_index(_sample(n=100_000, seed=1)) == pytest.approx(0.5, abs=0.01)

    def test_u_only_is_exactly_one(self):
        for n in (2, 17, 1000):
            sample = _sample("u_only", n=n, seed=5, dims=2, coords=(0,))
            assert estimate_index(sample) == 1.0

    def test_one_pair_is_refused(self):
        sample = PickFreezeSample(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]]))
        with pytest.raises(ContractError, match="at least 2 paired rows"):
            estimate_index(sample)
        with pytest.raises(ContractError, match="at least 2 paired rows"):
            estimate_index_general(sample, np.eye(2))

    @pytest.mark.parametrize("shape", [(0, 2), (5, 0)])
    def test_an_empty_sample_is_refused_where_it_is_built(self, shape):
        # not later, by its moments, as outputs too large to reduce or as a
        # reduction numpy cannot make
        empty = np.empty(shape)
        with pytest.raises(ContractError, match="at least one paired row and one output"):
            PickFreezeSample(empty, empty)
        with pytest.raises(ContractError, match="at least one paired row and one output"):
            PickFreezeSample._adopt(empty.copy(), empty.copy(), U1)

    def test_full_subset_is_exactly_one(self):
        full = SubsetIndex((0, 1), 2)
        assert estimate_index(_sample(subset=full, n=1000, seed=5)) == 1.0

    def test_sum_prod_converges(self):
        sample = _sample("sum_prod", n=1_000_000, seed=2)
        assert estimate_index(sample) == pytest.approx(15 / 31, abs=0.005)

    def test_scalar_model_matches_univariate_pick_freeze(self):
        # independent scalar implementation of the same estimator
        model = linear_model(np.array([[1.0, 2.0]]))
        sample = evaluate_pairs(model, generate_design(model.space(), U1, 5000, 9))
        y, yu = sample.y[:, 0], sample.y_u[:, 0]
        n = len(y)
        m = np.sum((y + yu) / 2.0)
        num = np.sum(y * yu) - m * m / n
        den = np.sum((y * y + yu * yu) / 2.0) - m * m / n
        assert estimate_index(sample) == pytest.approx(num / den, abs=1e-12)

    def test_estimate_is_deterministic(self):
        assert estimate_index(_sample(seed=33)) == estimate_index(_sample(seed=33))

    def test_degenerate_guard(self):
        sample = _sample("constant", n=100, seed=6)
        with pytest.raises(DegenerateSampleError):
            estimate_index(sample)

    def test_outputs_too_large_to_square_are_rejected(self):
        # finite outputs whose squares overflow: an error, not an inf or nan estimate
        big = np.array([[1e300, 1e300], [-1e300, -1e300]])
        with pytest.raises(DegenerateSampleError, match="overflow"):
            estimate_index(PickFreezeSample(big, -big))

    def test_non_finite_output_row_is_named(self):
        y = np.arange(10.0).reshape(5, 2)
        y_u = y[::-1].copy()
        y_u[2, 1] = np.nan
        y[3, 0] = np.inf
        with pytest.raises(DegenerateSampleError, match="output row 3 is not finite"):
            estimate_index(PickFreezeSample(y, y_u))

    def test_small_variance_model_is_not_rejected(self):
        model = linear_model(1e-8 * np.eye(2))
        sample = evaluate_pairs(model, generate_design(model.space(), U1, 1000, 7))
        assert estimate_index(sample) == pytest.approx(0.5, abs=0.1)

    def test_finite_sample_range(self):
        for name in ("identity_2", "sum_prod"):
            for seed in range(10):
                value = estimate_index(_sample(name, n=1000, seed=seed))
                assert -0.05 <= value <= 1.05
            assert 0.0 <= estimate_index(_sample(name, n=100_000, seed=99)) <= 1.0

    def test_consistency_against_oracle(self):
        # estimate within five delta-method standard errors of the exact value
        cases = [("identity_2", 0.5), ("sum_prod", 15 / 31)]
        n = 2000
        for name, target in cases:
            model = get_model(name)
            for seed in range(50):
                sample = evaluate_pairs(model, generate_design(model.space(), U1, n, seed))
                err = abs(estimate_index(sample) - target)
                assert err <= 5.0 * np.sqrt(delta_variance(sample) / n)


class TestEmpiricalCovariances:
    """The plug-in matrices sample.moments.total and .subset."""

    def test_trace_ratio_is_bit_identical(self):
        for seed in range(5):
            sample = _sample("sum_prod", n=777, seed=seed)
            emp = sample.moments
            assert np.trace(emp.subset) / np.trace(emp.total) == estimate_index(sample)

    def test_coincident_pairs_give_equal_matrices(self):
        sample = _sample("u_only", n=500, seed=3, dims=2, coords=(0,))
        emp = sample.moments
        assert np.array_equal(emp.subset, emp.total)

    def test_matrices_are_symmetric(self):
        emp = _sample("sum_prod", n=999, seed=2).moments
        assert np.array_equal(emp.total, emp.total.T)
        assert np.array_equal(emp.subset, emp.subset.T)

    def test_normalized_cross_matrix_converges(self):
        sample = _sample(n=1_000_000, seed=10)
        emp = sample.moments
        assert np.max(np.abs(emp.subset / sample.n - np.diag([1.0, 0.0]))) < 0.01


class TestGeneralWeighting:
    def test_identity_weighting_is_exact_reduction(self):
        sample = _sample("sum_prod", n=1234, seed=4)
        assert estimate_index_general(sample, np.eye(2)) == estimate_index(sample)

    def test_diagonal_weighting_converges(self):
        sample = _sample(n=1_000_000, seed=14)
        m = np.diag([1.0, 2.0])
        assert estimate_index_general(sample, m) == pytest.approx(1 / 3, abs=0.01)
        swapped = sample.left_compose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert estimate_index_general(swapped, m) == pytest.approx(2 / 3, abs=0.01)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_matrix_is_rejected(self, bad):
        m = np.eye(2)
        m[0, 1] = bad
        with pytest.raises(ContractError, match="weight matrix must be finite"):
            estimate_index_general(_sample(n=100, seed=4), m)

    def test_near_zero_weighted_denominator(self):
        sample = _sample(n=100, seed=4)
        with pytest.raises(IllPosedIndexError):
            estimate_index_general(sample, np.zeros((2, 2)))

    def test_weight_scale_moves_no_bit(self):
        # M is scaled by a power of two before any trace, so no finite M over-
        # or underflows and the estimate at 2^1020 M or 2^-1000 M is M's
        sample = _sample("sum_prod", n=1000, seed=5)
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(2, 2))
            m = a @ a.T + np.eye(2)
            value = estimate_index_general(sample, m)
            for power in (1020, -1000):
                assert estimate_index_general(sample, np.ldexp(m, power)) == value


class TestSampleInvariances:
    def test_isometry_invariance(self):
        rng = np.random.default_rng(21)
        sample = _sample("sum_prod", n=3000, seed=16)
        base = estimate_index(sample)
        for _ in range(50):
            q = _random_orthogonal(rng, 2)
            assert abs(estimate_index(sample.left_compose(q)) - base) < 1e-10

    def test_homothety_invariance(self):
        sample = _sample("sum_prod", n=3000, seed=16)
        base = estimate_index(sample)
        for lam in np.linspace(-5.0, 5.0, 21):
            if lam == 0.0:
                continue
            scaled = PickFreezeSample(lam * sample.y, lam * sample.y_u, sample.subset)
            assert abs(estimate_index(scaled) - base) < 1e-12

    def test_weighted_transformation_rule(self):
        rng = np.random.default_rng(23)
        sample = _sample("sum_prod", n=2000, seed=18)
        for _ in range(30):
            o = rng.normal(size=(2, 2))
            m = rng.normal(size=(2, 2))
            m = m + m.T
            lhs = estimate_index_general(sample.left_compose(o), m)
            rhs = estimate_index_general(sample, o.T @ m @ o)
            assert abs(lhs - rhs) < 1e-10


class TestTranslationInvariance:
    # A common offset of the outputs leaves the index unchanged. The offset
    # outputs are rounded to the offset's ulp (1.5e-8 sd at 1e8 sd), which
    # moves the index by about 1e-8/sqrt(n); the estimator adds nothing.
    # The shift is the first block's pair mean, so samples of one block and
    # more are drawn, and rows sorted by the first output put an atypical
    # block first.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([4000, 4097, 9001]),
        k=st.integers(1, 4),
        log_sd=st.floats(-6.0, 6.0),
        log_offset=st.floats(0.0, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
        sort=st.booleans(),
    )
    def test_offset_drift_is_negligible(self, seed, n, k, log_sd, log_offset, sign, sort):
        rng = np.random.default_rng(seed)
        sd = 10.0**log_sd
        y = sd * rng.standard_normal((n, k))
        y_u = 0.5 * y + np.sqrt(0.75) * sd * rng.standard_normal((n, k))
        offset = sign * sd * 10.0**log_offset * rng.uniform(0.5, 1.0, size=k)
        base = estimate_index(PickFreezeSample(y, y_u))
        rows = np.argsort(y[:, 0], kind="stable") if sort else slice(None)
        moved = estimate_index(PickFreezeSample(y[rows] + offset, y_u[rows] + offset))
        assert abs(moved - base) <= 1e-9

    def test_shift_is_fixed_by_the_first_block(self):
        rng = np.random.default_rng(8)
        first = rng.standard_normal((2, pickfreeze._BLOCK_ROWS, 3)) + 1e3
        shifts = []
        for tail_rows, scale in ((0, 1.0), (5000, 1e4)):
            tail = scale * rng.standard_normal((2, tail_rows, 3))
            y, y_u = np.concatenate([first, tail], axis=1)
            shifts.append(PickFreezeSample(y, y_u).moments.shift)
        assert shifts[0].tobytes() == shifts[1].tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(1, 5),
        log_sd=st.floats(-6.0, 6.0),
        log_offset=st.floats(0.0, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_coincident_pairs_are_exactly_one(self, seed, n, k, log_sd, log_offset, sign):
        rng = np.random.default_rng(seed)
        sd = 10.0**log_sd
        y = sd * rng.standard_normal((n, k)) + sign * sd * 10.0**log_offset
        sample = PickFreezeSample(y, y)
        assert estimate_index(sample) == 1.0
        emp = sample.moments
        assert np.array_equal(emp.subset, emp.total)


class TestSampleCache:
    def test_sample_is_immutable_and_reduced_once(self):
        y = np.arange(20.0).reshape(10, 2)
        sample = PickFreezeSample(y, y[::-1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.y = sample.y_u
        with pytest.raises(ValueError):
            sample.y[0, 0] = 1.0
        assert sample.moments is sample.moments
        with pytest.raises(ValueError):
            sample.moments.total[0, 0] = 1.0
        # the sample holds copies, so changing the source leaves the cache valid
        y[:] = 0.0
        assert estimate_index(sample) == estimate_index(PickFreezeSample(sample.y, sample.y_u))


class TestSampleOwnership:
    def test_constructor_copies_a_read_only_array(self):
        # the owner of a read-only array may make it writeable again
        rng = np.random.default_rng(3)
        y, y_u = rng.standard_normal((50, 2)), rng.standard_normal((50, 2))
        kept = (y.copy(), y_u.copy())
        y.flags.writeable = y_u.flags.writeable = False
        sample = PickFreezeSample(y, y_u)
        y.flags.writeable = y_u.flags.writeable = True
        y[:] = 0.0
        y_u[:] = 1.0
        assert np.array_equal(sample.y, kept[0]) and np.array_equal(sample.y_u, kept[1])

    def test_internal_samples_are_read_only(self, tmp_path):
        sample = _sample("sum_prod", n=64, seed=20)
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, str(path))
        for built in (sample, sample.left_compose(np.eye(2)), read_sample_csv(str(path))):
            assert not built.y.flags.writeable and not built.y_u.flags.writeable

    def test_a_model_returning_its_input_is_copied(self):
        model = VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=lambda x: x)
        design = generate_design(InputSpace.uniform(2), U1, 50, 4)
        sample = evaluate_pairs(model, design)
        assert np.array_equal(sample.y, design.x)
        assert not np.may_share_memory(sample.y, design.x)

    def test_evaluate_pairs_holds_no_copy_of_either_output(self):
        # the sample takes the two chunked outputs without copying them: the
        # peak stays below the two outputs and a whole mixed input matrix
        n, k, p = 200_000, 4, 6
        model = linear_model(np.random.default_rng(5).standard_normal((k, p)))
        design = generate_design(model.space(), SubsetIndex((0,), p), n, 3)
        tracemalloc.start()
        try:
            evaluate_pairs(model, design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (2 * k + p) + 2**20


class TestFrozenMix:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_column_assignment(self, data):
        p = data.draw(st.integers(1, 8))
        indices = data.draw(st.lists(st.integers(0, p - 1), min_size=1, unique=True))
        subset = SubsetIndex(tuple(indices), p)
        n = data.draw(st.integers(1, 30))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.standard_normal((n, p))
        x_prime = rng.standard_normal((n, len(subset.complement)))
        expected = x.copy()
        comp = list(subset.complement)
        if comp:
            expected[:, comp] = x_prime
        got = _frozen_mix(x, x_prime, subset.complement, list(range(len(subset.complement))))
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    def test_design_second_block_keeps_the_subset_columns(self):
        subset = SubsetIndex((1, 3), 5)
        design = generate_design(InputSpace.uniform(5), subset, 50, 4)
        x_u = design.x_u(subset)
        assert np.array_equal(x_u[:, [1, 3]], design.x[:, [1, 3]])
        assert np.array_equal(x_u[:, [0, 2, 4]], design.x_prime)
        assert not np.array_equal(x_u[:, [0, 2, 4]], design.x[:, [0, 2, 4]])


class TestSharedDesign:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_second_blocks_match_column_assignment(self, data):
        # in the design's column-major layout and on C-ordered copies alike
        p = data.draw(st.integers(1, 8))
        groups = st.lists(st.integers(0, p - 1), min_size=1, unique=True)
        subsets = [SubsetIndex(tuple(g), p) for g in data.draw(st.lists(groups, min_size=1, max_size=4))]
        n = data.draw(st.integers(2, 40))
        design = generate_design(InputSpace.uniform(p), subsets, n, data.draw(st.integers(0, 2**32 - 1)))
        assert design.redrawn == tuple(sorted(set().union(*(u.complement for u in subsets))))
        assert design.x.T.flags.c_contiguous and design.x_prime.T.flags.c_contiguous
        c_x, c_prime = np.ascontiguousarray(design.x), np.ascontiguousarray(design.x_prime)
        for u in subsets:
            columns = [design.redrawn.index(j) for j in u.complement]
            expected = design.x.copy()
            expected[:, list(u.complement)] = design.x_prime[:, columns]
            x_u = design.x_u(u)
            assert x_u.T.flags.c_contiguous and x_u.tobytes() == expected.tobytes()
            assert _frozen_mix(c_x, c_prime, u.complement, columns).tobytes() == expected.tobytes()
            view = design.design(u)
            assert view.subsets == (u,)
            assert view.x is design.x and view.x_u(u).tobytes() == expected.tobytes()

    def test_one_group_holds_the_bytes_of_its_design(self):
        u = SubsetIndex((1, 3), 5)
        one = generate_design(InputSpace.uniform(5), u, 50, 4)
        shared = generate_design(InputSpace.uniform(5), [u], 50, 4)
        assert one.subsets == shared.subsets == (u,)
        assert one.x.tobytes() == shared.x.tobytes()
        assert one.x_prime.tobytes() == shared.x_prime.tobytes()

    def test_samples_share_one_base_output(self):
        model = get_model("sum_prod")
        subsets = [U1, SubsetIndex((1,), 2), SubsetIndex((0, 1), 2)]
        design = generate_design(model.space(), subsets, 100, 6)
        samples = list(evaluate_shared(model, design))
        assert [s.subset for s in samples] == subsets
        assert all(s.y is samples[0].y for s in samples)
        for u, sample in zip(subsets, samples):
            assert np.array_equal(sample.y_u, model.evaluate(design.x_u(u)))
        assert estimate_index(samples[2]) == 1.0

    def test_one_second_block_is_alive_at_a_time(self):
        # while a group is evaluated, memory holds at most the shared output and
        # this group's second block and output; the previous group's sample is gone
        n, k, p = 200_000, 4, 6
        model = linear_model(np.random.default_rng(5).standard_normal((k, p)))
        design = generate_design(model.space(), [SubsetIndex((j,), p) for j in range(p)], n, 3)
        tracemalloc.start()
        try:
            for sample in evaluate_shared(model, design):
                del sample
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (2 * k + p) + 2**20

    def test_contracts(self):
        with pytest.raises(ContractError, match="at least one subset"):
            generate_design(InputSpace.uniform(2), [], 10, 3)
        with pytest.raises(ContractError):
            generate_design(InputSpace.uniform(3), [SubsetIndex((0,), 3), U1], 10, 3)
        design = generate_design(InputSpace.uniform(2), [U1], 10, 3)
        with pytest.raises(ContractError):
            next(evaluate_shared(get_model("u_only", dims=3), design))
        with pytest.raises(ContractError, match=r"subset \[2\] frees inputs"):
            design.x_u(SubsetIndex((1,), 2))


CHUNK = pickfreeze._EVAL_ROWS


def _column_major(rng, n, p):
    return rng.standard_normal((p, n)).T


class TestChunkedEvaluation:
    """evaluate_shared evaluates in row chunks; the samples are the whole-block evaluation's."""

    MODELS = ("linear", "sum_prod", "transformed", "external", "identity")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_samples_equal_whole_block_evaluation(self, data, tmp_path_factory):
        kind = data.draw(st.sampled_from(self.MODELS))
        n = data.draw(st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]))
        p = 2 if kind in ("sum_prod", "transformed", "external") else data.draw(st.integers(1, 6))
        groups = st.lists(st.integers(0, p - 1), min_size=1, unique=True)
        subsets = [SubsetIndex(tuple(g), p) for g in data.draw(st.lists(groups, min_size=1, max_size=3))]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        redrawn = set().union(*(u.complement for u in subsets))
        design = SharedDesign(
            x=_column_major(rng, n, p), x_prime=_column_major(rng, n, len(redrawn)), subsets=tuple(subsets)
        )
        if kind == "linear":
            model = linear_model(rng.standard_normal((data.draw(st.integers(1, 4)), p)))
        elif kind == "sum_prod":
            model = get_model("sum_prod")
        elif kind == "transformed":
            model = apply_transform(get_model("sum_prod"), rng.standard_normal((2, 2)))
        elif kind == "external":
            x = np.vstack([design.x] + [design.x_u(u) for u in subsets])
            path = tmp_path_factory.mktemp("table") / "table.csv"
            table = np.hstack([x, get_model("sum_prod").evaluate(x)])
            np.savetxt(path, table, fmt="%.17g", delimiter=",", header="x1,x2,y1,y2", comments="")
            model = load_external_model(str(path))
        else:
            model = VectorModel(in_dims=p, out_dims=p, kind="builtin", eval_fn=lambda x: x)
        y = model.evaluate(design.x)
        samples = list(evaluate_shared(model, design))
        assert [s.subset for s in samples] == subsets
        for u, sample in zip(subsets, samples):
            y_u = model.evaluate(design.x_u(u))
            assert sample.y.shape == y.shape and sample.y.tobytes() == y.tobytes()
            assert sample.y_u.shape == y_u.shape and sample.y_u.tobytes() == y_u.tobytes()
            if kind == "identity":
                for out in (sample.y, sample.y_u):
                    assert not any(np.may_share_memory(out, a) for a in (design.x, design.x_prime))

    def test_no_whole_second_block_is_built(self):
        # memory holds the shared output, one group's output and one chunk of
        # inputs and outputs; a whole second block would add 8 * n * p bytes
        n, k, p = 200_000, 4, 6
        model = linear_model(np.random.default_rng(5).standard_normal((k, p)))
        design = generate_design(model.space(), [SubsetIndex((j,), p) for j in range(p)], n, 3)
        tracemalloc.start()
        try:
            for sample in evaluate_shared(model, design):
                del sample
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 2 * k + 2 * 2**20


class TestBlockedKernel:
    BLOCK_ROWS = (1, 7, 4096)

    def _fresh(self, sample):
        return PickFreezeSample(sample.y, sample.y_u)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_block_size_moves_results_by_ulps_only(self, monkeypatch, offset):
        n = 5003  # a multiple of none of the block sizes
        model = linear_model(np.array([[1.0, 0.5, -2.0, 0.3], [0.0, 3.0, 1.0, -1.0], [2.0, -1.0, 0.5, 0.0]]))
        base = evaluate_pairs(model, generate_design(model.space(), SubsetIndex((1,), 4), n, 3))
        sample = PickFreezeSample(base.y + offset, base.y_u + offset)
        m = np.diag([1.0, 2.0, 3.0])
        results = {}
        for rows in self.BLOCK_ROWS + (n,):
            monkeypatch.setattr(pickfreeze, "_BLOCK_ROWS", rows)
            fresh = self._fresh(sample)
            emp = fresh.moments
            results[rows] = (
                np.array([estimate_index(fresh), estimate_index_general(fresh, m), delta_variance(fresh)]),
                emp.total,
                emp.subset,
            )
        ref = results[n]
        for got in results.values():
            for a, b in zip(got, ref):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    def test_exact_results_at_every_block_size(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = 9001
        y = rng.standard_normal((n, 3)) + 1e4
        y_u = 0.5 * y + rng.standard_normal((n, 3))
        for rows in self.BLOCK_ROWS:
            monkeypatch.setattr(pickfreeze, "_BLOCK_ROWS", rows)
            coincident = PickFreezeSample(y, y)
            assert estimate_index(coincident) == 1.0
            assert delta_variance(coincident) == 0.0
            emp = coincident.moments
            assert np.array_equal(emp.total, emp.subset) and np.array_equal(emp.total, emp.total.T)
            sample = PickFreezeSample(y, y_u)
            assert estimate_index_general(sample, np.eye(3)) == estimate_index(sample)

    def test_moments_do_not_depend_on_the_memory_layout(self):
        # read_sample_csv gives column views of one table; others hold C- or
        # Fortran-ordered arrays
        rng = np.random.default_rng(5)
        data = rng.standard_normal((9001, 6)) + 1e3
        y, y_u = data[:, :3], data[:, 3:]
        layouts = [
            PickFreezeSample._adopt(y, y_u, None),
            PickFreezeSample(y, y_u),
            PickFreezeSample._adopt(np.asfortranarray(y), np.asfortranarray(y_u), None),
        ]
        ref, *others = [dataclasses.astuple(sample.moments) for sample in layouts]
        for got in others:
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes() for a, b in zip(got, ref))

    def test_reduction_memory_does_not_grow_with_n(self):
        # the kernel holds a few block buffers; no n-by-k temporary
        rng = np.random.default_rng(6)
        peaks = []
        for n in (50_000, 200_000):
            sample = PickFreezeSample(rng.standard_normal((n, 4)), rng.standard_normal((n, 4)))
            tracemalloc.start()
            try:
                estimate_index(sample)
                delta_variance(sample)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] < 2**20
        assert peaks[1] <= peaks[0] + 1024


def _reference_pair_table(sample):
    """pair_table as first written, with s and d of its own and |s|^2, |d|^2
    summed by a product with a vector of quarters."""
    shift = sample.moments.shift
    s = sample.y - shift
    d = sample.y_u - shift
    s += d
    np.subtract(sample.y, sample.y_u, out=d)
    quarter = np.full(sample.out_dims, 0.25)
    table = np.empty((sample.n, sample.out_dims + 2))
    np.multiply(s, 0.5, out=table[:, 2:])
    table[:, 0] = np.square(s, out=s) @ quarter
    table[:, 1] = np.square(d, out=d) @ quarter
    return table


class TestPairTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 4095, 4096, 4097, 9001]),  # around the kernel's block size
        k=st.integers(1, 6),
        log_sd=st.floats(-6.0, 6.0),
        log_offset=st.floats(0.0, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_matches_the_formula_of_its_own(self, seed, n, k, log_sd, log_offset, sign):
        # the kernel's block step sums |s|^2 and |d|^2 over the outputs in
        # its own order, so entries may move by ulps, and h keeps its bits
        rng = np.random.default_rng(seed)
        sd = 10.0**log_sd
        y = sd * rng.standard_normal((n, k))
        y_u = 0.5 * y + sd * rng.standard_normal((n, k))
        offset = sign * sd * 10.0**log_offset * rng.uniform(0.5, 1.0, size=k)
        sample = PickFreezeSample(y + offset, y_u + offset)
        got, ref = pickfreeze.pair_table(sample), _reference_pair_table(sample)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        assert np.array_equal(got[:, 2:], ref[:, 2:])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([2, 4095, 4096, 4097, 9001]),  # around the kernel's block size
        k=st.integers(1, 6),
        log_sd=st.floats(-6.0, 6.0),
        log_offset=st.floats(0.0, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
        r=st.integers(1, 4),
        data=st.data(),
    )
    def test_is_written_by_the_moments_pass_into_any_slot(
            self, seed, n, k, log_sd, log_offset, sign, r, data):
        # the pass that writes the table caches the moments that an estimate
        # reduces on a fresh sample, and a slot of a replication study's
        # batch gets the bytes of a table of its own
        rng = np.random.default_rng(seed)
        sd = 10.0**log_sd
        y = sd * rng.standard_normal((n, k))
        y_u = 0.5 * y + sd * rng.standard_normal((n, k))
        offset = sign * sd * 10.0**log_offset * rng.uniform(0.5, 1.0, size=k)
        sample = PickFreezeSample(y + offset, y_u + offset)
        table = pickfreeze.pair_table(sample)
        fresh = PickFreezeSample(y + offset, y_u + offset)
        estimate_index(fresh)
        for got, ref in zip(dataclasses.astuple(sample.moments), dataclasses.astuple(fresh.moments)):
            assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
        batch = np.full((n, r, k + 2), np.nan)
        slot = data.draw(st.integers(0, r - 1))
        written = pickfreeze.pair_table(PickFreezeSample(y + offset, y_u + offset), batch[:, slot])
        assert np.shares_memory(written, batch)
        assert batch[:, slot].tobytes() == table.tobytes()
        assert np.isnan(np.delete(batch, slot, axis=1)).all()

    def test_a_slot_of_another_shape_is_refused(self):
        sample = _sample("sum_prod", n=100, seed=3)
        for shape in ((99, 4), (101, 4), (100, 3)):
            with pytest.raises(ContractError, match=r"^out must have shape \(100, 4\)"):
                pickfreeze.pair_table(sample, np.empty(shape))


class TestSampleCsv:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        sample = _sample("sum_prod", n=64, seed=20)
        path = tmp_path / "sample.csv"
        write_sample_csv(sample, str(path))
        assert path.read_text().splitlines()[0] == "y_1,y_2,yu_1,yu_2"
        loaded = read_sample_csv(str(path), subset=U1)
        assert np.array_equal(loaded.y, sample.y)
        assert np.array_equal(loaded.y_u, sample.y_u)
        assert estimate_index(loaded) == estimate_index(sample)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("u,v\n1,2\n")
        with pytest.raises(Exception):
            read_sample_csv(str(path))

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecsobol
from vecsobol import (
    ContractError,
    PickFreezeSample,
    SubsetIndex,
    VectorModel,
    bootstrap_ci,
    clt_diagnostic,
    delta_ci,
    delta_variance,
    estimate_index,
    evaluate_pairs,
    evaluate_shared,
    generate_design,
    get_model,
    linear_model,
)
from vecsobol import DegenerateSampleError, inference, pickfreeze
from vecsobol.inference import _bootstrap_block, _count_blocks, _resample
from vecsobol.pickfreeze import pair_table

U1 = SubsetIndex((0,), 2)
U2 = SubsetIndex((1,), 2)
W1 = SubsetIndex((0,), 64)  # subsets of a wide input
W2 = SubsetIndex((1,), 64)


def _sample(model_name="identity_2", n=2000, seed=8, **params):
    model = get_model(model_name, **params)
    return evaluate_pairs(model, generate_design(model.space(), U1, n, seed))


def _reference_delta_variance(sample):
    """The delta method as first written: grad^T Cov grad over the 3k
    statistics [y y_u, (y + y_u)/2, (y^2 + y_u^2)/2] of the raw outputs."""
    y, y_u = sample.y, sample.y_u
    k = y.shape[1]
    t = np.hstack([y * y_u, 0.5 * (y + y_u), 0.5 * (y * y + y_u * y_u)])
    a, b, d = np.split(t.mean(axis=0), 3)
    denom = np.sum(d - b * b)
    value = np.sum(a - b * b) / denom
    grad = np.concatenate([np.full(k, 1.0), -2.0 * b * (1.0 - value), np.full(k, -value)]) / denom
    return float(grad @ np.cov(t, rowvar=False, ddof=0) @ grad)


def _projection_delta_variance(sample):
    """The delta method as a projection: the variance of pair_table(sample) @ grad."""
    value = estimate_index(sample)
    denom = float(np.trace(sample.moments.total)) / sample.n
    grad = np.concatenate([[1.0 - value, -(1.0 + value)], -2.0 * (1.0 - value) * sample.moments.mean])
    return float(np.var(pair_table(sample) @ (grad / denom)))


def _resample_alone(sample, blocks):
    """_resample of one sample (r = 1), as a vector of b_reps estimator values."""
    return _resample(pair_table(sample)[:, None], np.array([sample.moments.floor]), blocks).ravel()


def _index_blocks(n, b_reps, seed):
    """b_reps resamples of n pair indices from seed's Philox stream, in blocks
    of _bootstrap_block(n) resamples."""
    rng = np.random.Generator(np.random.Philox(seed))
    block = _bootstrap_block(n)
    return [rng.integers(0, n, size=(min(block, b_reps - start), n))
            for start in range(0, b_reps, block)]


def _reference_bootstrap(sample, index_blocks):
    """The bootstrap as first written: gather the resampled pairs, then reduce
    each replicate with einsum."""
    y, y_u, n = sample.y, sample.y_u, sample.n
    out = []
    for idx in index_blocks:
        ry, ryu = y[idx], y_u[idx]
        m = (ry + ryu).sum(axis=1) / (2.0 * n)
        centering = n * (m * m).sum(axis=1)
        num = np.einsum("bnk,bnk->b", ry, ryu) - centering
        den = 0.5 * (np.einsum("bnk,bnk->b", ry, ry) + np.einsum("bnk,bnk->b", ryu, ryu))
        out.append(num / (den - centering))
    return np.concatenate(out)


def _samples_for_reference():
    yield _sample("identity_2", n=2000, seed=3)
    yield _sample("sum_prod", n=3000, seed=4)
    model = linear_model(np.array([[1.0, 0.5, -2.0], [0.0, 3.0, 1.0], [2.0, -1.0, 0.5]]))
    subset = SubsetIndex((1,), 3)
    yield evaluate_pairs(model, generate_design(model.space(), subset, 2500, 5))


class TestAgainstReferenceAlgebra:
    def test_delta_variance_matches_covariance_form(self):
        for sample in _samples_for_reference():
            ref = _reference_delta_variance(sample)
            assert abs(delta_variance(sample) - ref) <= 1e-12 * ref

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 4),
        law=st.sampled_from(["normal", "uniform", "exponential"]),
        log_sd=st.floats(-6.0, 6.0),
        log_offset=st.floats(0.0, 8.0),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_delta_variance_matches_projection_form(self, seed, k, law, log_sd, log_offset, sign):
        rng = np.random.default_rng(seed)
        n, sd = 9001, 10.0**log_sd  # three blocks, the last partial
        draw = getattr(rng, "standard_normal" if law == "normal" else law)
        y = sd * draw(size=(n, k))
        y_u = 0.5 * y + sd * draw(size=(n, k))
        offset = sign * sd * 10.0**log_offset * rng.uniform(0.5, 1.0, size=k)
        sample = PickFreezeSample(y + offset, y_u + offset)
        ref = _projection_delta_variance(sample)
        assert abs(delta_variance(sample) - ref) <= 1e-12 * ref

    def test_bootstrap_replicates_match_gather_form(self):
        for sample in _samples_for_reference():
            b_reps = 2 * _bootstrap_block(sample.n) + 7  # three blocks, the last partial
            got = _resample_alone(sample, _count_blocks(sample.n, b_reps, 17))
            ref = _reference_bootstrap(sample, _index_blocks(sample.n, b_reps, 17))
            assert np.max(np.abs(got - ref)) <= 1e-12


class TestDeltaVariance:
    def test_constant_estimator_has_vanishing_variance(self):
        for n in (100, 10_000):
            assert delta_variance(_sample("u_only", n=n, seed=2)) <= 1e-12

    def test_matches_replication_spread(self):
        # replication oracle: N * Var over independent seeds vs the plug-in value
        model = get_model("identity_2")
        n = 2000
        root = np.random.SeedSequence(55)
        estimates = [
            estimate_index(evaluate_pairs(model, generate_design(model.space(), U1, n, child)))
            for child in root.spawn(1000)
        ]
        empirical = n * np.var(estimates, ddof=1)
        plug_in = delta_variance(_sample(n=n, seed=123))
        assert 0.8 <= empirical / plug_in <= 1.25

    def test_scale_invariance(self):
        sample = _sample(n=2000, seed=9)
        scaled = PickFreezeSample(3.0 * sample.y, 3.0 * sample.y_u, sample.subset)
        assert abs(delta_variance(scaled) - delta_variance(sample)) < 1e-10

    def test_minimum_size_contract(self):
        with pytest.raises(ContractError):
            delta_variance(_sample(n=5, seed=1))


class TestDeltaCi:
    def test_interval_brackets_the_estimate(self):
        est = delta_ci(_sample(n=2000, seed=3), level=0.95)
        assert est.ci_low <= est.value <= est.ci_high
        assert est.method == "delta" and est.n == 2000
        assert est.sigma2_hat >= 0.0

    def test_width_shrinks_like_root_n(self):
        model = get_model("identity_2")

        def mean_width(n, seed):
            root = np.random.SeedSequence(seed)
            widths = []
            for child in root.spawn(50):
                sample = evaluate_pairs(model, generate_design(model.space(), U1, n, child))
                est = delta_ci(sample)
                widths.append(est.ci_high - est.ci_low)
            return np.mean(widths)

        ratio = mean_width(1000, 42) / mean_width(4000, 43)
        assert 1.7 <= ratio <= 2.3

    def test_level_contract(self):
        with pytest.raises(ContractError):
            delta_ci(_sample(n=100, seed=1), level=1.5)


class TestBootstrapCi:
    def test_determinism(self):
        sample = _sample(n=500, seed=4)
        a = bootstrap_ci(sample, 300, 0.95, seed=77)
        b = bootstrap_ci(sample, 300, 0.95, seed=77)
        assert (a.ci_low, a.ci_high, a.sigma2_hat) == (b.ci_low, b.ci_high, b.sigma2_hat)

    def test_collapses_for_constant_estimator(self):
        sample = _sample("u_only", n=300, seed=5)
        est = bootstrap_ci(sample, 250, 0.95, seed=1)
        assert est.ci_low == 1.0 and est.ci_high == 1.0

    def test_interval_contains_truth_typically(self):
        est = bootstrap_ci(_sample(n=4000, seed=6), 500, 0.95, seed=2)
        assert est.ci_low <= 0.5 <= est.ci_high
        assert est.method == "bootstrap" and est.b_reps == 500

    def test_minimum_replicates_contract(self):
        with pytest.raises(ContractError):
            bootstrap_ci(_sample(n=100, seed=1), 100, 0.95, seed=1)

    def test_replicate_count_is_checked_before_the_estimate(self):
        # a constant sample's estimate raises, so the count is checked first
        flat = PickFreezeSample(np.ones((300, 2)), np.ones((300, 2)))
        for b_reps in (200.5, True, "200", float("nan")):
            with pytest.raises(ContractError, match="b_reps must be an integer"):
                bootstrap_ci(flat, b_reps, 0.95, seed=1)
        sample = _sample(n=500, seed=4)
        a = bootstrap_ci(sample, 300, 0.95, seed=77)
        for b_reps in (300.0, np.int64(300), np.float32(300.0)):
            b = bootstrap_ci(sample, b_reps, 0.95, seed=77)
            assert (a.ci_low, a.ci_high, a.sigma2_hat) == (b.ci_low, b.ci_high, b.sigma2_hat)
            assert b.b_reps == 300

    def test_too_few_distinct_pairs_raise(self):
        # three coincident pairs: a resample that draws one of them three
        # times has a zero denominator, and there is no estimate to report
        y = np.array([[1.0, 2.0], [3.0, 1.0], [0.5, 4.0]])
        sample = PickFreezeSample(y, y)
        assert estimate_index(sample) == 1.0
        with pytest.raises(DegenerateSampleError, match="too few distinct pairs to bootstrap"):
            bootstrap_ci(sample, 200, 0.95, seed=1)

    @pytest.mark.parametrize("n", [2000, 3001])
    def test_block_size_moves_replicates_by_ulps_only(self, monkeypatch, n):
        sample = _sample("sum_prod", n=n, seed=9)
        b_reps = 200
        reps = {}
        for block in (1, 7, _bootstrap_block(n), b_reps):
            monkeypatch.setattr(inference, "_bootstrap_block", lambda n, block=block: block)
            reps[block] = _resample_alone(sample, _count_blocks(n, b_reps, 5))
        for got in reps.values():
            assert np.max(np.abs(got - reps[1]) / np.abs(reps[1])) <= 1e-13

    @pytest.mark.parametrize("r", [1, 7, "batch"])
    def test_stacked_samples_resample_as_each_alone(self, r):
        # a replication study's batch: 16 sum_prod tables at n = 2000
        n, b_reps = 2000, 200
        r = inference._BOOTSTRAP_BLOCK_BYTES // (8 * n * 4) if r == "batch" else r
        samples = [_sample("sum_prod", n=n, seed=seed) for seed in range(r)]
        tables = np.stack([pair_table(sample) for sample in samples], axis=1)
        floors = np.array([sample.moments.floor for sample in samples])
        blocks = list(_count_blocks(n, b_reps, 5))
        stacked = _resample(tables, floors, blocks)
        alone = np.stack([_resample_alone(sample, blocks) for sample in samples], axis=1)
        assert stacked.shape == (b_reps, r)
        assert np.max(np.abs(stacked - alone) / np.abs(alone)) <= 1e-13
        if r == 1:
            assert stacked.tobytes() == alone.tobytes()
        # the study resamples a partial batch as the first r slots of its array
        batch = np.zeros((n, r + 3, 4))
        batch[:, :r] = tables
        assert _resample(batch[:, :r], floors, blocks).tobytes() == stacked.tobytes()
        levels = [0.025, 0.975]
        together = np.quantile(stacked, levels, axis=0)
        for i in range(r):
            assert together[:, i].tobytes() == np.quantile(stacked[:, i], levels).tobytes()

    @pytest.mark.parametrize("n", [2000, 4097, 6000, 10_000])
    def test_a_held_pattern_resamples_a_batch_as_its_blocks_do(self, n):
        # a study holds its pattern as one (b_reps, n) array and makes one
        # product per row chunk; OpenBLAS may sum a 200-row product in another
        # order than its 4- to 21-row blocks (bits moved at n = 6000, 10^4)
        b_reps, r = 200, inference._BOOTSTRAP_BLOCK_BYTES // (8 * n * 4)  # a study's batch
        samples = [_sample("sum_prod", n=n, seed=seed) for seed in range(r)]
        tables = np.stack([pair_table(sample) for sample in samples], axis=1)
        floors = np.array([sample.moments.floor for sample in samples])
        blocks = list(_count_blocks(n, b_reps, 5))
        assert len(blocks) > 1
        blocked = _resample(tables, floors, blocks)
        held = _resample(tables, floors, [np.concatenate(blocks)])
        assert held.shape == blocked.shape == (b_reps, r)
        assert np.max(np.abs(held - blocked) / np.abs(blocked)) <= 1e-14

    def test_each_stacked_sample_has_its_own_floor(self):
        # a sample scaled by 1e-9 resamples alongside its original, whose
        # floor is 1e18 times its own; one with a single distinct pair among
        # 2000 coincident ones raises wherever it sits in the stack
        sample = _sample("sum_prod", n=2000, seed=3)
        small = PickFreezeSample(1e-9 * sample.y, 1e-9 * sample.y_u)
        y = np.ones((2000, 2))
        y[0] = 2.0
        flat = PickFreezeSample(y, y)
        blocks = list(_count_blocks(2000, 200, 5))

        def stacked(*samples):
            tables = np.stack([pair_table(s) for s in samples], axis=1)
            return _resample(tables, np.array([s.moments.floor for s in samples]), blocks)

        assert np.isfinite(stacked(sample, small)).all()
        for samples in ((sample, flat), (flat, sample)):
            with pytest.raises(DegenerateSampleError, match="too few distinct pairs"):
                stacked(*samples)

    def test_peak_memory_fits_the_block_budget(self):
        # a block of replicates is sized to stay in a core's L2 cache; a
        # 16 MiB budget, one block of 200 replicates here, peaked at 6.5 MB
        sample = _sample(n=2000, seed=7)
        tracemalloc.start()
        try:
            bootstrap_ci(sample, 200, 0.95, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_peak_memory_is_bounded(self):
        sample = _sample(n=100_000, seed=7)
        tracemalloc.start()
        try:
            bootstrap_ci(sample, 200, 0.95, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _one_shared_replicate(model, subsets, n):
    """One replicate of a delta study of subsets: one design over them,
    evaluated through evaluate_shared, each sample dropped after its interval."""
    for sample in evaluate_shared(model, generate_design(model.space(), subsets, n, 1)):
        delta_ci(sample)
        del sample


class TestCltDiagnostic:
    @pytest.mark.parametrize(
        "shape, subsets, targets",
        [((8, 2), U1, 0.5), ((8, 2), [U1, U2], [0.5, 0.5]),
         ((1, 64), W1, 0.5), ((1, 64), [W1, W2], [0.5, 0.5])],
        ids=["s1", "s2", "wide_s1", "wide_s2"],
    )
    def test_delta_study_holds_one_replicate_at_a_time(self, shape, subsets, targets):
        # a study that kept a replicate's sample while evaluating the next
        # one, or the next subset's, would peak a whole sample (2 n k floats)
        # above one replicate of one subset; one that kept a replicate's
        # design while drawing the next would peak a design, n (p + redrawn)
        # floats, above one replicate of the same subsets, which a wide
        # input with one output shows
        model = linear_model(np.random.default_rng(0).normal(size=shape))
        study = dict(model=model, space=model.space(), subset=subsets, target=targets)
        clt_diagnostic(n_per_rep=20, reps=200, seed=2, **study)  # fills imports and caches untraced
        if shape[0] == 1:  # wide
            n = 2000
            design = generate_design(model.space(), subsets, n, 1)
            slack = 0.25 * (design.x.nbytes + design.x_prime.nbytes)  # n (p + redrawn) floats
            del design
            one = _traced_peak(lambda: _one_shared_replicate(model, subsets, n))
        else:
            n = 10_000
            slack = 0.5 * (2 * n * 8 * 8)
            one = _traced_peak(
                lambda: delta_ci(evaluate_pairs(model, generate_design(model.space(), U1, n, 1))))
        whole = _traced_peak(lambda: clt_diagnostic(n_per_rep=n, reps=200, seed=1, **study))
        assert whole < one + slack

    def test_report_fields_and_normality(self):
        model = get_model("identity_2")
        rep = clt_diagnostic(model, model.space(), U1, 500, 250, target=0.5, seed=31)
        assert rep.reps == 250 and rep.n_per_rep == 500
        assert len(rep.estimates) == 250
        assert rep.normality_stat < 0.15
        assert 0.85 <= rep.coverage <= 1.0
        assert np.isfinite(rep.std_empirical)

    def test_mean_is_near_target(self):
        model = get_model("identity_2")
        rep = clt_diagnostic(model, model.space(), U1, 1000, 300, target=0.5, seed=37)
        stderr = rep.std_empirical / np.sqrt(rep.reps)
        assert abs(np.mean(rep.estimates) - rep.target) <= 3.0 * stderr

    def test_determinism(self):
        model = get_model("identity_2")
        a = clt_diagnostic(model, model.space(), U1, 300, 200, target=0.5, seed=41)
        b = clt_diagnostic(model, model.space(), U1, 300, 200, target=0.5, seed=41)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.coverage == b.coverage and a.normality_stat == b.normality_stat

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ci_level": 1.5}, "confidence level"),
            ({"ci_level": float("nan")}, "confidence level"),
            ({"ci_level": 0.0, "ci_method": "bootstrap"}, "confidence level"),
            ({"ci_method": "bootstrap", "b_reps": 100}, "b_reps must be >= 200"),
            ({"n_per_rep": 5}, "delta method's n must be >= 10"),
            ({"reps": 250.5}, "^reps must be an integer, got 250.5"),
            ({"reps": True}, "^reps must be an integer, got True"),
            ({"n_per_rep": 100.5}, "n_per_rep must be an integer, got 100.5"),
            ({"n_per_rep": "100", "ci_method": "bootstrap"}, "n_per_rep must be an integer"),
            ({"n_per_rep": 0, "ci_method": "bootstrap"}, "^n_per_rep must be >= 2, got 0"),
            ({"n_per_rep": -3, "ci_method": "bootstrap"}, "^n_per_rep must be >= 2, got -3"),
            ({"n_per_rep": 1, "ci_method": "bootstrap"}, "^n_per_rep must be >= 2, got 1"),
            ({"ci_method": "bootstrap", "b_reps": 200.5}, "b_reps must be an integer, got 200.5"),
            ({"ci_method": "bootstrap", "b_reps": float("inf")}, "b_reps must be an integer"),
        ],
    )
    def test_bad_interval_settings_fail_before_any_evaluation(self, kwargs, message):
        base = get_model("identity_2")
        rows = []

        def counting(x):
            rows.append(x.shape[0])
            return base.evaluate(x)

        model = VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=counting)
        study = dict(n_per_rep=100, reps=200, target=0.5, seed=1) | kwargs
        with pytest.raises(ContractError, match=message):
            clt_diagnostic(model, base.space(), U1, **study)
        assert rows == []

    def test_integral_counts_pass_as_ints(self):
        model = get_model("identity_2")
        study = dict(model=model, space=model.space(), subset=U1, target=0.5, seed=41,
                     ci_method="bootstrap")
        a = clt_diagnostic(n_per_rep=100, reps=200, b_reps=200, **study)
        b = clt_diagnostic(n_per_rep=100.0, reps=np.int64(200), b_reps=np.float64(200.0), **study)
        assert (type(b.n_per_rep), type(b.reps)) == (int, int)
        assert (b.n_per_rep, b.reps) == (100, 200)
        assert a.estimates.tobytes() == b.estimates.tobytes() and a.coverage == b.coverage

    def test_full_group_fails_before_any_evaluation(self):
        # its estimate is exactly 1 in every replicate, so there is no spread to study
        base = get_model("identity_2")
        rows = []

        def counting(x):
            rows.append(x.shape[0])
            return base.evaluate(x)

        model = VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=counting)
        with pytest.raises(ContractError, match="full group"):
            clt_diagnostic(model, base.space(), SubsetIndex((0, 1), 2), 100, 200, target=1.0, seed=1)
        assert rows == []

    def test_contracts(self):
        model = get_model("identity_2")
        with pytest.raises(ContractError):
            clt_diagnostic(model, model.space(), U1, 100, 50, target=0.5, seed=1)
        with pytest.raises(ContractError):
            clt_diagnostic(model, model.space(), U1, 100, 250, target=float("nan"), seed=1)
        with pytest.raises(ContractError):
            clt_diagnostic(model, model.space(), U1, 100, 250, target=0.5, seed=1, ci_method="x")


def _pattern(seed, n, b_reps):
    """A bootstrap study's resampling pattern, drawn as documented: index
    blocks from the Philox stream of the study seed's child tagged
    inference._PATTERN_STREAM_TAG."""
    root = np.random.SeedSequence(seed)
    tagged = np.random.SeedSequence(root.entropy, spawn_key=(inference._PATTERN_STREAM_TAG,))
    return _index_blocks(n, b_reps, tagged)


def _reference_shared_study(model, subsets, n_per_rep, reps, targets, seed, ci_method):
    """Estimates and coverages of a study over one or more subsets, written
    out: per replicate, one design over all of them from child.spawn(1)[0]
    evaluated by evaluate_shared; a bootstrap interval resamples every
    replicate, in gather form, with the study's one pattern."""
    pattern = _pattern(seed, n_per_rep, 200) if ci_method == "bootstrap" else None
    estimates, covered = np.empty((len(subsets), reps)), [0] * len(subsets)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        (design_ss,) = child.spawn(1)
        design = generate_design(model.space(), subsets, n_per_rep, design_ss)
        for j, sample in enumerate(evaluate_shared(model, design)):
            if ci_method == "delta":
                est = delta_ci(sample, 0.95)
                value, low, high = est.value, est.ci_low, est.ci_high
            else:
                value = estimate_index(sample)
                low, high = np.quantile(_reference_bootstrap(sample, pattern), [0.025, 0.975])
            estimates[j, i] = value
            covered[j] += low <= targets[j] <= high
    return estimates, [c / reps for c in covered]


class TestSharedDesignStudy:
    """A study of several subsets draws one design over all of them per
    replicate, as run() does, and reports on each subset."""

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("ci_method", ["delta", "bootstrap"])
    def test_reports_match_the_written_out_study(self, ci_method, s):
        model = get_model("sum_prod")
        subsets, targets = [U1, U2][:s], [15 / 31, 15 / 31][:s]
        reports = clt_diagnostic(model, model.space(), subsets, 100, 200, target=targets,
                                 seed=43, ci_method=ci_method)
        estimates, coverages = _reference_shared_study(model, subsets, 100, 200, targets, 43,
                                                       ci_method)
        assert len(reports) == s
        for rep, expected, coverage, target in zip(reports, estimates, coverages, targets):
            assert rep.estimates.tobytes() == expected.tobytes()
            assert rep.coverage == coverage
            assert (rep.target, rep.reps, rep.n_per_rep) == (target, 200, 100)

    def _held_and_redrawn(self, monkeypatch):
        """A 2-subset bootstrap study at n = 100, run with its pattern held and
        then with no budget, so that every batch redraws it; each of the
        two asserts its own pattern draws."""
        model = get_model("sum_prod")
        n, slots = 100, 2 * 200
        batch = inference._BOOTSTRAP_BLOCK_BYTES // (8 * n * 4)  # sum_prod tables
        draws, count_blocks = [], inference._count_blocks
        monkeypatch.setattr(inference, "_count_blocks",
                            lambda *args: draws.append(args) or count_blocks(*args))
        study = dict(model=model, space=model.space(), subset=[U1, U2], n_per_rep=n, reps=200,
                     target=[15 / 31, 15 / 31], seed=43, ci_method="bootstrap")
        held = clt_diagnostic(**study)
        assert len(draws) == 1
        monkeypatch.setattr(inference, "_PATTERN_BYTES", 0)
        redrawn = clt_diagnostic(**study)
        assert len(draws) == 1 + -(-slots // batch)  # 1 + the number of batches
        for a, b in zip(held, redrawn):
            assert a.estimates.tobytes() == b.estimates.tobytes()
            assert (a.coverage, a.normality_stat, a.std_empirical) == (
                b.coverage, b.normality_stat, b.std_empirical)

    @pytest.mark.parametrize("s", [1, 2])
    def test_a_bootstrap_study_reads_each_sample_once(self, monkeypatch, s):
        # the moments kernel writes a sample's pair table in the pass that
        # reduces it: R replicates of s subsets make R s passes over sample
        # rows, where a second block step for the table made 2 R s
        passes, row_blocks = [], pickfreeze._row_blocks
        monkeypatch.setattr(pickfreeze, "_row_blocks", lambda n: passes.append(n) or row_blocks(n))
        model = get_model("sum_prod")
        clt_diagnostic(model, model.space(), [U1, U2][:s], 100, 200, target=[15 / 31] * s,
                       seed=43, ci_method="bootstrap")
        assert passes == [100] * (200 * s)

    def test_a_held_pattern_and_a_redrawn_one_give_identical_reports(self, monkeypatch):
        self._held_and_redrawn(monkeypatch)

    def test_several_batches_and_a_partial_last_one_keep_held_and_redrawn_identical(
            self, monkeypatch):
        # a budget of 7 tables gives 58 batches of the 400 tables, the last of one
        monkeypatch.setattr(inference, "_BOOTSTRAP_BLOCK_BYTES", 7 * 8 * 100 * 4)
        self._held_and_redrawn(monkeypatch)

    def test_the_pattern_never_aliases_a_design(self):
        # a bootstrap study evaluates the designs of a delta study on its seed
        model = get_model("sum_prod")
        study = dict(model=model, space=model.space(), subset=[U1, U2], n_per_rep=100, reps=200,
                     target=[15 / 31, 15 / 31], seed=43)
        delta = clt_diagnostic(ci_method="delta", **study)
        boot = clt_diagnostic(ci_method="bootstrap", **study)
        for a, b in zip(delta, boot):
            assert a.estimates.tobytes() == b.estimates.tobytes()

    def test_a_one_subset_sequence_is_the_one_subset_study(self):
        model = get_model("identity_2")
        (listed,) = clt_diagnostic(model, model.space(), [U1], 100, 200, target=[0.5], seed=9)
        single = clt_diagnostic(model, model.space(), U1, 100, 200, target=0.5, seed=9)
        assert listed.estimates.tobytes() == single.estimates.tobytes()
        assert (listed.coverage, listed.normality_stat) == (single.coverage, single.normality_stat)

    @pytest.mark.parametrize(
        "subsets, targets",
        [([U1, U2], [0.5]), ([U1, U2], [0.5, 0.5, 0.5]), (U1, [0.5]), ([U1, U2], 0.5)],
        ids=["too few", "too many", "a list for one subset", "a float for a list"],
    )
    def test_one_target_per_subset(self, subsets, targets):
        base = get_model("identity_2")
        rows = []

        def counting(x):
            rows.append(x.shape[0])
            return base.evaluate(x)

        model = VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=counting)
        with pytest.raises(ContractError, match="one target for each"):
            clt_diagnostic(model, base.space(), subsets, 100, 200, target=targets, seed=1)
        assert rows == []


def _failing_model(replicate, constant=False):
    """identity_2, but the given replicate's evaluations raise, or return a
    constant when constant is set. A replicate evaluates twice."""
    base = get_model("identity_2")
    calls = []

    def evaluate(x):
        calls.append(None)
        if len(calls) in (2 * replicate + 1, 2 * replicate + 2):
            if constant:
                return np.ones((x.shape[0], 2))
            raise RuntimeError(f"model failed in replicate {replicate}")
        return base.evaluate(x)

    return VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=evaluate,
                       default_space=base.space())


class TestBootstrapStudyThreads:
    """A bootstrap study resamples on the calling thread, in replicate order."""

    @pytest.mark.parametrize("replicate", [0, 9])
    @pytest.mark.parametrize("constant", [False, True], ids=["raises", "degenerate"])
    def test_a_failing_replicate_raises_the_serial_error(self, replicate, constant):
        model = _failing_model(replicate, constant)
        error, message = ((DegenerateSampleError, "constant") if constant
                          else (RuntimeError, f"replicate {replicate}$"))
        with pytest.raises(error, match=message):
            clt_diagnostic(model, model.space(), U1, 200, 200, target=0.5, seed=5,
                           ci_method="bootstrap")

    def test_an_earlier_resampling_error_comes_first(self, monkeypatch):
        # replicate 6's resampling fails and replicate 7's model raises, both
        # in the first batch (163 tables at n = 200): the study raises
        # replicate 6's error
        assert inference._BOOTSTRAP_BLOCK_BYTES // (8 * 200 * 4) > 8
        resample, batches = inference._resample, []

        def failing(tables, *args):
            batches.append(tables.shape[1])
            if tables.shape[1] > 6:
                raise ArithmeticError("resampling failed in replicate 6")
            return resample(tables, *args)

        monkeypatch.setattr(inference, "_resample", failing)
        model = _failing_model(7)
        with pytest.raises(ArithmeticError, match="replicate 6"):
            clt_diagnostic(model, model.space(), U1, 200, 200, target=0.5, seed=5,
                           ci_method="bootstrap")
        assert batches == [7]  # replicates 0 to 6, resampled once

    @pytest.mark.parametrize("replicate", [0, 6])
    def test_a_partial_replicate_is_resampled_once_before_its_error_is_raised(self, monkeypatch,
                                                                              replicate):
        # a 2-subset study: subset 1 of the replicate fails to evaluate after
        # subset 0's table (sample 2r) entered the first batch, whose
        # resampling fails; the batch, samples 0 to 2r, is resampled once and
        # its error is the one raised
        assert inference._BOOTSTRAP_BLOCK_BYTES // (8 * 200 * 4) > 2 * replicate + 1
        base, calls = get_model("identity_2"), []

        def evaluate(x):
            calls.append(None)
            if len(calls) == 3 * replicate + 3:  # a replicate evaluates Y, then each subset's Y^u
                raise RuntimeError(f"subset 1 failed in replicate {replicate}")
            return base.evaluate(x)

        resample, batches = inference._resample, []

        def failing(tables, *args):
            batches.append(tables.shape[1])
            if tables.shape[1] > 2 * replicate:  # the batch holds sample 2r
                raise ArithmeticError("resampling failed")
            return resample(tables, *args)

        monkeypatch.setattr(inference, "_resample", failing)
        model = VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=evaluate,
                            default_space=base.space())
        with pytest.raises(ArithmeticError, match="resampling failed"):
            clt_diagnostic(model, model.space(), [U1, U2], 200, 200, target=[0.5, 0.5], seed=5,
                           ci_method="bootstrap")
        assert batches == [2 * replicate + 1]

    def test_resampling_runs_under_the_callers_numpy_error_state(self, monkeypatch):
        resample = inference._resample

        def dividing(*args):
            np.float64(1.0) / np.float64(0.0)
            return resample(*args)

        monkeypatch.setattr(inference, "_resample", dividing)
        model = get_model("identity_2")
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            clt_diagnostic(model, model.space(), U1, 100, 200, target=0.5, seed=3,
                           ci_method="bootstrap")

    def test_peak_memory_does_not_grow_with_the_replicates(self):
        # A study that held every sample (51 kB of outputs each at 64 outputs)
        # would grow by 10 MB from 200 to 400 replicates.
        model = linear_model(np.random.default_rng(0).normal(size=(64, 2)))
        study = dict(model=model, space=model.space(), subset=U1, target=0.5, seed=3,
                     ci_method="bootstrap")
        clt_diagnostic(n_per_rep=20, reps=200, **study)  # fills imports and caches untraced
        peaks = {}
        for reps in (200, 400):
            tracemalloc.start()
            try:
                clt_diagnostic(n_per_rep=50, reps=reps, **study)
                _, peaks[reps] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[400] - peaks[200] < 2 * inference._BOOTSTRAP_BLOCK_BYTES


class TestAgainstScipy:
    """scipy is the reference for the stdlib normal quantile and KS distance."""

    def test_delta_ci_half_width_uses_the_normal_quantile(self):
        from scipy import stats

        sample = _sample(n=3000)
        for level in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
            est = delta_ci(sample, level)
            half = stats.norm.ppf(0.5 + level / 2.0) * np.sqrt(est.sigma2_hat / sample.n)
            assert est.ci_high - est.ci_low == pytest.approx(2.0 * half, rel=1e-12)

    def test_normality_stat_is_the_ks_distance(self):
        from scipy import stats

        model = get_model("sum_prod")
        for seed in range(3):
            rep = clt_diagnostic(model, model.space(), U1, 200, 200, target=15 / 31, seed=seed)
            standardized = (rep.estimates - rep.estimates.mean()) / rep.std_empirical
            reference = stats.kstest(standardized, "norm").statistic
            # the two normal CDFs may differ by one ulp near 1 (2.2e-16)
            assert abs(rep.normality_stat - reference) <= 5e-16


def test_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    src = str(Path(vecsobol.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, threading\n"
        "threads = threading.active_count()\n"
        "import vecsobol, vecsobol.cli\n"
        "print(threading.active_count() == threads, 'concurrent.futures' in sys.modules)\n"
        "print('scipy.stats' in sys.modules)\n"
        "model = vecsobol.get_model('identity_2')\n"
        "u = vecsobol.SubsetIndex((0,), 2)\n"
        "sample = vecsobol.evaluate_pairs(model, vecsobol.generate_design(model.space(), u, 500, 1))\n"
        "vecsobol.delta_ci(sample, 0.9)\n"
        "vecsobol.clt_diagnostic(model, model.space(), u, 50, 200, target=0.5, seed=2)\n"
        "vecsobol.clt_diagnostic(model, model.space(), u, 50, 200, target=0.5, seed=2,\n"
        "                        ci_method='bootstrap')\n"
        "print('scipy' in sys.modules, 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # neither import nor a study starts a thread pool: the package opens none
    assert out.stdout.split() == ["True", "False", "False", "False", "False"]

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vecsobol
from vecsobol import (
    ContractError,
    PickFreezeSample,
    SubsetIndex,
    bootstrap_ci,
    clt_diagnostic,
    delta_ci,
    delta_variance,
    estimate_index,
    evaluate_pairs,
    generate_design,
    get_model,
    linear_model,
)
from vecsobol import inference
from vecsobol.inference import _bootstrap_block, _bootstrap_estimates

U1 = SubsetIndex((0,), 2)


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


def _reference_bootstrap(sample, b_reps, rng, block):
    """The bootstrap as first written: gather the resampled pairs, then reduce
    each replicate with einsum. Draws indices in the same blocks."""
    y, y_u, n = sample.y, sample.y_u, sample.n
    out = np.empty(b_reps)
    for start in range(0, b_reps, block):
        rows = min(block, b_reps - start)
        idx = rng.integers(0, n, size=(rows, n))
        ry, ryu = y[idx], y_u[idx]
        m = (ry + ryu).sum(axis=1) / (2.0 * n)
        centering = n * (m * m).sum(axis=1)
        num = np.einsum("bnk,bnk->b", ry, ryu) - centering
        den = 0.5 * (np.einsum("bnk,bnk->b", ry, ry) + np.einsum("bnk,bnk->b", ryu, ryu))
        out[start : start + rows] = num / (den - centering)
    return out


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

    def test_bootstrap_replicates_match_gather_form(self):
        for sample in _samples_for_reference():
            b_reps = 2 * _bootstrap_block(sample.n) + 7  # three blocks, the last partial
            got = _bootstrap_estimates(sample, b_reps, np.random.Generator(np.random.Philox(17)))
            ref = _reference_bootstrap(
                sample, b_reps, np.random.Generator(np.random.Philox(17)), _bootstrap_block(sample.n)
            )
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

    @pytest.mark.parametrize("n", [2000, 3001])
    def test_block_size_moves_replicates_by_ulps_only(self, monkeypatch, n):
        sample = _sample("sum_prod", n=n, seed=9)
        b_reps = 200
        reps = {}
        for block in (1, 7, _bootstrap_block(n), b_reps):
            monkeypatch.setattr(inference, "_bootstrap_block", lambda n, block=block: block)
            reps[block] = _bootstrap_estimates(sample, b_reps, np.random.Generator(np.random.Philox(5)))
        for got in reps.values():
            assert np.max(np.abs(got - reps[1]) / np.abs(reps[1])) <= 1e-13

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


class TestCltDiagnostic:
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

    def test_contracts(self):
        model = get_model("identity_2")
        with pytest.raises(ContractError):
            clt_diagnostic(model, model.space(), U1, 100, 50, target=0.5, seed=1)
        with pytest.raises(ContractError):
            clt_diagnostic(model, model.space(), U1, 100, 250, target=float("nan"), seed=1)
        with pytest.raises(ContractError):
            clt_diagnostic(model, model.space(), U1, 100, 250, target=0.5, seed=1, ci_method="x")


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
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    # import starts no thread and builds no pool: the column pool is made on first use
    assert out.stdout.split() == ["True", "False", "False", "False"]

"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and prints one
PASS/FAIL line (run with pytest -s to see them all). Targets come from closed
forms, exact enumeration, symbolic integration, or large-sample Monte Carlo;
never from the code path under test.
"""

import numpy as np
import pytest

import vecsobol as vs
from vecsobol.cli import EXIT_OK, main

from grid_checks import grid_defects

U1 = vs.SubsetIndex((0,), 2)


def _check(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}  {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_orthogonal(rng, k):
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    return q * np.sign(np.diag(r))


def _pf_sample(name, n, seed, subset=U1):
    model = vs.get_model(name)
    return vs.evaluate_pairs(model, vs.generate_design(model.space(), subset, n, seed))


def test_criterion_1_weighted_index_proof_values():
    """Exact weighted indices for the 2-D identity map, before/after the swap."""
    triple = vs.covariances_linear(np.eye(2), np.ones(2), U1)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    swapped = triple.left_compose(swap)
    worst = 0.0
    for l1, l2 in [(1.0, 1.0), (1.0, 2.0), (3.0, 5.0)]:
        m = np.diag([l1, l2])
        worst = max(worst, abs(vs.exact_index(triple, m).subset - l1 / (l1 + l2)))
        worst = max(worst, abs(vs.exact_index(swapped, m).subset - l2 / (l1 + l2)))
    _check("criterion 1 (weighted-index proof values)", worst <= 1e-12, f"max err {worst:.2e}")


def test_criterion_2_sum_to_one():
    """Indices sum to 1 for every oracle-capable corpus model x subset x 20 random M."""
    rng = np.random.default_rng(202)
    cases = []
    ident = vs.get_model("identity_2")
    cases.append(vs.covariances_linear(np.eye(2), ident.space().variances(), U1))
    cases.append(vs.covariances_linear(np.eye(2), ident.space().variances(), vs.SubsetIndex((1,), 2)))
    cases.append(vs.covariances_linear(np.eye(2), ident.space().variances(), vs.SubsetIndex((0, 1), 2)))
    a3 = np.array([[1.0, 0.5, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 3.0]])
    for idx in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        cases.append(vs.covariances_linear(a3, np.ones(3), vs.SubsetIndex(idx, 3)))
    sp = vs.get_model("sum_prod")
    for idx in [(0,), (1,), (0, 1)]:
        cases.append(vs.covariances_quadrature(sp, sp.space(), vs.SubsetIndex(idx, 2), 32))

    worst = 0.0
    for triple in cases:
        k = triple.out_dims
        accepted = 0
        while accepted < 20:
            m = rng.normal(size=(k, k))
            m = m + m.T
            if abs(np.trace(m @ triple.total)) < 1e-6:
                continue  # well-posed denominators only
            worst = max(worst, vs.exact_index(triple, m).sum_defect())
            accepted += 1

    # degenerate corpus entries are rejected rather than mis-indexed
    for name in ("u_only", "constant"):
        model = vs.get_model(name)
        with pytest.raises(vs.DegenerateModelError):
            vs.covariances_quadrature(model, model.space(), U1, 8)

    _check("criterion 2 (sum to one)", worst <= 1e-10, f"max defect {worst:.2e} over {len(cases)} triples")


def test_criterion_3_transformation_rule():
    """Weighted index of a left-composed model equals the conjugate weighting."""
    rng = np.random.default_rng(303)
    worst_oracle = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 4))
        p = int(rng.integers(2, 5))
        a = rng.normal(size=(k, p))
        v = rng.uniform(0.5, 2.0, size=p)
        r = int(rng.integers(1, p + 1))
        subset = vs.SubsetIndex(rng.choice(p, size=r, replace=False), p)
        try:
            triple = vs.covariances_linear(a, v, subset)
        except vs.DegenerateModelError:
            continue
        o = rng.normal(size=(k, k))
        m = rng.normal(size=(k, k))
        if abs(np.trace((o.T @ m @ o) @ triple.total)) < 1e-6:
            continue
        lhs = vs.exact_index(triple.left_compose(o), m).subset
        rhs = vs.exact_index(triple, o.T @ m @ o).subset
        worst_oracle = max(worst_oracle, abs(lhs - rhs))

    worst_sample = 0.0
    for name, seed in [("identity_2", 31), ("sum_prod", 32)]:
        sample = _pf_sample(name, 2000, seed)
        for _ in range(50):
            o = rng.normal(size=(2, 2))
            m = rng.normal(size=(2, 2))
            m = m + m.T
            lhs = vs.estimate_index_general(sample.left_compose(o), m)
            rhs = vs.estimate_index_general(sample, o.T @ m @ o)
            worst_sample = max(worst_sample, abs(lhs - rhs))

    ok = worst_oracle <= 1e-10 and worst_sample <= 1e-10
    _check(
        "criterion 3 (transformation rule)",
        ok,
        f"oracle {worst_oracle:.2e}, sample {worst_sample:.2e}",
    )


def test_criterion_4_finite_sample_invariances():
    """Estimates are unchanged under output isometries and homotheties."""
    rng = np.random.default_rng(404)
    sample = _pf_sample("sum_prod", 3000, 44)
    base = vs.estimate_index(sample)
    worst = 0.0
    for _ in range(50):
        q = _random_orthogonal(rng, 2)
        worst = max(worst, abs(vs.estimate_index(sample.left_compose(q)) - base))
    for lam in np.linspace(-4.0, 4.0, 21):
        if lam == 0.0:
            continue
        scaled = vs.PickFreezeSample(lam * sample.y, lam * sample.y_u, sample.subset)
        worst = max(worst, abs(vs.estimate_index(scaled) - base))
    _check("criterion 4 (finite-sample invariances)", worst <= 1e-10, f"max drift {worst:.2e}")


def test_criterion_5_estimator_consistency():
    """Million-sample estimates hit the exact targets within 0.005."""
    est_id = vs.estimate_index(_pf_sample("identity_2", 1_000_000, 51))
    err_id = abs(est_id - 0.5)

    # target 15/31 re-derived from the quadrature oracle and cross-checked
    # against a 10^7-sample Monte Carlo oracle before use
    sp = vs.get_model("sum_prod")
    quad = vs.exact_index(vs.covariances_quadrature(sp, sp.space(), U1, 64), np.eye(2)).subset
    assert abs(quad - 15 / 31) <= 1e-10
    mc_triple = vs.covariances_monte_carlo(sp, sp.space(), U1, 10_000_000, seed=555)
    mc = vs.exact_index(mc_triple, np.eye(2)).subset
    assert abs(mc - 15 / 31) <= 0.005

    est_sp = vs.estimate_index(_pf_sample("sum_prod", 1_000_000, 52))
    err_sp = abs(est_sp - 15 / 31)
    ok = err_id <= 0.005 and err_sp <= 0.005
    _check("criterion 5 (estimator consistency)", ok, f"errors {err_id:.2e}, {err_sp:.2e}")


def test_criterion_6_asymptotic_normality():
    """Standardized replicate estimates look Gaussian; spread scales like 1/sqrt(N)."""
    model = vs.get_model("identity_2")
    rep1k = vs.clt_diagnostic(model, model.space(), U1, 1000, 500, target=0.5, seed=606)
    rep4k = vs.clt_diagnostic(model, model.space(), U1, 4000, 500, target=0.5, seed=607)
    ratio = rep1k.std_empirical / rep4k.std_empirical
    ok = rep1k.normality_stat < 0.08 and 1.7 <= ratio <= 2.3
    _check(
        "criterion 6 (asymptotic normality)",
        ok,
        f"KS {rep1k.normality_stat:.3f}, std ratio {ratio:.2f}",
    )


def test_criterion_7_ci_coverage():
    """Delta and bootstrap 95% intervals cover the truth 91-98% of the time."""
    results = []
    for name, target in [("identity_2", 0.5), ("sum_prod", 15 / 31)]:
        model = vs.get_model(name)
        for method in ("delta", "bootstrap"):
            rep = vs.clt_diagnostic(
                model,
                model.space(),
                U1,
                2000,
                500,
                target=target,
                seed=2026,
                ci_method=method,
                b_reps=200,
            )
            results.append((name, method, rep.coverage))
    ok = all(0.91 <= cov <= 0.98 for _, _, cov in results)
    detail = ", ".join(f"{n}/{m}={c:.3f}" for n, m, c in results)
    _check("criterion 7 (CI coverage)", ok, detail)


def test_criterion_8_orthogonal_components():
    """Exact enumeration gives orthogonal components and a vanishing identity residual."""
    space = vs.InputSpace((vs.Discrete((0.0, 1.0), (0.5, 0.5)),) * 2)
    model = vs.get_model("sum_prod")
    comps = vs.decompose_grid(model, space, U1, 1)
    orth = grid_defects(model, space, 1, comps)[2]
    residual = comps.covariance_triple().residual
    ok = orth <= 1e-12 and residual <= 1e-12
    _check(
        "criterion 8 (orthogonal components)",
        ok,
        f"orthogonality {orth:.2e}, residual {residual:.2e}",
    )


def test_criterion_9_reproducible_reports(tmp_path):
    """Two runs of one config produce byte-identical reports in reproducible mode."""
    config = tmp_path / "run.yaml"
    config.write_text(
        "model: identity_2\nsubsets: [[1], [2]]\nn: 5000\nseed: 99\n"
        "oracle: auto\nci: bootstrap\n"
    )
    outputs = []
    for stem in ("a", "b"):
        out = tmp_path / f"{stem}.json"
        rc = main(["--config", str(config), "--output", str(out), "--reproducible"])
        assert rc == EXIT_OK
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    _check("criterion 9 (reproducible reports)", ok, f"{len(outputs[0])} bytes")

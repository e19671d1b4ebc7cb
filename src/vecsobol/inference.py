"""Uncertainty quantification for the pick-freeze estimator.

The estimator is a smooth function of the column means of the per-pair
statistics T (pickfreeze.pair_table), so both intervals are built on T:

- delta_variance: the variance of the projection T @ grad, where grad is the
  gradient of the ratio at the empirical means (Janon et al. 2014). The
  n-vector projection replaces a covariance matrix of the statistics.
- bootstrap_ci: Efron's multinomial view of pair resampling. A resample of
  pair indices is a vector of counts, and its replicate means are
  counts @ T / n, one matrix product per block of replicates.

clt_diagnostic runs a replication study (normality distance, CI coverage)
against an oracle target. No scipy at runtime: the normal quantile and
distribution function come from statistics.NormalDist.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import ContractError, DegenerateSampleError
from .models import VectorModel
from .pickfreeze import (
    PickFreezeSample,
    empirical_covariances,
    estimate_index,
    evaluate_pairs,
    generate_design,
    pair_table,
)
from .spaces import InputSpace, SeedLike, SubsetIndex, as_seed_sequence

# Bytes a block of bootstrap replicates may hold. A replicate's n index draws,
# their counts and the counts cast to floats take at most 24 n bytes, so a
# block takes as many replicates as fit, and at least one: peak memory grows
# with n only and not with the number of replicates. The budget keeps a block
# inside a core's L2 cache, where the scattered bincount increments and
# counts @ T run. clt_diagnostic at n=2000, 200 reps, B=200, one BLAS thread
# (2 MiB L2 per core), seconds over three runs by budget:
#   16 MiB 2.36-2.47 | 4 MiB 1.47-1.57 | 2 MiB 1.53-1.56
#    1 MiB 1.42-1.53 | 0.5 MiB 1.43-1.61 | 0.25 MiB 1.74-1.79
# It is a constant, not read from the machine: the index stream is the same
# for any block size, but the blocking of counts @ T moves replicate means by
# ulps, so a budget that followed the cache size would change reports.
_BOOTSTRAP_BLOCK_BYTES = 2**20


@dataclass
class IndexEstimate:
    """Point estimate with its variance estimate and confidence interval.

    sigma2_hat estimates the variance of sqrt(N) * (estimate - truth); the
    standard error of the estimate itself is sqrt(sigma2_hat / n).
    """

    value: float
    sigma2_hat: float
    ci_low: float
    ci_high: float
    ci_level: float
    method: str  # 'delta' | 'bootstrap'
    n: int
    b_reps: Optional[int] = None
    seed: Optional[int] = None


@dataclass
class ReplicationReport:
    """Summary of a replication study of the estimator at fixed sample size."""

    n_per_rep: int
    reps: int
    estimates: np.ndarray
    target: float
    std_empirical: float
    normality_stat: float  # KS distance of standardized estimates to N(0,1)
    coverage: float  # fraction of per-replicate CIs containing the target


def delta_variance(sample: PickFreezeSample) -> float:
    """Delta-method estimate of the asymptotic variance of the index estimator.

    The estimate is f(U, V, hbar) = (U - V - |hbar|^2) / (U + V - |hbar|^2) of
    the column means of pair_table(sample); this returns the empirical
    variance of T @ grad f. Nonnegative by construction.
    """
    if sample.n < 10:
        raise ContractError(f"delta method needs n >= 10, got {sample.n}")
    value = estimate_index(sample)  # raises DegenerateSampleError when flat
    denom = float(np.trace(empirical_covariances(sample).total)) / sample.n

    grad = np.empty(sample.out_dims + 2)
    grad[0] = 1.0 - value
    grad[1] = -(1.0 + value)
    grad[2:] = -2.0 * (1.0 - value) * sample.moments.mean
    grad /= denom
    return float(np.var(pair_table(sample) @ grad))


def delta_ci(sample: PickFreezeSample, level: float = 0.95) -> IndexEstimate:
    """Symmetric normal-approximation interval around the point estimate."""
    if not 0.0 < level < 1.0:
        raise ContractError(f"confidence level must be in (0, 1), got {level}")
    value = estimate_index(sample)
    sigma2 = delta_variance(sample)
    half = NormalDist().inv_cdf(0.5 + level / 2.0) * float(np.sqrt(sigma2 / sample.n))
    return IndexEstimate(
        value=value,
        sigma2_hat=sigma2,
        ci_low=value - half,
        ci_high=value + half,
        ci_level=level,
        method="delta",
        n=sample.n,
    )


def _bootstrap_block(n: int) -> int:
    """Replicates per block for samples of n pairs."""
    return max(1, _BOOTSTRAP_BLOCK_BYTES // (24 * n))


def _bootstrap_estimates(
    sample: PickFreezeSample, b_reps: int, rng: np.random.Generator
) -> np.ndarray:
    """Estimator values over pair-index resamples, from counts @ T in blocks."""
    table = pair_table(sample)
    n = sample.n
    block = _bootstrap_block(n)
    out = np.empty(b_reps)
    for start in range(0, b_reps, block):
        rows = min(block, b_reps - start)
        idx = rng.integers(0, n, size=(rows, n))
        idx += n * np.arange(rows)[:, None]  # row r counts into bins r*n .. r*n + n - 1
        counts = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
        del idx
        means = (counts @ table) / n
        u, v, centering = means[:, 0], means[:, 1], np.sum(means[:, 2:] ** 2, axis=1)
        out[start : start + rows] = (u - v - centering) / (u + v - centering)
    return out


def bootstrap_ci(
    sample: PickFreezeSample, b_reps: int, level: float, seed: SeedLike
) -> IndexEstimate:
    """Percentile interval from resampling pairs (Y_i, Y_i^u) jointly.

    Pairs are never split: the estimator's law depends on the joint pair
    distribution, so resampling is over pair indices only. Deterministic in
    the seed.
    """
    if b_reps < 200:
        raise ContractError(f"bootstrap needs at least 200 replicates, got {b_reps}")
    if not 0.0 < level < 1.0:
        raise ContractError(f"confidence level must be in (0, 1), got {level}")
    value = estimate_index(sample)  # degenerate samples rejected here

    rng = np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
    boot = _bootstrap_estimates(sample, b_reps, rng)
    alpha = 1.0 - level
    lo, hi = np.quantile(boot, [alpha / 2.0, 1.0 - alpha / 2.0])
    seed_int = int(seed) if isinstance(seed, (int, np.integer)) else None
    return IndexEstimate(
        value=value,
        sigma2_hat=sample.n * float(np.var(boot, ddof=1)),
        ci_low=float(lo),
        ci_high=float(hi),
        ci_level=level,
        method="bootstrap",
        n=sample.n,
        b_reps=b_reps,
        seed=seed_int,
    )


def clt_diagnostic(
    model: VectorModel,
    space: InputSpace,
    subset: SubsetIndex,
    n_per_rep: int,
    reps: int,
    target: float,
    seed: SeedLike,
    ci_level: float = 0.95,
    ci_method: str = "delta",
    b_reps: int = 200,
) -> ReplicationReport:
    """Replication study: estimate `reps` times with independent derived seeds.

    Reports the Kolmogorov-Smirnov distance between the standardized
    estimates and the standard normal, and the fraction of per-replicate
    confidence intervals that contain the oracle target.
    """
    if reps < 200:
        raise ContractError(f"replication study needs reps >= 200, got {reps}")
    if not np.isfinite(target):
        raise ContractError("target must be a finite oracle value")
    if ci_method not in ("delta", "bootstrap"):
        raise ContractError(f"ci_method must be 'delta' or 'bootstrap', got {ci_method!r}")

    root = as_seed_sequence(seed)
    children = root.spawn(reps)
    estimates = np.empty(reps)
    covered = 0
    for i, child in enumerate(children):
        # split each replicate stream so the resampling draws can never
        # alias the design draws
        design_ss, ci_ss = child.spawn(2)
        design = generate_design(space, subset, n_per_rep, design_ss)
        sample = evaluate_pairs(model, design)
        if ci_method == "delta":
            est = delta_ci(sample, ci_level)
        else:
            est = bootstrap_ci(sample, b_reps, ci_level, ci_ss)
        estimates[i] = est.value
        if est.ci_low <= target <= est.ci_high:
            covered += 1

    std = float(np.std(estimates, ddof=1))
    if std == 0.0:
        raise DegenerateSampleError("replicate estimates are all identical; cannot standardize")
    standardized = np.sort((estimates - estimates.mean()) / std)
    # KS distance to N(0, 1): the empirical CDF steps from (i-1)/n to i/n at x_(i)
    cdf = np.array([NormalDist().cdf(x) for x in standardized])
    steps = np.arange(reps + 1) / reps
    ks = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
    return ReplicationReport(
        n_per_rep=n_per_rep,
        reps=reps,
        estimates=estimates,
        target=float(target),
        std_empirical=std,
        normality_stat=ks,
        coverage=covered / reps,
    )

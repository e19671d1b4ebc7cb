"""Uncertainty quantification for the pick-freeze estimator.

The estimator is a smooth function of the column means of the per-pair
statistics T (pickfreeze.pair_table), so both intervals are built on T:

- delta_variance: grad^T Cov(T) grad, where grad is the gradient of the
  ratio at the empirical means (Janon et al. 2014). The (k+2)-by-(k+2)
  covariance of T comes from the same blocked pass over the sample as the
  estimate (pickfreeze.PairMoments), so the delta method reads no rows.
- bootstrap_ci: Efron's multinomial view of pair resampling. A resample of
  pair indices is a vector of counts, and its replicate means are
  counts @ T / n, one matrix product per block of replicates, summed over
  fixed row chunks in order.

clt_diagnostic runs a replication study (normality distance, CI coverage)
against an oracle target. Each replicate's design, model evaluation and point
estimate (with its degeneracy check) run on the calling thread, in replicate
order. With bootstrap intervals, the replicates' resampling runs on a thread
pool that the study opens and joins, one worker per CPU the process may run
on, and no pool when there is one: the calling thread keeps at most twice as
many replicates in flight as there are workers and takes their intervals in
replicate order, so memory does not grow with the number of replicates. Each
replicate resamples from its own Philox stream in blocks of a fixed size, so
the report does not depend on the CPU count. Delta-method studies run on the
calling thread alone: their cost is the moments pass there.

No scipy at runtime: the normal quantile and distribution function come from
statistics.NormalDist.
"""

from __future__ import annotations

import contextvars
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterator, Optional

import numpy as np

from . import spaces
from .errors import ContractError, DegenerateSampleError
from .models import VectorModel
from .pickfreeze import (
    PickFreezeSample,
    _row_blocks,
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

# the fewest pairs the delta method takes
DELTA_MIN_N = 10


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


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ContractError(f"confidence level must be in (0, 1), got {level}")


def _check_b_reps(b_reps: int) -> None:
    if b_reps < 200:
        raise ContractError(f"bootstrap needs at least 200 replicates, got {b_reps}")


def delta_variance(sample: PickFreezeSample) -> float:
    """Delta-method estimate of the asymptotic variance of the index estimator.

    The estimate is f(U, V, hbar) = (U - V - |hbar|^2) / (U + V - |hbar|^2) of
    the column means of pair_table(sample); this returns grad^T Cov(T) grad
    with the covariance of T that the moments kernel already holds, so no
    pass over the rows is made. Rounding below zero is returned as zero.
    """
    if sample.n < DELTA_MIN_N:
        raise ContractError(f"delta method needs n >= {DELTA_MIN_N}, got {sample.n}")
    value = estimate_index(sample)  # raises DegenerateSampleError when flat
    denom = float(np.trace(empirical_covariances(sample).total)) / sample.n

    mom = sample.moments
    grad = np.empty(sample.out_dims + 2)
    grad[0] = 1.0 - value
    grad[1] = -(1.0 + value)
    grad[2:] = -2.0 * (1.0 - value) * mom.mean
    grad /= denom
    return max(0.0, float(grad @ mom.table_cov @ grad))


def delta_ci(sample: PickFreezeSample, level: float = 0.95) -> IndexEstimate:
    """Symmetric normal-approximation interval around the point estimate."""
    _check_level(level)
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
        # summed over fixed row chunks in order: one product over all n rows
        # would be split across BLAS threads at large n
        means = np.zeros((rows, table.shape[1]))
        for chunk in _row_blocks(n):
            means += counts[:, chunk] @ table[chunk]
        means /= n
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
    _check_b_reps(b_reps)
    _check_level(level)
    value = estimate_index(sample)  # degenerate samples rejected here
    return _percentile_interval(sample, value, b_reps, level, seed)


def _percentile_interval(
    sample: PickFreezeSample, value: float, b_reps: int, level: float, seed: SeedLike
) -> IndexEstimate:
    """The resampling half of bootstrap_ci, for a sample whose estimate is value.

    clt_diagnostic runs it off the calling thread, so it calls no function
    that bench/spans.py wraps, and it reads the moments that estimating value
    has already cached on the sample.
    """
    rng = np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
    boot = _bootstrap_estimates(sample, b_reps, rng)
    alpha = 1.0 - level
    lo, hi = np.quantile(boot, [alpha / 2.0, 1.0 - alpha / 2.0])
    return IndexEstimate(
        value=value,
        sigma2_hat=sample.n * float(np.var(boot, ddof=1)),
        ci_low=float(lo),
        ci_high=float(hi),
        ci_level=level,
        method="bootstrap",
        n=sample.n,
        b_reps=b_reps,
    )


def _replicate_samples(
    model: VectorModel,
    space: InputSpace,
    subset: SubsetIndex,
    n_per_rep: int,
    reps: int,
    root: np.random.SeedSequence,
) -> Iterator[tuple[PickFreezeSample, np.random.SeedSequence]]:
    """Each replicate's sample and interval seed, drawn and evaluated in order.

    Replicate i's stream is root's i-th child, spawned when the study reaches
    it, and split so that the resampling draws can never alias the design
    draws.
    """
    for _ in range(reps):
        (child,) = root.spawn(1)
        design_ss, ci_ss = child.spawn(2)
        yield evaluate_pairs(model, generate_design(space, subset, n_per_rep, design_ss)), ci_ss


def _bootstrap_intervals(
    samples: Iterator[tuple[PickFreezeSample, np.random.SeedSequence]], b_reps: int, level: float
) -> Iterator[IndexEstimate]:
    """The replicates' percentile intervals, in replicate order.

    Each point estimate is computed here, on the calling thread, which also
    caches the moments the resampling reads. The resampling runs on a pool
    of one worker per available CPU, with at most twice as many replicates
    in flight as workers; an error surfaces at the first replicate that
    raised, as it would on one thread. With one CPU no pool is made.
    """
    workers = spaces._available_cpus()
    if workers == 1:
        for sample, ci_ss in samples:
            yield _percentile_interval(sample, estimate_index(sample), b_reps, level, ci_ss)
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="vecsobol-bootstrap")
    in_flight = deque()
    try:
        while True:
            try:
                sample, ci_ss = next(samples)
                value = estimate_index(sample)
            except StopIteration:
                break
            except Exception:
                for earlier in in_flight:  # an earlier replicate's error comes first
                    earlier.result()
                raise
            if len(in_flight) == 2 * workers:
                yield in_flight.popleft().result()
            # in the caller's context, so numpy's error state follows the call
            run = contextvars.copy_context().run
            args = (sample, value, b_reps, level, ci_ss)
            in_flight.append(pool.submit(run, _percentile_interval, *args))
        while in_flight:
            yield in_flight.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


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

    Designs, model evaluations and point estimates run on the calling thread,
    in replicate order. Bootstrap resampling runs on a thread pool opened for
    the study and joined before it returns or raises, with at most twice as
    many replicates in flight as workers; delta intervals are computed on the
    calling thread. The report does not depend on the number of CPUs.
    """
    if reps < 200:
        raise ContractError(f"replication study needs reps >= 200, got {reps}")
    if subset.is_full:  # its estimate is exactly 1 in every replicate
        raise ContractError("a replication study needs a proper subset, not the full group")
    if not np.isfinite(target):
        raise ContractError("target must be a finite oracle value")
    if ci_method not in ("delta", "bootstrap"):
        raise ContractError(f"ci_method must be 'delta' or 'bootstrap', got {ci_method!r}")
    # checked here as well, before any design is drawn or model evaluated
    _check_level(ci_level)
    if ci_method == "bootstrap":
        _check_b_reps(b_reps)

    samples = _replicate_samples(model, space, subset, n_per_rep, reps, as_seed_sequence(seed))
    if ci_method == "delta":
        intervals = (delta_ci(sample, ci_level) for sample, _ in samples)
    else:
        intervals = _bootstrap_intervals(samples, b_reps, ci_level)
    estimates = np.empty(reps)
    covered = 0
    with closing(intervals):  # joins the pool even if this loop is left early
        for i, est in enumerate(intervals):
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

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
  fixed row chunks in order. T is written by the moments kernel in its pass.
  One step (_percentiles) bounds the interval of one sample or a batch.

clt_diagnostic runs a replication study (normality distance, CI coverage)
of one or more subsets against their oracle targets as one loop on the
calling thread, in replicate order. Each replicate draws one design over all
the subsets, as cli.run does, and evaluates it through evaluate_shared,
(1 + s) N rows for s subsets. The loop drops each sample before the next
subset is evaluated and each design before the next replicate's is drawn,
so it holds one design and one sample at a time. Seed streams are children
of the study seed addressed by spawn key (spaces.stream): replicate i's
design is drawn from key (i, 0). A bootstrap study resamples every
replicate with one pattern of counts, drawn from key (_PATTERN_STREAM_TAG,)
and never from a design stream. A replicate's pairs are i.i.d. and the
pattern is drawn independently of them, so each replicate still gets a
valid percentile interval (Efron & Tibshirani 1993); the reuse is the
common-random-numbers device of simulation (Glasserman & Yao 1992). Since
the counts are shared, the study resamples in batches: the kernel pass that
reduces sample i, subset i % s of replicate i // s, writes its T into slot
i % slots of one (N, slots, k+2) array; a full batch is resampled by
counts @ [T_1 ... T_r] (_resample), and one finally clause resamples the
partial one. A pattern that fits _PATTERN_BYTES is held as one (B, N)
array, one product per row chunk; beyond it the same blocks of counts are
redrawn for each batch. The reports depend on neither the budget nor the
CPU count. The package opens no thread pool.

No scipy at runtime: the normal quantile and distribution function come from
statistics.NormalDist.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from statistics import NormalDist
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError, DegenerateSampleError
from .models import VectorModel
from .pickfreeze import (
    PickFreezeSample,
    _row_blocks,
    estimate_index,
    evaluate_pairs,  # unused here, but bench/spans.py wraps the name in this module
    evaluate_shared,
    generate_design,
    pair_table,
)
from .spaces import InputSpace, SeedLike, SubsetIndex, _count, _generator, stream

# Bytes a block of bootstrap replicates, and a replication study's batch of
# pair tables, may hold. A replicate's n index draws, their counts and the
# counts cast to floats take at most 24 n bytes, and a pair table 8 n (k + 2)
# bytes, so a block or a batch takes as many as fit, and at least one: peak
# memory grows with n and k only and not with the number of replicates. The
# budget keeps a block inside a core's L2 cache, where the scattered bincount
# increments and counts @ T run. clt_diagnostic at n=2000, 200 reps, B=200,
# one table per product, one BLAS thread (2 MiB L2 per core), seconds over
# three runs by budget:
#   16 MiB 2.36-2.47 | 4 MiB 1.47-1.57 | 2 MiB 1.53-1.56
#    1 MiB 1.42-1.53 | 0.5 MiB 1.43-1.61 | 0.25 MiB 1.74-1.79
# At that n and k = 2 a batch holds 16 tables. Its 200 replicates took
# 140-142 us a table in ten 21-row blocks of counts and 84-85 us a table as
# one 200-row product of the held pattern, against 369-375 us for a table
# alone in blocks, as bootstrap_ci runs it (2 vCPUs, one BLAS thread; medians
# of 200 calls, four runs). At k >= 64 a batch is one table, already a wide
# product.
# It is a constant, not read from the machine: the index stream is the same
# for any block size, but the blocking of counts @ T, and the batching of the
# tables, move replicate means by ulps, so a budget that followed the cache
# size would change reports.
_BOOTSTRAP_BLOCK_BYTES = 2**20

# Bytes a bootstrap replication study may hold of its resampling pattern, the
# B count vectors as floats (8 B n bytes). A pattern that fits is drawn once
# into one array, and each batch takes one product per row chunk of it; a
# larger one is redrawn, block by block, for each batch from its seed, which
# gives the same blocks, so the budget never moves a report. 16 MiB holds
# B = 200 up to n = 10,485 pairs.
_PATTERN_BYTES = 2**24

# the pattern is drawn from stream(seed, _PATTERN_STREAM_TAG), which never
# aliases a replicate's stream: numpy hashes the tag as its three 32-bit words,
# the second of them not 0, so it is no replicate's key (i, 0, ...)
_PATTERN_STREAM_TAG = 0x626F6F747374726170  # b"bootstrap"

# the fewest pairs the delta method takes, and the fewest replicates of a
# bootstrap interval and of a replication study
DELTA_MIN_N = 10
BOOTSTRAP_MIN_REPS = 200
REPLICATION_MIN_REPS = 200


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


def _check_level(level, name: str):
    """level if it is a real number in (0, 1) but no bool, else a ContractError naming it."""
    if isinstance(level, bool) or not isinstance(level, numbers.Real) or not 0.0 < level < 1.0:
        raise ContractError(f"{name} must be a confidence level in (0, 1), got {level!r}")
    return level


def delta_variance(sample: PickFreezeSample) -> float:
    """Delta-method estimate of the asymptotic variance of the index estimator.

    The estimate is f(U, V, hbar) = (U - V - |hbar|^2) / (U + V - |hbar|^2) of
    the column means of pair_table(sample); this returns grad^T Cov(T) grad
    with the covariance of T that the moments kernel already holds, so no
    pass over the rows is made. Rounding below zero is returned as zero.
    """
    _count(sample.n, "the delta method's n", DELTA_MIN_N)
    value = estimate_index(sample)  # raises DegenerateSampleError when flat
    mom = sample.moments
    denom = float(np.trace(mom.total)) / sample.n
    grad = np.empty(sample.out_dims + 2)
    grad[0] = 1.0 - value
    grad[1] = -(1.0 + value)
    grad[2:] = -2.0 * (1.0 - value) * mom.mean
    grad /= denom
    return max(0.0, float(grad @ mom.table_cov @ grad))


def delta_ci(sample: PickFreezeSample, level: float = 0.95) -> IndexEstimate:
    """Symmetric normal-approximation interval around the point estimate."""
    _check_level(level, "level")
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


def _count_blocks(n: int, b_reps: int, seed: SeedLike) -> Iterator[np.ndarray]:
    """b_reps resamples of n pair indices from seed's Philox stream, as counts
    in blocks of _bootstrap_block(n) replicates, held as the floats that
    counts @ T reads."""
    rng = _generator(seed)
    block = _bootstrap_block(n)
    for start in range(0, b_reps, block):
        rows = min(block, b_reps - start)
        idx = rng.integers(0, n, size=(rows, n))
        idx += n * np.arange(rows)[:, None]  # row r counts into bins r*n .. r*n + n - 1
        counts = np.bincount(idx.ravel(), minlength=rows * n).reshape(rows, n)
        del idx
        yield counts.astype(float)


def _resample(tables: np.ndarray, floors: np.ndarray, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """Estimator values of r samples over the resamples that the blocks of
    counts give, as a (b_reps, r) matrix: tables stacks the samples' pair
    tables as an (n, r, k + 2) array, and floors holds their degeneracy
    floors. One counts @ [T_1 ... T_r] product per block of counts serves
    all r; a resample with a denominator at its sample's floor raises."""
    n, r, w = tables.shape
    wide = tables.reshape(n, r * w)  # a view, also of a batch's first r slots
    floors = floors / n  # the floors of denominators of means
    out = []
    for counts in blocks:
        # summed over fixed row chunks in order: one product over all n rows
        # would be split across BLAS threads at large n
        means = np.zeros((counts.shape[0], r * w))
        for chunk in _row_blocks(n):
            means += counts[:, chunk] @ wide[chunk]
        means /= n
        means = means.reshape(-1, r, w)
        u, v, centering = means[..., 0], means[..., 1], np.sum(means[..., 2:] ** 2, axis=2)
        denominator = u + v - centering
        if not (denominator > floors).all():
            raise DegenerateSampleError("the sample has too few distinct pairs to bootstrap: "
                                        "a resample's denominator is at the degeneracy floor")
        out.append((u - v - centering) / denominator)
    return np.concatenate(out)


def _percentiles(tables: np.ndarray, floors: np.ndarray, blocks: Iterable[np.ndarray], level: float):
    """_resample, and the percentile interval at level of each of the r
    samples: the (b_reps, r) estimates, the r lower and the r upper bounds."""
    boot = _resample(tables, floors, blocks)
    alpha = 1.0 - level
    low, high = np.quantile(boot, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return boot, low, high


def bootstrap_ci(
    sample: PickFreezeSample, b_reps: int, level: float, seed: SeedLike
) -> IndexEstimate:
    """Percentile interval from resampling pairs (Y_i, Y_i^u) jointly.

    Pairs are never split: the estimator's law depends on the joint pair
    distribution, so resampling is over pair indices only. Deterministic in
    the seed. The pass that writes T also fills a fresh sample's moments, so
    the sample is read once; T is never cached, so a sample whose moments
    were read before is read again.
    """
    b_reps = _count(b_reps, "b_reps", BOOTSTRAP_MIN_REPS)
    _check_level(level, "level")
    table = pair_table(sample)  # before the estimate, whose moments it fills
    value = estimate_index(sample)  # degenerate samples rejected here
    boot, (lo,), (hi,) = _percentiles(table[:, None], np.array([sample.moments.floor]),
                                      _count_blocks(sample.n, b_reps, seed), level)
    return IndexEstimate(
        value=value,
        sigma2_hat=sample.n * float(np.var(boot, ddof=1)),
        ci_low=float(lo),
        ci_high=float(hi),
        ci_level=level,
        method="bootstrap",
        n=sample.n,
        b_reps=len(boot),
    )


def clt_diagnostic(
    model: VectorModel,
    space: InputSpace,
    subset: SubsetIndex | Sequence[SubsetIndex],
    n_per_rep: int,
    reps: int,
    target: float | Sequence[float],
    seed: SeedLike,
    ci_level: float = 0.95,
    ci_method: str = "delta",
    b_reps: int = 200,
) -> ReplicationReport | list[ReplicationReport]:
    """Replication study: estimate `reps` times with independent derived seeds.

    Reports the Kolmogorov-Smirnov distance between the standardized
    estimates and the standard normal, and the fraction of per-replicate
    confidence intervals that contain the oracle target. Subsets given as a
    sequence, with a sequence of targets, share one design per replicate, as
    in run(), and give a list of reports; one subset gives one report.

    The study is one loop on the calling thread, in replicate order. It drops
    each sample before the next subset is evaluated and each design before
    the next replicate's is drawn. Bootstrap intervals resample every
    replicate and subset with one pattern of counts, drawn from
    stream(seed, _PATTERN_STREAM_TAG), so the replicates' designs,
    replicate i's from stream(seed, i, 0), and the estimates are those of a
    delta study on the same seed. Sample i, subset i % s of replicate i // s,
    puts its pair table in slot i % slots of a batch, and a full batch is
    bounded by _percentiles, as bootstrap_ci is. One finally clause resamples
    the partial batch, at the end and before a later sample's error is
    raised, so the earliest replicate's error is the one raised.
    """
    single = isinstance(subset, SubsetIndex)
    groups = (subset,) if single else tuple(subset)
    n_per_rep, reps = _count(n_per_rep, "n_per_rep"), _count(reps, "reps", REPLICATION_MIN_REPS)
    if not groups or np.ndim(target) != (0 if single else 1) or np.size(target) != len(groups):
        raise ContractError("a replication study needs one target for each of its subsets")
    targets = [float(t) for t in np.atleast_1d(target)]
    if any(group.is_full for group in groups):  # its estimate is exactly 1 in every replicate
        raise ContractError("a replication study needs a proper subset, not the full group")
    if not np.isfinite(targets).all():
        raise ContractError("target must be a finite oracle value")
    if ci_method not in ("delta", "bootstrap"):
        raise ContractError(f"ci_method must be 'delta' or 'bootstrap', got {ci_method!r}")
    # checked here as well, before any design is drawn or model evaluated
    _check_level(ci_level, "ci_level")
    bootstrap = ci_method == "bootstrap"
    if bootstrap:
        b_reps = _count(b_reps, "b_reps", BOOTSTRAP_MIN_REPS)
    else:
        _count(n_per_rep, "the delta method's n", DELTA_MIN_N)

    # sample i's estimate and bounds: row i of (reps, s) arrays, raveled
    estimates, lows, highs = np.empty((3, reps * len(groups)))
    if bootstrap:
        pattern_ss = stream(seed, _PATTERN_STREAM_TAG)
        held = np.empty((b_reps, n_per_rep)) if 8 * b_reps * n_per_rep <= _PATTERN_BYTES else None
        if held is not None:  # one array, filled block by block: no second copy is made
            starts = range(0, b_reps, _bootstrap_block(n_per_rep))
            for start, counts in zip(starts, _count_blocks(n_per_rep, b_reps, pattern_ss)):
                held[start : start + len(counts)] = counts
        slots = max(1, _BOOTSTRAP_BLOCK_BYTES // (8 * n_per_rep * (model.out_dims + 2)))
        # sample i's table and floor go to slot i % slots
        tables, floors = np.empty((n_per_rep, slots, model.out_dims + 2)), np.empty(slots)

        def resample(stop, r):
            """Bound the intervals of the batch's first r slots, samples stop - r to stop - 1."""
            blocks = _count_blocks(n_per_rep, b_reps, pattern_ss) if held is None else [held]
            _, lows[stop - r : stop], highs[stop - r : stop] = _percentiles(
                tables[:, :r], floors[:r], blocks, ci_level)

    i = 0  # counted by hand: enumerate's cached tuple would hold the previous sample
    try:
        for rep in range(reps):
            # only evaluate_shared holds the design, so it goes before the next is drawn
            design = generate_design(space, groups, n_per_rep, stream(seed, rep, 0))
            samples = evaluate_shared(model, design)
            del design
            for sample in samples:
                if bootstrap:
                    pair_table(sample, tables[:, i % slots])  # one read of the sample
                    estimates[i] = estimate_index(sample)
                    floors[i % slots] = sample.moments.floor
                else:
                    est = delta_ci(sample, ci_level)
                    estimates[i], lows[i], highs[i] = est.value, est.ci_low, est.ci_high
                del sample  # else it outlives the next subset's evaluation
                i += 1
                if bootstrap and i % slots == 0:
                    resample(i, slots)
    finally:  # the partial batch, so an earlier replicate's resampling error comes first
        if bootstrap and i % slots:
            resample(i, i % slots)
    estimates, lows, highs = (a.reshape(reps, -1).T.copy() for a in (estimates, lows, highs))
    covered = np.count_nonzero((lows <= np.c_[targets]) & (np.c_[targets] <= highs), axis=1)
    reports = [_report(*study, n_per_rep) for study in zip(estimates, covered, targets)]
    return reports[0] if single else reports


def _report(estimates: np.ndarray, covered: int, target: float, n_per_rep: int) -> ReplicationReport:
    """One subset's normality distance and coverage over its replicate estimates."""
    reps = len(estimates)
    std = float(np.std(estimates, ddof=1))
    if std == 0.0:
        raise DegenerateSampleError("replicate estimates are all identical; cannot standardize")
    standardized = np.sort((estimates - estimates.mean()) / std)
    # KS distance to N(0, 1): the empirical CDF steps from (i-1)/n to i/n at x_(i)
    cdf = np.array([NormalDist().cdf(x) for x in standardized])
    steps = np.arange(reps + 1) / reps
    ks = float(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])))
    return ReplicationReport(n_per_rep=n_per_rep, reps=reps, estimates=estimates, target=target,
                             std_empirical=std, normality_stat=ks, coverage=covered / reps)

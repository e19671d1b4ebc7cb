"""Pick-freeze designs, paired evaluation, and the sensitivity estimator.

The estimator is the plug-in ratio

    numerator   = sum_l [ sum_i Y_il Yu_il - (1/N) (sum_i (Y_il + Yu_il)/2)^2 ]
    denominator = sum_l [ sum_i (Y_il^2 + Yu_il^2)/2
                          - (1/N) (sum_i (Y_il + Yu_il)/2)^2 ]

of the diagonal sums of the empirical covariance matrices. Both sums are
invariant under a common translation of Y and Yu, but the raw sums are not in
floating point: they cancel catastrophically once the output mean dwarfs its
spread. So each sample is reduced once, on shifted outputs a = Y - c and
b = Yu - c, where the pilot shift c is the first-pass pair mean. In terms of
the pair mean h = (a + b)/2 and the half difference e = (a - b)/2 of a row,

    total  = sum_i (h_i - hbar)(h_i - hbar)^T + sum_i e_i e_i^T
    subset = sum_i (h_i - hbar)(h_i - hbar)^T - sum_i e_i e_i^T.

PairMoments holds the two k-by-k Gram blocks and hbar, cached on the
immutable sample, and every estimate is read off them. Coincident pairs have
e = 0 exactly, so their two matrices are equal bit for bit; the Gram blocks
come from symmetric rank-k updates, so both matrices are exactly symmetric;
and the weighted estimator Tr(M C_hat)/Tr(M Sigma_hat) reduces to the plain
ratio at M = identity, bit for bit.

The per-pair statistics T_i = [|h_i|^2, |e_i|^2, h_i] (pair_table) have the
column means the estimator is a function of. The delta method and the
bootstrap in the inference module are built on them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateSampleError, IllPosedIndexError
from .models import VectorModel, read_numeric_csv
from .spaces import InputSpace, SeedLike, SubsetIndex, as_seed_sequence, sample_marginals


@dataclass
class PickFreezeDesign:
    """Paired input design: a base matrix and a redraw of the complement columns.

    x and x_prime come from disjoint spawned streams of the same seed, so the
    design is a pure function of (space, subset, n, seed).
    """

    x: np.ndarray  # (n, p)
    x_prime: np.ndarray  # (n, p - r), marginals of the complement coordinates
    subset: SubsetIndex
    seed: Optional[int] = None

    def __post_init__(self):
        if self.x.shape[0] != self.x_prime.shape[0]:
            raise ContractError("x and x_prime must have the same number of rows")
        if self.x_prime.shape[1] != len(self.subset.complement):
            raise ContractError(
                f"x_prime must have {len(self.subset.complement)} columns, "
                f"got {self.x_prime.shape[1]}"
            )
        self.x.flags.writeable = False
        self.x_prime.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class PickFreezeSample:
    """Paired outputs (Y_i, Y_i^u); the pair shares the subset coordinates.

    The sample is immutable: its fields cannot be reassigned and its arrays
    are read-only copies, so the moments computed on first use stay valid.
    """

    y: np.ndarray  # (n, k)
    y_u: np.ndarray  # (n, k)
    subset: Optional[SubsetIndex] = None

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        y_u = np.asarray(self.y_u, dtype=float)
        if y.ndim != 2 or y.shape != y_u.shape:
            raise ContractError(f"y and y_u must be equal-shape 2-D matrices, got {y.shape} vs {y_u.shape}")
        y = y.copy()
        y_u = y_u.copy()
        y.flags.writeable = False
        y_u.flags.writeable = False
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "y_u", y_u)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def out_dims(self) -> int:
        return self.y.shape[1]

    @cached_property
    def moments(self) -> "PairMoments":
        """The sample's sufficient statistics, reduced once on first use."""
        return _pair_moments(self.y, self.y_u)

    def left_compose(self, matrix: np.ndarray) -> "PickFreezeSample":
        """Apply a linear output map to every paired observation."""
        o = np.asarray(matrix, dtype=float)
        if o.shape != (self.out_dims, self.out_dims):
            raise ContractError(f"matrix must be {self.out_dims}x{self.out_dims}, got {o.shape}")
        return PickFreezeSample(self.y @ o.T, self.y_u @ o.T, self.subset)


@dataclass(frozen=True)
class PairMoments:
    """Sufficient statistics of a pick-freeze sample, on shifted outputs.

    With a = Y - shift and b = Yu - shift, h = (a + b)/2 and e = (a - b)/2
    per row (see the module docstring). Arrays are read-only.
    """

    shift: np.ndarray  # (k,) pilot shift: the first-pass pair mean
    mean: np.ndarray  # (k,) hbar, the mean of h
    centered_gram: np.ndarray  # (k, k) sum_i (h_i - hbar)(h_i - hbar)^T
    diff_gram: np.ndarray  # (k, k) sum_i e_i e_i^T
    scale: float  # max |h| + max |e|, which bounds the shifted magnitudes |a|, |b|


@dataclass
class EmpiricalCovariances:
    """Un-normalized plug-in covariance matrices of a pick-freeze sample.

    total and subset are N times the usual covariance estimates; their
    diagonal sums are exactly the estimator's denominator and numerator.
    Divide by n for entrywise covariance estimates.
    """

    total: np.ndarray  # (k, k)
    subset: np.ndarray  # (k, k)
    n: int


def generate_design(
    space: InputSpace, subset: SubsetIndex, n: int, seed: SeedLike
) -> PickFreezeDesign:
    """Draw the pick-freeze design; deterministic in (space, subset, n, seed)."""
    if subset.dims != space.dims:
        raise ContractError(
            f"subset is over {subset.dims} inputs but the space has {space.dims}"
        )
    if n < 2:
        raise ContractError(f"pick-freeze needs n >= 2, got {n}")
    root = as_seed_sequence(seed)
    ss_x, ss_prime = root.spawn(2)
    x = sample_marginals(space.marginals, n, ss_x)
    comp_marginals = tuple(space.marginals[j] for j in subset.complement)
    x_prime = sample_marginals(comp_marginals, n, ss_prime)
    seed_int = int(seed) if isinstance(seed, (int, np.integer)) else None
    return PickFreezeDesign(x=x, x_prime=x_prime, subset=subset, seed=seed_int)


def evaluate_pairs(model: VectorModel, design: PickFreezeDesign) -> PickFreezeSample:
    """Evaluate (Y, Y^u): the second run keeps the subset columns and swaps in
    the redrawn complement columns, in the original coordinate order."""
    if model.in_dims != design.x.shape[1]:
        raise ContractError(
            f"model expects {model.in_dims} inputs but the design has {design.x.shape[1]}"
        )
    y = model.evaluate(design.x)
    mixed = design.x.copy()
    comp = list(design.subset.complement)
    if comp:
        mixed[:, comp] = design.x_prime
    y_u = model.evaluate(mixed)
    return PickFreezeSample(y=y, y_u=y_u, subset=design.subset)


def _column_means(x: np.ndarray) -> np.ndarray:
    # a matrix-vector product: numpy's own reduction down the rows of a
    # C-ordered matrix is several times slower
    return (np.ones(x.shape[0]) @ x) / x.shape[0]


def _pair_sums(y: np.ndarray, y_u: np.ndarray, shift: np.ndarray):
    """Row sums s = a + b and differences d = a - b of the shifted outputs
    a = y - shift and b = y_u - shift, so h = s/2 and e = d/2.

    a is exact when the shift is close to y, so large offsets cancel before
    any product is formed; d = y - y_u needs no shift.
    """
    s = y - shift
    d = y_u - shift
    s += d
    np.subtract(y, y_u, out=d)
    return s, d


def _max_abs(x: np.ndarray) -> float:
    return max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))


def _pair_moments(y: np.ndarray, y_u: np.ndarray) -> PairMoments:
    # finite outputs too large to square overflow here; that is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        shift = 0.5 * (_column_means(y) + _column_means(y_u))
        s, d = _pair_sums(y, y_u, shift)
        mean_s = _column_means(s)
        # s.T @ s is a symmetric rank-k update, so the Gram blocks are exactly
        # symmetric, and a zero d gives an exactly zero diff_gram
        centered = 0.25 * (s.T @ s - y.shape[0] * np.outer(mean_s, mean_s))
        diff = 0.25 * (d.T @ d)
    if not (np.isfinite(centered).all() and np.isfinite(diff).all()):
        raise DegenerateSampleError("sample moments overflow: the outputs are too large")
    mean = 0.5 * mean_s
    for a in (shift, mean, centered, diff):
        a.flags.writeable = False
    return PairMoments(
        shift=shift,
        mean=mean,
        centered_gram=centered,
        diff_gram=diff,
        scale=0.5 * (_max_abs(s) + _max_abs(d)),
    )


def pair_table(sample: PickFreezeSample) -> np.ndarray:
    """Per-pair statistics T_i = [|h_i|^2, |e_i|^2, h_i], shape (n, k + 2).

    Their column means U, V and hbar give the estimator as
    (U - V - |hbar|^2) / (U + V - |hbar|^2). Built on demand and never
    cached: it is as large as the sample.
    """
    s, d = _pair_sums(sample.y, sample.y_u, sample.moments.shift)
    quarter = np.full(sample.out_dims, 0.25)
    table = np.empty((sample.n, sample.out_dims + 2))
    np.multiply(s, 0.5, out=table[:, 2:])
    table[:, 0] = np.square(s, out=s) @ quarter
    table[:, 1] = np.square(d, out=d) @ quarter
    return table


def _degeneracy_floor(sample: PickFreezeSample) -> float:
    """Denominator floor: scales with N and the squared shifted magnitude, so
    a constant model is rejected while a genuinely small-variance one is not,
    whatever the outputs' offset."""
    scale = sample.moments.scale
    return 1e-14 * scale * scale * sample.n


def empirical_covariances(sample: PickFreezeSample) -> EmpiricalCovariances:
    """Plug-in matrices whose traces are the estimator's numerator and
    denominator, read off the sample's cached moments.

    Coincident pairs (y_u identical to y) give total == subset bit for bit,
    and each matrix is exactly symmetric.
    """
    if sample.n < 2:
        raise ContractError(f"need at least 2 paired rows, got {sample.n}")
    mom = sample.moments
    return EmpiricalCovariances(
        total=mom.centered_gram + mom.diff_gram,
        subset=mom.centered_gram - mom.diff_gram,
        n=sample.n,
    )


def estimate_index(sample: PickFreezeSample) -> float:
    """The pick-freeze estimate of the identity-weighted index for this subset."""
    emp = empirical_covariances(sample)
    denominator = float(np.trace(emp.total))
    if denominator <= _degeneracy_floor(sample):
        raise DegenerateSampleError(
            f"sample denominator {denominator:.3e} is at the degeneracy floor; "
            "the model output appears constant"
        )
    return float(np.trace(emp.subset)) / denominator


def estimate_index_general(sample: PickFreezeSample, m: np.ndarray) -> float:
    """Plug-in weighted estimate Tr(M C_hat)/Tr(M Sigma_hat).

    With the identity weighting this returns exactly estimate_index(sample).
    """
    m = np.asarray(m, dtype=float)
    k = sample.out_dims
    if m.shape != (k, k):
        raise ContractError(f"weight matrix must be {k}x{k}, got {m.shape}")
    emp = empirical_covariances(sample)
    denominator = float(np.trace(m @ emp.total))
    m_scale = float(np.max(np.abs(m)))
    if abs(denominator) <= _degeneracy_floor(sample) * max(m_scale, 1e-300):
        raise IllPosedIndexError(
            f"Tr(M Sigma_hat) = {denominator:.3e} is too close to zero for this weighting"
        )
    return float(np.trace(m @ emp.subset)) / denominator


# ---------------------------------------------------------------------------
# CSV interchange: paired outputs for external auditing / estimator-only runs
# ---------------------------------------------------------------------------


def sample_header(k: int) -> list[str]:
    return [f"y_{i}" for i in range(1, k + 1)] + [f"yu_{i}" for i in range(1, k + 1)]


def write_sample_csv(sample: PickFreezeSample, path: str) -> None:
    """Write the paired outputs with header y_1..y_k,yu_1..yu_k.

    Floats are written with repr so the file round-trips bit-exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(sample_header(sample.out_dims))
        writer.writerows(np.hstack([sample.y, sample.y_u]).tolist())


def read_sample_csv(path: str, subset: Optional[SubsetIndex] = None) -> PickFreezeSample:
    """Read paired outputs written by write_sample_csv (or an external tool)."""
    header, data = read_numeric_csv(path, "sample")
    k = len(header) // 2
    if k == 0 or header != sample_header(k):
        raise ConfigurationError(
            f"{path}: sample header must be y_1..y_k,yu_1..yu_k, got {','.join(header)}"
        )
    return PickFreezeSample(y=data[:, :k], y_u=data[:, k:], subset=subset)

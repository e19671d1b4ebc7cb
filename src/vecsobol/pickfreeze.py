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

The kernel reads a sample in fixed blocks of _BLOCK_ROWS rows: one pass
for the pilot shift, then one pass that forms s = a + b and d = a - b per
block and merges the block's centred cross-products of
W = [|s|^2, |d|^2, s, d] into running totals with Chan's pairwise update.
PairMoments holds what that pass yields, cached on the immutable sample:
the two k-by-k Gram blocks, and the mean and covariance of the per-pair
statistics T_i = [|h_i|^2, |e_i|^2, h_i] (pair_table), whose column means
U, V and hbar the estimator is a function of. Every estimate is read off
the Gram blocks, and the delta method in the inference module off the
covariance of T. Partial sums are added in block order, so the results do
not depend on the BLAS thread count. Coincident pairs have e = 0 exactly,
so their two matrices are equal bit for bit; the cross-products come from
symmetric rank-k updates, so both matrices are exactly symmetric; and the
weighted estimator Tr(M C_hat)/Tr(M Sigma_hat) reduces to the plain ratio
at M = identity, bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateSampleError, IllPosedIndexError
from .models import VectorModel, read_numeric_csv
from .spaces import InputSpace, SeedLike, SubsetIndex, as_seed_sequence, sample_marginals


@dataclass
class PickFreezeDesign:
    """Paired input design: a base matrix and a redraw of the complement columns.

    x and x_prime come from disjoint spawned streams of the same seed, so the
    design is a pure function of (space, subset, n, seed). A CLI run draws
    a SharedDesign instead; ``SharedDesign.design`` gives each group's view.
    """

    x: np.ndarray  # (n, p)
    x_prime: np.ndarray  # (n, p - r), marginals of the complement coordinates
    subset: SubsetIndex

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

    @property
    def x_u(self) -> np.ndarray:
        """The second block: x with its complement columns taken from x_prime."""
        return _frozen_mix(self.x, self.x_prime, self.subset.complement)


@dataclass
class SharedDesign:
    """One pick-freeze design for all the groups of a run (Saltelli 2002).

    x is the base matrix A and x_prime one redraw B of the union of the
    groups' complement columns, in column order. Group u's second block A_u
    is A with u's complement columns taken from B, so every group's pair
    (A, A_u) is a standard pick-freeze pair and f(A) is evaluated once for
    all of them. Only the correlation between the groups' estimates differs
    from independent designs. With one group, B is that group's
    PickFreezeDesign.x_prime, drawn from the same seed.
    """

    x: np.ndarray  # (n, p)
    x_prime: np.ndarray  # (n, len(redrawn)), marginals of the redrawn coordinates
    subsets: tuple[SubsetIndex, ...]

    def __post_init__(self):
        if self.x.shape[0] != self.x_prime.shape[0]:
            raise ContractError("x and x_prime must have the same number of rows")
        if self.x_prime.shape[1] != len(self.redrawn):
            raise ContractError(
                f"x_prime must have {len(self.redrawn)} columns, got {self.x_prime.shape[1]}"
            )
        self.x.flags.writeable = False
        self.x_prime.flags.writeable = False

    @property
    def redrawn(self) -> tuple[int, ...]:
        """The columns x_prime holds: the union of the groups' complements."""
        return _redrawn(self.subsets)

    def x_u(self, subset: SubsetIndex) -> np.ndarray:
        """Group u's second block: x with u's complement columns from x_prime."""
        return _frozen_mix(self.x, self.x_prime, subset.complement, self._columns(subset))

    def design(self, subset: SubsetIndex) -> PickFreezeDesign:
        """Group u's own design: its x is this x and its x_u is ``self.x_u(u)``."""
        x_prime = self.x_prime[:, self._columns(subset)]
        return PickFreezeDesign(x=self.x, x_prime=x_prime, subset=subset)

    def _columns(self, subset: SubsetIndex) -> list[int]:
        """The columns of x_prime that hold u's complement, in order."""
        column = {j: i for i, j in enumerate(self.redrawn)}
        if not all(j in column for j in subset.complement):
            raise ContractError(
                f"subset {list(subset.to_one_based())} frees inputs this design does not redraw"
            )
        return [column[j] for j in subset.complement]


def _redrawn(subsets) -> tuple[int, ...]:
    return tuple(sorted(set().union(*(s.complement for s in subsets))))


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
        # copies: the caller may still hold the arrays, and an owner can make
        # a read-only array writeable again, so only a copy is safe here
        self._freeze(np.array(self.y, dtype=float), np.array(self.y_u, dtype=float))

    @classmethod
    def _adopt(cls, y: np.ndarray, y_u: np.ndarray, subset: Optional[SubsetIndex]) -> "PickFreezeSample":
        """A sample over float arrays that nothing else holds, without copying them."""
        sample = cls.__new__(cls)
        object.__setattr__(sample, "subset", subset)
        sample._freeze(y, y_u)
        return sample

    def _freeze(self, y: np.ndarray, y_u: np.ndarray) -> None:
        if y.ndim != 2 or y.shape != y_u.shape:
            raise ContractError(f"y and y_u must be equal-shape 2-D matrices, got {y.shape} vs {y_u.shape}")
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
        return PickFreezeSample._adopt(self.y @ o.T, self.y_u @ o.T, self.subset)


@dataclass(frozen=True)
class PairMoments:
    """Sufficient statistics of a pick-freeze sample, on shifted outputs.

    With a = Y - shift and b = Yu - shift, h = (a + b)/2 and e = (a - b)/2
    per row (see the module docstring). Arrays are read-only.
    """

    shift: np.ndarray  # (k,) pilot shift: the first-pass pair mean
    centered_gram: np.ndarray  # (k, k) sum_i (h_i - hbar)(h_i - hbar)^T
    diff_gram: np.ndarray  # (k, k) sum_i e_i e_i^T
    table_mean: np.ndarray  # (k + 2,) column means of T = [|h|^2, |e|^2, h]
    table_cov: np.ndarray  # (k + 2, k + 2) covariance of T, divided by n
    scale: float  # max |h| + max |e|, which bounds the shifted magnitudes |a|, |b|

    @property
    def mean(self) -> np.ndarray:
        """hbar, the mean of h."""
        return self.table_mean[2:]


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
    space: InputSpace, subset: SubsetIndex | Sequence[SubsetIndex], n: int, seed: SeedLike
) -> PickFreezeDesign | SharedDesign:
    """Draw the pick-freeze design; deterministic in (space, subset, n, seed).

    Given a run's sequence of subsets in place of one, it draws their
    SharedDesign: x as for one subset and x_prime over the union of their
    complements, in column order, from the same split of the seed. One
    subset's SharedDesign thus holds the bytes of its PickFreezeDesign.
    """
    groups = (subset,) if isinstance(subset, SubsetIndex) else tuple(subset)
    if not groups:
        raise ContractError("a design needs at least one subset")
    for group in groups:
        if group.dims != space.dims:
            raise ContractError(
                f"subset is over {group.dims} inputs but the space has {space.dims}"
            )
    if n < 2:
        raise ContractError(f"pick-freeze needs n >= 2, got {n}")
    root = as_seed_sequence(seed)
    ss_x, ss_prime = root.spawn(2)
    x = sample_marginals(space.marginals, n, ss_x)
    redrawn_marginals = tuple(space.marginals[j] for j in _redrawn(groups))
    x_prime = sample_marginals(redrawn_marginals, n, ss_prime)
    if isinstance(subset, SubsetIndex):
        return PickFreezeDesign(x=x, x_prime=x_prime, subset=subset)
    return SharedDesign(x=x, x_prime=x_prime, subsets=groups)


def _frozen_mix(
    x: np.ndarray,
    x_prime: np.ndarray,
    complement: tuple[int, ...],
    columns: Optional[list[int]] = None,
) -> np.ndarray:
    """x with its complement columns taken from x_prime, in the original
    column order, copied run by run of adjacent columns from one source.
    Complement column complement[i] is x_prime's column columns[i] (by
    default i); x_prime keeps its columns in input order, so a run of
    adjacent complement columns is a run of adjacent x_prime columns."""
    n, p = x.shape
    column = dict(zip(complement, range(len(complement)) if columns is None else columns))
    mixed = np.empty((n, p))
    start = 0
    for stop in range(1, p + 1):
        if stop < p and (stop in column) == (start in column):
            continue
        if start in column:
            first = column[start]
            mixed[:, start:stop] = x_prime[:, first : first + stop - start]
        else:
            mixed[:, start:stop] = x[:, start:stop]
        start = stop
    return mixed


def evaluate_pairs(model: VectorModel, design: PickFreezeDesign) -> PickFreezeSample:
    """Evaluate (Y, Y^u) at the design's blocks x and x_u."""
    return next(evaluate_shared(model, SharedDesign(design.x, design.x_prime, (design.subset,))))


def evaluate_shared(model: VectorModel, design: SharedDesign) -> Iterator[PickFreezeSample]:
    """Evaluate Y = f(x) once, then each group's Y^u in turn; yields the
    groups' samples in order, which all hold that one Y.

    (1 + s) n rows are evaluated for s groups. Only one second block is
    alive at a time: each is dropped as soon as its outputs are taken.
    """
    if model.in_dims != design.x.shape[1]:
        raise ContractError(
            f"model expects {model.in_dims} inputs but the design has {design.x.shape[1]}"
        )
    y = model.evaluate(design.x)
    for subset in design.subsets:
        x_u = design.x_u(subset)
        y_u = model.evaluate(x_u)
        inputs = (design.x, design.x_prime, x_u)
        if _fresh(y, *inputs) and _fresh(y_u, y, *inputs):
            sample = PickFreezeSample._adopt(y, y_u, subset)
        else:  # a model that returns its input, a view, or one array twice
            sample = PickFreezeSample(y, y_u, subset)
        del x_u, y_u, inputs
        yield sample


def _fresh(out: np.ndarray, *held: np.ndarray) -> bool:
    """Whether a model output owns its memory and overlaps none of the held arrays."""
    return out.flags.owndata and not any(np.may_share_memory(out, a) for a in held)


# Rows reduced per step of the moments kernel and of the bootstrap sums. It
# is a constant, never read from the machine: partial sums are added in block
# order, and a BLAS product over one block gave the same bits under one and
# two OpenBLAS threads, where a product over 5e5 rows did not (its rows are
# split between the threads). For a few outputs the kernel's block buffers
# (3k + 2 rows of 4096 floats) stay in a core's L2 cache. Kernel time at
# n=5e5, k=4, one BLAS thread (2-vCPU Xeon, 2 MiB L2 per core), by block:
#   1024 56 ms | 2048 47 ms | 4096 42 ms | 8192 38 ms | 16384 41 ms | 65536 53 ms
_BLOCK_ROWS = 4096


def _row_blocks(n: int):
    """Row slices of at most _BLOCK_ROWS rows, in order."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _pair_moments(y: np.ndarray, y_u: np.ndarray) -> PairMoments:
    """Reduce a sample in row blocks into its PairMoments.

    A block is held transposed, as the rows of W = [|s|^2, |d|^2, s, d] with
    s = a + b = 2h and d = a - b = 2e, so every step runs along the block's
    rows. W is centred on the block's own means and the blocks' centred
    cross-products are merged with Chan's pairwise update. The quarter and
    half factors of h and e are powers of two, applied once at the end.
    """
    n, k = y.shape
    rows0 = min(n, _BLOCK_ROWS)
    w = 2 * k + 2
    buf = np.empty((w, rows0))
    tmp = np.empty((k, rows0))
    total = np.zeros(w)
    m2 = np.zeros((w, w))
    max_s2 = max_d2 = 0.0
    # finite outputs too large to square overflow here; that is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        ones = np.ones(rows0)
        pilot = np.zeros(k)
        for rows in _row_blocks(n):
            o = ones[: rows.stop - rows.start]
            pilot += o @ y[rows]
            pilot += o @ y_u[rows]
        shift = pilot / (2 * n)
        shift_col = shift[:, None]
        for rows in _row_blocks(n):
            m = rows.stop - rows.start
            wb, t = buf[:, :m], tmp[:, :m]
            s, d = wb[2 : k + 2], wb[k + 2 :]
            yb, yub = y[rows].T, y_u[rows].T
            # a = y - shift is exact when the shift is close to y, so large
            # offsets cancel before any product is formed; d needs no shift
            np.subtract(yb, shift_col, out=s)
            np.subtract(yub, shift_col, out=t)
            s += t
            np.subtract(yb, yub, out=d)
            np.square(s, out=t)
            np.add.reduce(t, axis=0, out=wb[0])
            max_s2 = max(max_s2, float(t.max()))
            np.square(d, out=t)
            np.add.reduce(t, axis=0, out=wb[1])
            max_d2 = max(max_d2, float(t.max()))
            block_sum = wb.sum(axis=1)
            block_mean = block_sum / m
            if rows.start:
                delta = block_mean - total / rows.start
                m2 += np.outer(delta, delta) * (rows.start * m / (rows.start + m))
            wb -= block_mean[:, None]
            # wb @ wb.T is a symmetric rank-m update, so m2 stays exactly
            # symmetric, and zero d rows stay exactly zero
            m2 += wb @ wb.T
            total += block_sum
        mean_w = total / n
        mean_d = mean_w[k + 2 :]
        centered = 0.25 * m2[2 : k + 2, 2 : k + 2]
        diff = 0.25 * (m2[k + 2 :, k + 2 :] + n * np.outer(mean_d, mean_d))
        # T = [|h|^2, |e|^2, h] = [|s|^2 / 4, |d|^2 / 4, s / 2]
        factor = np.full(k + 2, 0.5)
        factor[:2] = 0.25
        table_mean = mean_w[: k + 2] * factor
        table_cov = m2[: k + 2, : k + 2] * np.outer(factor, factor) / n
    if not (np.isfinite(m2).all() and np.isfinite(diff).all()):
        bad = np.flatnonzero(~(np.isfinite(y).all(axis=1) & np.isfinite(y_u).all(axis=1)))
        if bad.size:  # rows counted from 1, as in the sample file
            raise DegenerateSampleError(f"sample output row {bad[0] + 1} is not finite")
        raise DegenerateSampleError("sample moments overflow: the outputs are too large")
    for a in (shift, centered, diff, table_mean, table_cov):
        a.flags.writeable = False
    return PairMoments(
        shift=shift,
        centered_gram=centered,
        diff_gram=diff,
        table_mean=table_mean,
        table_cov=table_cov,
        scale=0.5 * (float(np.sqrt(max_s2)) + float(np.sqrt(max_d2))),
    )


def pair_table(sample: PickFreezeSample) -> np.ndarray:
    """Per-pair statistics T_i = [|h_i|^2, |e_i|^2, h_i], shape (n, k + 2).

    Their column means U, V and hbar give the estimator as
    (U - V - |hbar|^2) / (U + V - |hbar|^2); the moments kernel holds their
    mean and covariance. Built on demand for the bootstrap and never cached:
    it is as large as the sample.
    """
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
    if not np.isfinite(m).all():
        raise ContractError("weight matrix must be finite")
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
    return PickFreezeSample._adopt(data[:, :k], data[:, k:], subset)

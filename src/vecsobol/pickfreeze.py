"""Pick-freeze designs, paired evaluation, and the sensitivity estimator.

The estimator is the plug-in ratio

    numerator   = sum_l [ sum_i Y_il Yu_il - (1/N) (sum_i (Y_il + Yu_il)/2)^2 ]
    denominator = sum_l [ sum_i (Y_il^2 + Yu_il^2)/2
                          - (1/N) (sum_i (Y_il + Yu_il)/2)^2 ]

of the diagonal sums of the empirical covariance matrices. Both sums are
invariant under a common translation of Y and Yu, but the raw sums are not in
floating point: they cancel catastrophically once the output mean dwarfs its
spread. So each sample is reduced once, on shifted outputs a = Y - c and
b = Yu - c, where the pilot shift c, which need only lie near the data, is
the pair mean of the first block of rows (Chan, Golub & LeVeque 1983). In
terms of the pair mean h = (a + b)/2 and the half difference e = (a - b)/2
of a row,

    total  = sum_i (h_i - hbar)(h_i - hbar)^T + sum_i e_i e_i^T
    subset = sum_i (h_i - hbar)(h_i - hbar)^T - sum_i e_i e_i^T.

The kernel reads a sample once, in fixed blocks of _BLOCK_ROWS rows: its
block step forms s = a + b, d = a - b and W = [|s|^2, |d|^2, s, d] per
block, whose centred cross-products are merged into running totals with
Chan's pairwise update. PairMoments, cached on the immutable sample, is the
one interface to a sample's statistics: the plug-in matrices total and
subset above, and the mean and covariance of the per-pair statistics
T_i = [|h_i|^2, |e_i|^2, h_i], whose column means U, V and hbar the
estimator is a function of. Estimates read the plug-in matrices and the
delta method in the inference module the covariance of T. For the
bootstrap, pair_table has the kernel write T's rows in its own pass, as it
forms each block's W, so there is one block step and one read of a sample
for its table and its moments together. Coincident
pairs have e = 0 exactly, so their two matrices are equal bit for bit; the
cross-products come from symmetric rank-k updates, so both matrices are
exactly symmetric; and the weighted estimator Tr(M C_hat)/Tr(M Sigma_hat)
reduces to the plain ratio at M = identity, bit for bit.

A denominator at or below the degeneracy floor PairMoments.floor =
1e-14 N (max |h| + max |e|)^2 is refused. It scales with N and the squared
shifted magnitude, so a constant model is rejected while a genuinely
small-variance one is not, whatever the outputs' offset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError, DegenerateSampleError, IllPosedIndexError
from .models import VectorModel, read_numeric_csv
from .spaces import InputSpace, SeedLike, SubsetIndex, _count, _matrix, sample_marginals, stream


@dataclass
class SharedDesign:
    """One pick-freeze design for all the groups of a run (Saltelli 2002).

    x is the base matrix A and x_prime one redraw B of the union of the
    groups' complement columns, in column order. Group u's second block A_u
    is A with u's complement columns taken from B, so every group's pair
    (A, A_u) is a standard pick-freeze pair and f(A) is evaluated once for
    all of them. Only the correlation between the groups' estimates differs
    from independent designs. A one-group design is a plain pick-freeze
    design: B is a redraw of that group's complement. Drawn designs and
    their second blocks are column-major (Fortran-ordered) n-by-p arrays.
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

    def design(self, subset: SubsetIndex) -> "SharedDesign":
        """Group u's own one-group design: its x is this x and its x_u(u) is
        ``self.x_u(u)``."""
        x_prime = self.x_prime[:, self._columns(subset)]
        return SharedDesign(x=self.x, x_prime=x_prime, subsets=(subset,))

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
        if 0 in y.shape:
            raise ContractError(f"a sample needs at least one paired row and one output, got {y.shape}")
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
        o = _matrix(matrix, "matrix", self.out_dims, self.out_dims)
        with np.errstate(over="ignore", invalid="ignore"):
            y, y_u = self.y @ o.T, self.y_u @ o.T
        finite = [np.isfinite(a).all() for a in (self.y, self.y_u, y, y_u)]
        if all(finite[:2]) and not all(finite[2:]):  # a non-finite sample is the estimator's to name
            raise ContractError("matrix overflows the sample outputs: composed outputs must be finite")
        return PickFreezeSample._adopt(y, y_u, self.subset)


@dataclass(frozen=True)
class PairMoments:
    """Sufficient statistics of a pick-freeze sample, on shifted outputs.

    With a = Y - shift and b = Yu - shift, h = (a + b)/2 and e = (a - b)/2
    per row (see the module docstring). total and subset are the plug-in
    matrices, N times the usual covariance estimates: their diagonal sums are
    exactly the estimator's denominator and numerator, and divided by n they
    are entrywise covariance estimates. Arrays are read-only.
    """

    shift: np.ndarray  # (k,) pilot shift: the pair mean of the first block of rows
    total: np.ndarray  # (k, k) sum_i (h_i - hbar)(h_i - hbar)^T + sum_i e_i e_i^T
    subset: np.ndarray  # (k, k) sum_i (h_i - hbar)(h_i - hbar)^T - sum_i e_i e_i^T
    table_mean: np.ndarray  # (k + 2,) column means of T = [|h|^2, |e|^2, h]
    table_cov: np.ndarray  # (k + 2, k + 2) covariance of T, divided by n
    floor: float  # the degeneracy floor of Tr(total) (module docstring)

    @property
    def mean(self) -> np.ndarray:
        """hbar, the mean of h."""
        return self.table_mean[2:]


def generate_design(
    space: InputSpace, subset: SubsetIndex | Sequence[SubsetIndex], n: int, seed: SeedLike
) -> SharedDesign:
    """Draw the pick-freeze design; deterministic in (space, subset, n, seed).

    x is drawn from stream(seed, 0) and x_prime, over the union of the
    groups' complements in column order, from stream(seed, 1). One
    subset stands for the one-group sequence (subset,), so one subset's
    design holds the same bytes whichever way it is asked for.
    """
    groups = (subset,) if isinstance(subset, SubsetIndex) else tuple(subset)
    if not groups:
        raise ContractError("a design needs at least one subset")
    for group in groups:
        if group.dims != space.dims:
            raise ContractError(
                f"subset is over {group.dims} inputs but the space has {space.dims}"
            )
    n = _count(n, "n")
    if n < 2:
        raise ContractError(f"pick-freeze needs n >= 2, got {n}")
    x = sample_marginals(space.marginals, n, stream(seed, 0))
    redrawn_marginals = tuple(space.marginals[j] for j in _redrawn(groups))
    x_prime = sample_marginals(redrawn_marginals, n, stream(seed, 1))
    return SharedDesign(x=x, x_prime=x_prime, subsets=groups)


def _frozen_mix(
    x: np.ndarray, x_prime: np.ndarray, complement: tuple[int, ...], columns: list[int]
) -> np.ndarray:
    """x with its complement columns taken from x_prime, in the original
    column order: complement column complement[i] is x_prime's column
    columns[i].

    The columns are stacked as the rows of a p-by-n array, which is returned
    as its transpose, like a drawn sample; each is one contiguous copy when x
    and x_prime are column-major as ``sample_marginals`` returns them."""
    column = dict(zip(complement, columns))
    return np.stack(
        [x_prime[:, column[j]] if j in column else x[:, j] for j in range(x.shape[1])]
    ).T


def evaluate_pairs(model: VectorModel, design: SharedDesign) -> PickFreezeSample:
    """Evaluate (Y, Y^u) at a one-group design's blocks x and x_u(u), in row
    chunks as evaluate_shared does."""
    if len(design.subsets) != 1:
        raise ContractError(
            f"evaluate_pairs takes a one-group design, got {len(design.subsets)} groups; "
            "use evaluate_shared"
        )
    return next(evaluate_shared(model, design))


def evaluate_shared(model: VectorModel, design: SharedDesign) -> Iterator[PickFreezeSample]:
    """Evaluate Y = f(x) once, then each group's Y^u in turn; yields the
    groups' samples in order, which all hold that one Y.

    (1 + s) n rows are evaluated for s groups, in chunks of _EVAL_ROWS rows
    that are copied into one n-by-k output per block, so no whole second
    block x_u(u) is ever built: memory holds the design, Y, the current
    group's Y^u and one chunk. A group's sample is dropped here before the
    next group is evaluated, so a caller that drops it too holds one group's
    outputs at a time. The outputs are fresh arrays, so the samples take
    them without a copy and never alias the design or the model's returns.
    """
    if model.in_dims != design.x.shape[1]:
        raise ContractError(
            f"model expects {model.in_dims} inputs but the design has {design.x.shape[1]}"
        )
    x, x_prime = design.x, design.x_prime
    y = _evaluate_chunks(model, x.shape[0], lambda rows: x[rows])
    for subset in design.subsets:
        complement, columns = subset.complement, design._columns(subset)
        y_u = _evaluate_chunks(
            model, x.shape[0], lambda rows: _frozen_mix(x[rows], x_prime[rows], complement, columns)
        )
        sample = PickFreezeSample._adopt(y, y_u, subset)
        del y_u
        yield sample
        del sample  # else it, and its y_u, outlive the next group's evaluation


# Rows per model call in evaluate_shared. It is a constant, never read from
# the machine, and a power of two, so every chunk but the last starts where a
# whole-block BLAS product would start a row tile, and a row's outputs have
# the same bits as when the block is evaluated whole. A chunk's inputs and
# outputs take (p + k) * 8 B per row, 1.3 MB for p = 6, k = 4, within a
# core's L2. cli.run at n=5e5, p=6, k=4, 7 groups, one BLAS thread (2-vCPU
# Xeon, 2 MiB L2 per core), median time of 15 runs and tracemalloc peak,
# by chunk (whole blocks: 99.2 MiB):
#   8192 0.44 s 76.9 MiB | 16384 0.44 s 77.6 MiB | 32768 0.46 s 78.8 MiB | 65536 0.46 s 81.3 MiB
_EVAL_ROWS = 16384


def _evaluate_chunks(
    model: VectorModel, n: int, block: Callable[[slice], np.ndarray]
) -> np.ndarray:
    """f over the n rows of a block, evaluated chunk by chunk into one
    n-by-k array; block(rows) gives a chunk's inputs.

    A one-row tail joins the chunk before it: numpy evaluates a one-row
    matrix product as a vector product, whose bits can differ from the same
    row's in a matrix product.
    """
    out = np.empty((n, model.out_dims))
    bounds = [*range(0, max(n - 1, 1), _EVAL_ROWS), n]
    for start, stop in zip(bounds, bounds[1:]):
        out[start:stop] = model.evaluate(block(slice(start, stop)))
    return out


# Rows reduced per step of the moments kernel and of the bootstrap sums, and
# grid cells per step of the grid oracle's weighted Gram sums, so that no
# weighted copy of a whole grid tensor is made. It is a constant, never read
# from the machine: partial sums are added in block order, and a BLAS product
# over one block gave the same bits under one and two OpenBLAS threads, where
# a product over 5e5 rows did not (its rows are split between the threads).
# For a few outputs the kernel's block buffers (3k + 2 rows of 4096 floats)
# stay in a core's L2 cache. Kernel time at n=5e5, k=4, one BLAS thread
# (2-vCPU Xeon, 2 MiB L2 per core), by block:
#   1024 56 ms | 2048 47 ms | 4096 42 ms | 8192 38 ms | 16384 41 ms | 65536 53 ms
_BLOCK_ROWS = 4096


def _row_blocks(n: int):
    """Row slices of at most _BLOCK_ROWS rows, in order."""
    for start in range(0, n, _BLOCK_ROWS):
        yield slice(start, min(start + _BLOCK_ROWS, n))


def _table_factor(k: int) -> np.ndarray:
    """T = [|h|^2, |e|^2, h] = [|s|^2 / 4, |d|^2 / 4, s / 2] over W's first k + 2 rows."""
    return np.array([0.25, 0.25] + [0.5] * k)


def _pair_moments(y: np.ndarray, y_u: np.ndarray, table: Optional[np.ndarray] = None) -> PairMoments:
    """Reduce a sample in row blocks into its PairMoments, and write its pair
    table T into table when one is given.

    The pilot shift is the pair mean of the first block's rows. One pass
    then forms each block's W = [|s|^2, |d|^2, s, d], where s = a + b = 2h
    and d = a - b = 2e on the shifted outputs, held transposed so that every
    step runs along the block's rows; writes the block's rows of T; centres
    W on the block's own means and merges the blocks' centred cross-products
    with Chan's pairwise update. The quarter and half factors of h and e are
    powers of two, applied once at the end.
    """
    n, k = y.shape
    w = 2 * k + 2
    total = np.zeros(w)
    m2 = np.zeros((w, w))
    max_s2 = max_d2 = 0.0
    factor = _table_factor(k)
    # finite outputs too large to square overflow here; that is checked below
    with np.errstate(over="ignore", invalid="ignore"):
        first = min(n, _BLOCK_ROWS)
        ones = np.ones(first)
        # on C-ordered rows, since a product's bits depend on its operands' layout
        head, head_u = (np.ascontiguousarray(a[:first]) for a in (y, y_u))
        shift = (ones @ head + ones @ head_u) / (2 * first)
        buf, tmp = np.empty((w, first)), np.empty((k, first))
        for rows in _row_blocks(n):
            m = rows.stop - rows.start
            wb, t = buf[:, :m], tmp[:, :m]
            s, d = wb[2 : k + 2], wb[k + 2 :]
            yb, yub = y[rows].T, y_u[rows].T
            # a = y - shift is exact when the shift is close to y, so large
            # offsets cancel before any product is formed; d needs no shift
            np.subtract(yb, shift[:, None], out=s)
            np.subtract(yub, shift[:, None], out=t)
            s += t
            np.subtract(yb, yub, out=d)
            np.square(s, out=t)
            np.add.reduce(t, axis=0, out=wb[0])
            max_s2 = max(max_s2, float(t.max()))
            np.square(d, out=t)
            np.add.reduce(t, axis=0, out=wb[1])
            max_d2 = max(max_d2, float(t.max()))
            if table is not None:
                np.multiply(wb[: k + 2].T, factor, out=table[rows])
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
        table_mean = mean_w[: k + 2] * factor
        table_cov = m2[: k + 2, : k + 2] * np.outer(factor, factor) / n
    if not (np.isfinite(m2).all() and np.isfinite(diff).all()):
        bad = np.flatnonzero(~(np.isfinite(y).all(axis=1) & np.isfinite(y_u).all(axis=1)))
        if bad.size:  # rows counted from 1, as in the sample file
            raise DegenerateSampleError(f"sample output row {bad[0] + 1} is not finite")
        raise DegenerateSampleError("sample moments overflow: the outputs are too large")
    total, subset = centered + diff, centered - diff
    for a in (shift, total, subset, table_mean, table_cov):
        a.flags.writeable = False
    scale = 0.5 * (float(np.sqrt(max_s2)) + float(np.sqrt(max_d2)))  # max |h| + max |e|
    return PairMoments(shift, total, subset, table_mean, table_cov, floor=1e-14 * scale * scale * n)


def pair_table(sample: PickFreezeSample, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-pair statistics T_i = [|h_i|^2, |e_i|^2, h_i], shape (n, k + 2).

    Their column means U, V and hbar give the estimator as
    (U - V - |hbar|^2) / (U + V - |hbar|^2); the moments kernel holds their
    mean and covariance. Written by the moments kernel in its own pass over
    the rows, into out when given (an (n, k + 2) array or view, such as a
    slot of a batch) and else into a new array; a sample with no moments
    yet keeps the pass's. Never cached: it is as large as the sample.
    """
    shape = (sample.n, sample.out_dims + 2)
    if out is not None and out.shape != shape:
        raise ContractError(f"out must have shape {shape}, got {out.shape}")
    table = np.empty(shape) if out is None else out
    # the slot that cached_property fills
    sample.__dict__.setdefault("moments", _pair_moments(sample.y, sample.y_u, table))
    return table


def estimate_index(sample: PickFreezeSample) -> float:
    """The pick-freeze estimate of the identity-weighted index for this subset."""
    if sample.n < 2:
        raise ContractError(f"need at least 2 paired rows, got {sample.n}")
    mom = sample.moments
    denominator = float(np.trace(mom.total))
    if denominator <= mom.floor:
        raise DegenerateSampleError(
            f"sample denominator {denominator:.3e} is at the degeneracy floor; "
            "the model output appears constant"
        )
    return float(np.trace(mom.subset)) / denominator


def _weight_matrix(m: np.ndarray, k: int) -> np.ndarray:
    """A finite k-by-k weight matrix M, scaled by the power of two that puts
    max |M| in [0.5, 1). Scaling by a power of two is exact and no trace
    ratio depends on M's scale, so no index moves by a bit, while no finite
    M overflows or underflows the traces it weights."""
    m = _matrix(m, "weight matrix", k, k)
    return np.ldexp(m, -math.frexp(float(np.max(np.abs(m))))[1])


def estimate_index_general(sample: PickFreezeSample, m: np.ndarray) -> float:
    """Plug-in weighted estimate Tr(M C_hat)/Tr(M Sigma_hat).

    With the identity weighting this returns exactly estimate_index(sample).
    """
    m = _weight_matrix(m, sample.out_dims)
    if sample.n < 2:
        raise ContractError(f"need at least 2 paired rows, got {sample.n}")
    mom = sample.moments
    denominator = float(np.trace(m @ mom.total))
    if abs(denominator) <= mom.floor * float(np.max(np.abs(m))):
        raise IllPosedIndexError(
            f"Tr(M Sigma_hat) = {denominator:.3e} is too close to zero for this weighting"
        )
    return float(np.trace(m @ mom.subset)) / denominator


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

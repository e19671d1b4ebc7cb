"""Input spaces: independent marginals, coordinate subsets, and seeded sampling.

The joint input law is always a product of one-dimensional marginals.
Sampling is counter-based (Philox). Every seed stream of the package is a
child of the caller's seed addressed by its spawn key (stream): column j of
a sample is drawn from stream(seed, j), so a sample matrix is a pure
function of (space, n, seed) and per-column draws are independent by
construction. A SeedSequence passed in is read and never spawned from, so
two calls with one sequence give the same draws. A sample is held
column by column: each coordinate's n draws are one contiguous run of
memory, and the n-by-p matrix handed out is the transpose of that p-by-n
array (Fortran order), the layout the pick-freeze designs keep. Columns
are drawn in turn on the calling thread. _count owns the count rule and its
floor, _seed the seed rule and _matrix the matrix rule: a count is read as an
int of at least its floor, a seed as a non-negative int, and a matrix as a new
finite float array, or a ContractError names the argument. A marginal reads
each parameter as a finite float (_parameter, with _count's number test,
_is_real) and refuses a law whose variance is not finite, with a
ConfigurationError naming the parameter or the law. The CLI reads every count,
seed and parameter of its config file and flags through these same rules.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .errors import ConfigurationError, ContractError

SeedLike = Union[int, np.random.SeedSequence]


def _seed(value) -> int:
    """value as an int if it is a non-negative integer but no bool or float, else a ContractError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ContractError(f"seed must be an int or SeedSequence, got {type(value).__name__}")
    if value < 0:
        raise ContractError(f"seed must be a non-negative integer, got {value}")
    return int(value)


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize a non-negative integer seed (_seed) or a SeedSequence; a bool is no seed."""
    return seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(_seed(seed))


def stream(seed: SeedLike, *key: int) -> np.random.SeedSequence:
    """The child of seed at spawn key path key: the sequence that successive
    spawn() calls reach from a fresh copy of seed, without spawning from it."""
    root = as_seed_sequence(seed)
    return np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + key, pool_size=root.pool_size
    )


def _is_real(value) -> bool:
    """The number test of every count and marginal parameter: a real number but no bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _count(value, name: str, least: int | None = None) -> int:
    """value as an int if it is an integral real number but no bool and, when
    a floor least is given, not below it; else a ContractError naming it."""
    if not _is_real(value) or not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    count = int(value)
    if least is not None and count < least:
        raise ContractError(f"{name} must be >= {least}, got {count}")
    return count


def _parameter(value, name: str) -> float:
    """A marginal's parameter as a finite float, else a ConfigurationError naming it."""
    try:
        number = float(value) if _is_real(value) else math.nan
    except OverflowError:  # an int beyond the floats
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return number


def _parameters(values, name: str) -> tuple[float, ...]:
    """A discrete marginal's points or probs as a tuple of finite floats, each read by _parameter."""
    try:
        values = tuple(values)
    except TypeError:
        raise ConfigurationError(f"{name} must be a sequence of numbers, got {values!r}") from None
    return tuple(_parameter(v, f"{name}[{i}]") for i, v in enumerate(values))


def _check_variance(marginal, law: str) -> None:
    """Refuse a marginal whose variance is not finite: every index is a ratio of variances."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            finite = math.isfinite(marginal.variance)
    except OverflowError:  # a float's ** 2 raises where numpy's gives inf
        finite = False
    if not finite:
        raise ConfigurationError(f"{law} parameters give an infinite variance")


def _generator(seed: SeedLike) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(as_seed_sequence(seed)))


def _matrix(value, name: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """value as a new finite rows-by-cols float array (None: any length), else a ContractError naming it."""
    try:
        m = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ContractError(f"{name} must be equal-length rows of numbers") from None
    if m.ndim != 2 or any(d not in (None, s) for d, s in zip((rows, cols), m.shape)):
        raise ContractError(f"{name} must be {rows or 'n'}x{cols or 'm'}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ContractError(f"{name} must be finite")
    return m


# a rule is an eigenvalue problem (1.4 ms at 64 Legendre nodes), asked for per input and subset
@lru_cache(maxsize=32)
def _gauss_rule(rule, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss or hermgauss with this many nodes, as read-only arrays."""
    t, w = rule(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


@dataclass(frozen=True)
class Uniform:
    """Uniform law on the half-open interval [low, high)."""

    low: float = 0.0
    high: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "low", _parameter(self.low, "low"))
        object.__setattr__(self, "high", _parameter(self.high, "high"))
        if self.high <= self.low:
            raise ConfigurationError(f"uniform requires low < high, got [{self.low}, {self.high})")
        _check_variance(self, "uniform")

    @property
    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    @property
    def is_discrete(self) -> bool:
        return False

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre nodes/weights mapped to [low, high], weights summing to 1."""
        t, w = _gauss_rule(np.polynomial.legendre.leggauss, _count(nodes, "nodes", 1))
        x = 0.5 * (self.high - self.low) * t + 0.5 * (self.high + self.low)
        return x, w / 2.0


@dataclass(frozen=True)
class Normal:
    """Gaussian law with the given mean and standard deviation."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", _parameter(self.mean, "mean"))
        object.__setattr__(self, "sd", _parameter(self.sd, "sd"))
        if self.sd <= 0:
            raise ConfigurationError(f"normal requires sd > 0, got {self.sd}")
        _check_variance(self, "normal")

    @property
    def variance(self) -> float:
        return self.sd**2

    @property
    def is_discrete(self) -> bool:
        return False

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size=n)

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Hermite nodes/weights rescaled to N(mean, sd^2), weights summing to 1."""
        t, w = _gauss_rule(np.polynomial.hermite.hermgauss, _count(nodes, "nodes", 1))
        x = np.sqrt(2.0) * self.sd * t + self.mean
        return x, w / np.sqrt(np.pi)


@dataclass(frozen=True)
class Discrete:
    """Finite-support law given by points and matching probabilities."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", _parameters(self.points, "points"))
        object.__setattr__(self, "probs", _parameters(self.probs, "probs"))
        if len(self.points) == 0:
            raise ConfigurationError("discrete support must be non-empty")
        if len(self.points) != len(self.probs):
            raise ConfigurationError("discrete points and probs must have equal length")
        p = np.asarray(self.probs)
        if np.any(p < 0):
            raise ConfigurationError("discrete probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ConfigurationError(f"discrete probabilities must sum to 1, got {p.sum()!r}")
        _check_variance(self, "discrete")

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """The points of positive probability, and their probabilities."""
        p = np.asarray(self.probs)
        return np.asarray(self.points)[p > 0], p[p > 0]

    @property
    def mean(self) -> float:
        return float(np.dot(*self.support))

    @property
    def variance(self) -> float:
        x, p = self.support
        return float(np.dot((x - self.mean) ** 2, p))

    @property
    def is_discrete(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(np.asarray(self.points), size=n, p=np.asarray(self.probs))

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        _count(nodes, "nodes", 1)  # checked, then ignored: the support itself is the exact rule
        return self.support


Marginal = Union[Uniform, Normal, Discrete]


@dataclass(frozen=True)
class InputSpace:
    """Product law of independent one-dimensional marginals."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        if len(self.marginals) == 0:
            raise ConfigurationError("input space needs at least one marginal")
        object.__setattr__(self, "marginals", tuple(self.marginals))
        if not all(isinstance(m, (Uniform, Normal, Discrete)) for m in self.marginals):
            raise ContractError(f"marginals must be Uniform, Normal or Discrete, got {self.marginals}")

    @property
    def dims(self) -> int:
        return len(self.marginals)

    @property
    def all_discrete(self) -> bool:
        return all(m.is_discrete for m in self.marginals)

    def variances(self) -> np.ndarray:
        return np.array([m.variance for m in self.marginals])

    @classmethod
    def uniform(cls, dims: int) -> "InputSpace":
        return cls(tuple(Uniform() for _ in range(_count(dims, "dims"))))

    @classmethod
    def normal(cls, dims: int) -> "InputSpace":
        return cls(tuple(Normal() for _ in range(_count(dims, "dims"))))


def _coordinates(indices: Iterable) -> tuple[int, ...]:
    """indices as a tuple of ints, each read by _count."""
    indices = tuple(indices)
    try:
        return tuple(_count(i, "a subset coordinate") for i in indices)
    except ContractError:
        raise ContractError(f"subset coordinates must be integers, got {indices}") from None


@dataclass(frozen=True)
class SubsetIndex:
    """A non-empty group of input coordinates, stored 0-based and sorted.

    External text formats use 1-based coordinates; conversion happens at the
    parse boundary only (see from_one_based).
    """

    indices: tuple[int, ...]
    dims: int

    def __post_init__(self):
        object.__setattr__(self, "dims", _count(self.dims, "dims"))
        idx = tuple(sorted(_coordinates(self.indices)))
        if len(idx) == 0:
            raise ContractError("subset must be non-empty")
        if len(set(idx)) != len(idx):
            raise ContractError(f"subset has repeated coordinates: {idx}")
        if idx[0] < 0 or idx[-1] >= self.dims:
            raise ContractError(f"subset {idx} out of range for {self.dims} inputs")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_one_based(cls, indices: Iterable[int], dims: int) -> "SubsetIndex":
        return cls(tuple(i - 1 for i in _coordinates(indices)), dims)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def complement(self) -> tuple[int, ...]:
        inside = set(self.indices)
        return tuple(i for i in range(self.dims) if i not in inside)

    @property
    def is_full(self) -> bool:
        return self.size == self.dims

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.indices)


def sample_marginals(marginals: tuple[Marginal, ...], n: int, seed: SeedLike) -> np.ndarray:
    """Sample an n-by-len(marginals) matrix, column j from stream(seed, j).

    Each column is written as one contiguous row of a len(marginals)-by-n
    array, and the matrix returned is that array's transpose: Fortran
    ordered, with ``.T`` C-contiguous. The values do not depend on the layout.
    """
    n = _count(n, "n", 1)
    if len(marginals) == 0:
        return np.empty((n, 0))
    rows = np.empty((len(marginals), n))
    for j, (row, marginal) in enumerate(zip(rows, marginals)):
        row[:] = marginal.sample(_generator(stream(seed, j)), n)
    return rows.T


def sample_inputs(space: InputSpace, n: int, seed: SeedLike) -> np.ndarray:
    """Draw n i.i.d. input rows from the space; pure function of (space, n, seed)."""
    return sample_marginals(space.marginals, n, seed)

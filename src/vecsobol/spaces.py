"""Input spaces: independent marginals, coordinate subsets, and seeded sampling.

The joint input law is always a product of one-dimensional marginals.
Sampling is counter-based (Philox) and draws every coordinate from its own
spawned stream, so a sample matrix is a pure function of (space, n, seed)
and per-column draws are independent by construction. A sample is held
column by column: each coordinate's n draws are one contiguous run of
memory, and the n-by-p matrix handed out is the transpose of that p-by-n
array (Fortran order), the layout the pick-freeze designs keep.

Because no column shares a stream with another, the columns of a sample of
at least _PARALLEL_MIN_DRAWS draws in all (rows times columns) are filled
concurrently, on threads started for the call and joined before it returns,
up to one per CPU this process may run on (numpy releases the GIL while it
generates). Every column comes from the same stream either way, so results
do not depend on the number of threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

import numpy as np

from .errors import ConfigurationError, ContractError

SeedLike = Union[int, np.random.SeedSequence]


def as_seed_sequence(seed: SeedLike) -> np.random.SeedSequence:
    """Normalize an integer seed or an already-spawned SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise ContractError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


def _generator(seedseq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seedseq))


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
        if not np.isfinite(self.low) or not np.isfinite(self.high):
            raise ConfigurationError("uniform bounds must be finite")
        if self.high <= self.low:
            raise ConfigurationError(f"uniform requires low < high, got [{self.low}, {self.high})")

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
        t, w = _gauss_rule(np.polynomial.legendre.leggauss, nodes)
        x = 0.5 * (self.high - self.low) * t + 0.5 * (self.high + self.low)
        return x, w / 2.0


@dataclass(frozen=True)
class Normal:
    """Gaussian law with the given mean and standard deviation."""

    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.mean) or not np.isfinite(self.sd):
            raise ConfigurationError("normal parameters must be finite")
        if self.sd <= 0:
            raise ConfigurationError(f"normal requires sd > 0, got {self.sd}")

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
        t, w = _gauss_rule(np.polynomial.hermite.hermgauss, nodes)
        x = np.sqrt(2.0) * self.sd * t + self.mean
        return x, w / np.sqrt(np.pi)


@dataclass(frozen=True)
class Discrete:
    """Finite-support law given by points and matching probabilities."""

    points: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) == 0:
            raise ConfigurationError("discrete support must be non-empty")
        if len(self.points) != len(self.probs):
            raise ConfigurationError("discrete points and probs must have equal length")
        p = np.asarray(self.probs, dtype=float)
        if np.any(p < 0):
            raise ConfigurationError("discrete probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ConfigurationError(f"discrete probabilities must sum to 1, got {p.sum()!r}")
        if not np.all(np.isfinite(self.points)):
            raise ConfigurationError("discrete support points must be finite")
        object.__setattr__(self, "points", tuple(float(x) for x in self.points))
        object.__setattr__(self, "probs", tuple(float(x) for x in self.probs))

    @property
    def mean(self) -> float:
        return float(np.dot(self.points, self.probs))

    @property
    def variance(self) -> float:
        m = self.mean
        return float(np.dot((np.asarray(self.points) - m) ** 2, self.probs))

    @property
    def is_discrete(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.choice(np.asarray(self.points), size=n, p=np.asarray(self.probs))

    def quadrature(self, nodes: int) -> tuple[np.ndarray, np.ndarray]:
        # the support itself is the exact rule; node count is ignored
        return np.asarray(self.points), np.asarray(self.probs)


Marginal = Union[Uniform, Normal, Discrete]


@dataclass(frozen=True)
class InputSpace:
    """Product law of independent one-dimensional marginals."""

    marginals: tuple[Marginal, ...]

    def __post_init__(self):
        if len(self.marginals) == 0:
            raise ConfigurationError("input space needs at least one marginal")
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @property
    def dims(self) -> int:
        return len(self.marginals)

    @property
    def all_discrete(self) -> bool:
        return all(m.is_discrete for m in self.marginals)

    def variances(self) -> np.ndarray:
        return np.array([m.variance for m in self.marginals])

    @classmethod
    def uniform(cls, dims: int, low: float = 0.0, high: float = 1.0) -> "InputSpace":
        return cls(tuple(Uniform(low, high) for _ in range(dims)))

    @classmethod
    def normal(cls, dims: int, mean: float = 0.0, sd: float = 1.0) -> "InputSpace":
        return cls(tuple(Normal(mean, sd) for _ in range(dims)))


@dataclass(frozen=True)
class SubsetIndex:
    """A non-empty group of input coordinates, stored 0-based and sorted.

    External text formats use 1-based coordinates; conversion happens at the
    parse boundary only (see from_one_based).
    """

    indices: tuple[int, ...]
    dims: int

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        if len(idx) == 0:
            raise ContractError("subset must be non-empty")
        if len(set(idx)) != len(idx):
            raise ContractError(f"subset has repeated coordinates: {idx}")
        if idx[0] < 0 or idx[-1] >= self.dims:
            raise ContractError(f"subset {idx} out of range for {self.dims} inputs")
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_one_based(cls, indices: Iterable[int], dims: int) -> "SubsetIndex":
        return cls(tuple(int(i) - 1 for i in indices), dims)

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


# Draws in all (rows times columns) from which columns are filled
# concurrently, with threads started for each call. Uniform columns, the
# cheapest law, on a 2-vCPU host; medians of 300 alternating serial/threaded
# pairs, threaded second:
#   2 columns: 2^18 draws 1.73 / 2.04 ms | 3 * 2^17 3.54 / 2.78 | 2^19 5.33 / 3.70
#   4 columns: 2^18 draws 2.74 / 2.21 ms | 3 * 2^17 4.61 / 3.26 | 2^19 5.95 / 4.11
#   6 columns: 2^18 draws 3.55 / 2.91 ms | 3 * 2^17 5.41 / 5.09 | 2^19 7.24 / 5.32
# At 2^17 draws threads won under 10% of 200 pairs for 2, 3 and 6 columns.
# At 2^18 two columns are about even (threads won 4% and 42% of pairs in two
# runs) and wider samples gain, so the threshold sits there; two columns
# start threads at 2^17 rows, as when the threshold counted draws per column.
# A property of the input only, so small designs such as a replication
# study's stay serial.
_PARALLEL_MIN_DRAWS = 2**18


def _available_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def sample_marginals(
    marginals: tuple[Marginal, ...], n: int, seedseq: np.random.SeedSequence
) -> np.ndarray:
    """Sample an n-by-len(marginals) matrix, one spawned stream per column.

    Each column is written as one contiguous row of a len(marginals)-by-n
    array, and the matrix returned is that array's transpose: Fortran
    ordered, with ``.T`` C-contiguous. The values do not depend on the layout.
    """
    if n < 1:
        raise ContractError(f"sample size must be >= 1, got {n}")
    if len(marginals) == 0:
        return np.empty((n, 0))
    rows = np.empty((len(marginals), n))
    children = seedseq.spawn(len(marginals))

    def fill(j: int) -> None:
        rows[j] = marginals[j].sample(_generator(children[j]), n)

    draws = n * len(marginals)
    threads = min(_available_cpus(), len(marginals)) if draws >= _PARALLEL_MIN_DRAWS else 1
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads, thread_name_prefix="vecsobol-draw") as pool:
            # list() waits for every column and re-raises the first error
            list(pool.map(fill, range(len(marginals))))
    else:
        for j in range(len(marginals)):
            fill(j)
    return rows.T


def sample_inputs(space: InputSpace, n: int, seed: SeedLike) -> np.ndarray:
    """Draw n i.i.d. input rows from the space; pure function of (space, n, seed)."""
    return sample_marginals(space.marginals, n, as_seed_sequence(seed))

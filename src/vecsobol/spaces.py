"""Input spaces: independent marginals, coordinate subsets, and seeded sampling.

The joint input law is always a product of one-dimensional marginals.
Sampling is counter-based (Philox) and draws every coordinate from its own
spawned stream, so a sample matrix is a pure function of (space, n, seed)
and per-column draws are independent by construction.

Because no column shares a stream with another, columns of at least
_PARALLEL_MIN_DRAWS draws are filled concurrently from a thread pool, one
thread per CPU this process may run on (numpy releases the GIL while it
generates). The pool is built on the first such draw, never at import, and
dropped in a forked child. Every column comes from the same stream either
way, so results do not depend on the number of threads. Only the column
fill runs off the calling thread.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
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
        t, w = np.polynomial.legendre.leggauss(nodes)
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
        t, w = np.polynomial.hermite.hermgauss(nodes)
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

    @classmethod
    def from_mapping(cls, support: dict) -> "Discrete":
        items = sorted(support.items())
        return cls(tuple(x for x, _ in items), tuple(p for _, p in items))

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

    @property
    def all_continuous(self) -> bool:
        return not any(m.is_discrete for m in self.marginals)

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

    def complement_subset(self) -> "SubsetIndex":
        if self.is_full:
            raise ContractError("the full set has an empty complement")
        return SubsetIndex(self.complement, self.dims)

    def to_one_based(self) -> tuple[int, ...]:
        return tuple(i + 1 for i in self.indices)


# Draws per column from which columns are filled concurrently. It is the
# break-even of the cheapest law: two uniform columns took 1.75 ms serially
# and 1.61 ms on two threads at 2^16 draws, and no less on two threads below
# 2^14 (2-vCPU host). A property of the input only, so small designs such as
# a replication study's stay serial.
_PARALLEL_MIN_DRAWS = 2**16

_pool = None  # concurrent.futures.ThreadPoolExecutor, built on first use
_pool_lock = threading.Lock()


def _available_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def _column_pool(cpus: int):
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(max_workers=cpus, thread_name_prefix="vecsobol-draw")
        return _pool


def _drop_pool() -> None:
    # a forked child inherits the pool object but none of its threads, and
    # the lock in whatever state another thread held it
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def sample_marginals(
    marginals: tuple[Marginal, ...], n: int, seedseq: np.random.SeedSequence
) -> np.ndarray:
    """Sample an n-by-len(marginals) matrix, one spawned stream per column."""
    if n < 1:
        raise ContractError(f"sample size must be >= 1, got {n}")
    if len(marginals) == 0:
        return np.empty((n, 0))
    cols = np.empty((n, len(marginals)))
    children = seedseq.spawn(len(marginals))

    def fill(j: int) -> None:
        cols[:, j] = marginals[j].sample(_generator(children[j]), n)

    cpus = _available_cpus() if n >= _PARALLEL_MIN_DRAWS and len(marginals) > 1 else 1
    if cpus > 1:
        # list() waits for every column and re-raises the first error
        list(_column_pool(cpus).map(fill, range(len(marginals))))
    else:
        for j in range(len(marginals)):
            fill(j)
    return cols


def sample_inputs(space: InputSpace, n: int, seed: SeedLike) -> np.ndarray:
    """Draw n i.i.d. input rows from the space; pure function of (space, n, seed)."""
    return sample_marginals(space.marginals, n, as_seed_sequence(seed))

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from vecsobol import spaces
from vecsobol import (
    ConfigurationError,
    ContractError,
    Discrete,
    InputSpace,
    Normal,
    SubsetIndex,
    Uniform,
    sample_inputs,
)


def test_uniform_sampling_is_deterministic_and_in_range():
    space = InputSpace.uniform(2)
    a = sample_inputs(space, 4, 42)
    b = sample_inputs(space, 4, 42)
    assert a.shape == (4, 2)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0) and np.all(a < 1.0)


def test_different_seeds_differ():
    space = InputSpace.uniform(2)
    assert not np.array_equal(sample_inputs(space, 4, 42), sample_inputs(space, 4, 43))


def test_normal_sample_moments():
    # tolerance: three standard deviations of the mean/variance estimators
    x = sample_inputs(InputSpace.normal(1), 100_000, 1)[:, 0]
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.02


def test_discrete_sampling_stays_on_support():
    space = InputSpace((Discrete.from_mapping({0.0: 0.5, 1.0: 0.5}),))
    x = sample_inputs(space, 10, 3)[:, 0]
    assert set(np.unique(x)) <= {0.0, 1.0}


def test_discrete_distribution_matches_probabilities():
    space = InputSpace((Discrete((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3)),))
    x = sample_inputs(space, 200_000, 9)[:, 0]
    for point, prob in [(-1.0, 0.2), (0.0, 0.5), (2.0, 0.3)]:
        assert abs(np.mean(x == point) - prob) < 0.01


def test_cross_column_correlation_is_negligible():
    space = InputSpace(
        (Uniform(0, 1), Normal(0, 1), Uniform(-2, 3), Discrete((0.0, 1.0), (0.5, 0.5)))
    )
    x = sample_inputs(space, 200_000, 7)
    corr = np.corrcoef(x, rowvar=False)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.01


def test_marginal_validation():
    with pytest.raises(ConfigurationError):
        Uniform(1.0, 1.0)
    with pytest.raises(ConfigurationError):
        Normal(0.0, 0.0)
    with pytest.raises(ConfigurationError):
        Discrete((), ())
    with pytest.raises(ConfigurationError):
        Discrete((0.0, 1.0), (0.5, 0.6))
    with pytest.raises(ConfigurationError):
        Discrete((0.0,), (-1.0,))


def test_marginal_variances():
    assert Uniform(0, 1).variance == pytest.approx(1 / 12)
    assert Normal(3, 2).variance == 4.0
    d = Discrete((-1.0, 1.0), (0.5, 0.5))
    assert d.mean == 0.0 and d.variance == 1.0


def test_sample_size_contract():
    with pytest.raises(ContractError):
        sample_inputs(InputSpace.uniform(1), 0, 1)


def test_subset_index_basics():
    u = SubsetIndex((2, 0), 4)
    assert u.indices == (0, 2)
    assert u.complement == (1, 3)
    assert u.size == 2 and not u.is_full
    assert u.complement_subset().indices == (1, 3)
    assert SubsetIndex.from_one_based([1, 3], 4).indices == (0, 2)
    assert u.to_one_based() == (1, 3)


def test_subset_index_contracts():
    with pytest.raises(ContractError):
        SubsetIndex((), 2)
    with pytest.raises(ContractError):
        SubsetIndex((0, 0), 2)
    with pytest.raises(ContractError):
        SubsetIndex((2,), 2)
    with pytest.raises(ContractError):
        SubsetIndex((-1,), 2)
    full = SubsetIndex((0, 1), 2)
    assert full.is_full
    with pytest.raises(ContractError):
        full.complement_subset()


MIXED = InputSpace(
    (Uniform(-1, 2), Normal(3, 0.5), Discrete((0.0, 1.0, 4.0), (0.2, 0.3, 0.5)), Uniform(0, 1))
)


_column_pool = spaces._column_pool


@pytest.fixture
def fresh_pool(monkeypatch):
    """Start without a column pool; shut down whatever pool the test builds."""
    monkeypatch.setattr(spaces, "_pool", None)
    yield
    if spaces._pool is not None:
        spaces._pool.shutdown()


def _draw(monkeypatch, space, n, seed, cpus):
    """Sample as if `cpus` CPUs were available; returns (matrix, pool used)."""
    used = []
    monkeypatch.setattr(spaces, "_available_cpus", lambda: cpus)
    monkeypatch.setattr(spaces, "_column_pool", lambda c: used.append(c) or _column_pool(c))
    return sample_inputs(space, n, seed), bool(used)


@pytest.mark.parametrize("space", [MIXED, InputSpace.normal(1), InputSpace(MIXED.marginals[2:3])],
                         ids=["mixed", "p=1 normal", "p=1 discrete"])
def test_column_draws_do_not_depend_on_the_thread_count(monkeypatch, fresh_pool, space):
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 1)
    serial, used = _draw(monkeypatch, space, 1000, 17, cpus=1)
    assert not used
    for cpus in (2, 3):
        parallel, used = _draw(monkeypatch, space, 1000, 17, cpus)
        assert used == (space.dims > 1)
        assert parallel.tobytes() == serial.tobytes()
        if spaces._pool is not None:  # the next count builds a pool of its own size
            spaces._pool.shutdown()
            spaces._pool = None


def test_threads_start_at_the_threshold(monkeypatch, fresh_pool):
    threshold = spaces._PARALLEL_MIN_DRAWS
    for n, parallel_path in ((threshold - 1, False), (threshold, True)):
        serial, used = _draw(monkeypatch, MIXED, n, 23, cpus=1)
        assert not used
        parallel, used = _draw(monkeypatch, MIXED, n, 23, cpus=2)
        assert used == parallel_path
        assert parallel.tobytes() == serial.tobytes()


def test_concurrent_callers_share_one_pool(monkeypatch, fresh_pool):
    # more callers and pool threads than cores, switching threads often
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 1)
    monkeypatch.setattr(spaces, "_available_cpus", lambda: 1)
    expected = [sample_inputs(MIXED, 500, seed) for seed in range(8)]
    monkeypatch.setattr(spaces, "_available_cpus", lambda: 4)
    pools, got = set(), [None] * 8

    def draw(seed):
        for _ in range(20):
            got[seed] = sample_inputs(MIXED, 500, seed)
            pools.add(id(spaces._pool))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=draw, args=(seed,)) for seed in range(8)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(pools) == 1
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert spaces._available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spaces._available_cpus() == 1


def test_one_cpu_draws_serially_without_a_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    x = sample_inputs(MIXED, spaces._PARALLEL_MIN_DRAWS, 29)
    assert spaces._pool is None
    assert x.shape == (spaces._PARALLEL_MIN_DRAWS, MIXED.dims)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_after_a_parallel_draw(monkeypatch, fresh_pool):
    monkeypatch.setattr(spaces, "_available_cpus", lambda: 2)
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 16)
    expected = sample_inputs(MIXED, 64, 31)
    assert spaces._pool is not None  # the parent drew on the parallel path
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # forking a process that runs threads is the point of this test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # child: without the at-fork hook the inherited pool has no threads
        code = 1
        try:
            if spaces._pool is None:
                os.write(write_end, sample_inputs(MIXED, 64, 31).tobytes())
                code = 0 if spaces._pool is not None else 2
        finally:
            os._exit(code)
    os.close(write_end)
    deadline = time.monotonic() + 30.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)
            pytest.fail("the forked child hung drawing a design")
        time.sleep(0.01)
    with os.fdopen(read_end, "rb") as fh:
        got = fh.read()
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert got == expected.tobytes()

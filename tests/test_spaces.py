import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    space = InputSpace((Discrete((0.0, 1.0), (0.5, 0.5)),))
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


def test_gauss_rules_are_cached_by_node_count(monkeypatch):
    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counting(nodes):
        calls.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    spaces._gauss_rule.cache_clear()
    marginals = (Uniform(0.0, 1.0), Uniform(-2.0, 3.5))
    rules = [m.quadrature(17) for m in marginals]
    assert calls == [17]
    t, w = leggauss(17)
    for m, (x, weights) in zip(marginals, rules):
        # the uncached formula, bit for bit
        assert x.tobytes() == (0.5 * (m.high - m.low) * t + 0.5 * (m.high + m.low)).tobytes()
        assert weights.tobytes() == (w / 2.0).tobytes()
    cached = spaces._gauss_rule(counting, 17)
    assert not cached[0].flags.writeable and not cached[1].flags.writeable
    spaces._gauss_rule.cache_clear()


def test_sample_size_contract():
    with pytest.raises(ContractError):
        sample_inputs(InputSpace.uniform(1), 0, 1)


def test_subset_index_basics():
    u = SubsetIndex((2, 0), 4)
    assert u.indices == (0, 2)
    assert u.complement == (1, 3)
    assert u.size == 2 and not u.is_full
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


MIXED = InputSpace(
    (Uniform(-1, 2), Normal(3, 0.5), Discrete((0.0, 1.0, 4.0), (0.2, 0.3, 0.5)), Uniform(0, 1))
)


def _draw(monkeypatch, executors, space, n, seed, cpus):
    """Sample as if `cpus` CPUs were available; returns (matrix, pool opened)."""
    executors.clear()
    monkeypatch.setattr(spaces, "_available_cpus", lambda: cpus)
    return sample_inputs(space, n, seed), bool(executors)


@pytest.mark.parametrize("space", [MIXED, InputSpace.normal(1), InputSpace(MIXED.marginals[2:3])],
                         ids=["mixed", "p=1 normal", "p=1 discrete"])
def test_column_draws_do_not_depend_on_the_thread_count(monkeypatch, executors, space):
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 1)
    serial, used = _draw(monkeypatch, executors, space, 1000, 17, cpus=1)
    assert not used
    for cpus in (2, 3):
        parallel, used = _draw(monkeypatch, executors, space, 1000, 17, cpus)
        assert used == (space.dims > 1)
        assert parallel.tobytes() == serial.tobytes()


def _threshold_rows(space):
    """The fewest rows at which a sample of the space draws on threads."""
    return -(-spaces._PARALLEL_MIN_DRAWS // space.dims)


def _check_threshold(monkeypatch, executors, space):
    rows = _threshold_rows(space)
    for n, parallel_path in ((rows - 1, False), (rows, True)):
        serial, used = _draw(monkeypatch, executors, space, n, 23, cpus=1)
        assert not used
        parallel, used = _draw(monkeypatch, executors, space, n, 23, cpus=2)
        assert used == parallel_path
        assert parallel.tobytes() == serial.tobytes()


def test_threads_start_at_the_threshold(monkeypatch, executors):
    _check_threshold(monkeypatch, executors, MIXED)


@pytest.mark.parametrize("dims", [2, 6])
def test_the_threshold_counts_every_column(monkeypatch, executors, dims):
    # two columns start threads at 2^17 rows, as when the threshold counted
    # draws per column; six columns of 2^16 rows, which threads draw faster, do too
    space = InputSpace.uniform(dims)
    _check_threshold(monkeypatch, executors, space)
    assert _threshold_rows(space) == (2**17 if dims == 2 else 43_691)


def test_no_thread_outlives_a_parallel_draw(monkeypatch, executors):
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 1)
    before = threading.active_count()
    _, used = _draw(monkeypatch, executors, MIXED, 1000, 19, cpus=4)
    assert used and executors == [4]
    assert threading.active_count() == before
    assert not any(t.name.startswith("vecsobol-draw") for t in threading.enumerate())


def test_concurrent_callers_draw_the_serial_designs(monkeypatch, executors):
    # more callers and pool threads than cores, switching threads often
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 1)
    monkeypatch.setattr(spaces, "_available_cpus", lambda: 1)
    expected = [sample_inputs(MIXED, 500, seed) for seed in range(8)]
    assert not executors
    monkeypatch.setattr(spaces, "_available_cpus", lambda: 4)
    got = [None] * 8

    def draw(seed):
        for _ in range(20):
            got[seed] = sample_inputs(MIXED, 500, seed)

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
    assert len(executors) == 8 * 20
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    laws=st.lists(st.sampled_from(MIXED.marginals), min_size=1, max_size=8),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_columns_are_contiguous_rows_of_their_own_streams(laws, n, seed):
    marginals = tuple(laws)
    streams = np.random.SeedSequence(seed).spawn(len(marginals))
    expected = [m.sample(spaces._generator(s), n) for m, s in zip(marginals, streams)]
    for threshold in (1, n + 1):  # the threaded path, then the serial one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces, "_PARALLEL_MIN_DRAWS", threshold)
            mp.setattr(spaces, "_available_cpus", lambda: 3)
            x = spaces.sample_marginals(marginals, n, np.random.SeedSequence(seed))
        assert x.shape == (n, len(marginals))
        assert x.T.flags.c_contiguous
        for j, column in enumerate(expected):
            assert x[:, j].tobytes() == column.tobytes()


def test_worker_count_falls_back_to_cpu_count(monkeypatch):
    # macOS and Windows have no sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert spaces._available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert spaces._available_cpus() == 1


def test_one_cpu_draws_serially_without_a_pool(monkeypatch, executors):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    x = sample_inputs(MIXED, _threshold_rows(MIXED), 29)
    assert not executors
    assert x.shape == (_threshold_rows(MIXED), MIXED.dims)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_draws_after_a_parallel_draw(monkeypatch, executors):
    monkeypatch.setattr(spaces, "_available_cpus", lambda: 2)
    monkeypatch.setattr(spaces, "_PARALLEL_MIN_DRAWS", 16)
    expected = sample_inputs(MIXED, 64, 31)
    assert executors  # the parent drew on the parallel path
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # forking a process that may run threads is the point of this test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # child: it must open threads of its own and finish
        code = 1
        try:
            executors.clear()
            os.write(write_end, sample_inputs(MIXED, 64, 31).tobytes())
            code = 0 if executors else 2
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

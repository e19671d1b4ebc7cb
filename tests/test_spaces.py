import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecsobol import spaces
from vecsobol.cli import config_from_tree
from vecsobol.inference import _PATTERN_STREAM_TAG
from vecsobol.oracle import _ORACLE_STREAM_TAG
from vecsobol.pickfreeze import _BLOCK_ROWS
from vecsobol import (
    ConfigurationError,
    ContractError,
    CovarianceTriple,
    Discrete,
    InputSpace,
    Normal,
    SubsetIndex,
    Uniform,
    VecSobolError,
    VectorModel,
    apply_transform,
    bootstrap_ci,
    clt_diagnostic,
    covariances_linear,
    covariances_monte_carlo,
    covariances_quadrature,
    decompose_grid,
    delta_ci,
    estimate_index_general,
    evaluate_pairs,
    exact_index,
    generate_design,
    get_model,
    linear_model,
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
    for probs in [(float("nan"), 1.0), (float("nan"), float("nan"))]:  # NaN passes < 0 and the sum check
        with pytest.raises(ConfigurationError, match="finite"):
            Discrete((0.0, 1.0), probs)
    with pytest.raises(ConfigurationError, match="^points must be a sequence of numbers"):
        Discrete(1.0, 1.0)
    # every index is a ratio of variances: a law whose variance overflows is refused when built
    for law, make in [("uniform", lambda: Uniform(-1e308, 1e308)),
                      ("uniform", lambda: Uniform(-1e160, 1e160)),
                      ("normal", lambda: Normal(0.0, 1e160)),
                      ("discrete", lambda: Discrete((-1e200, 1e200), (0.5, 0.5)))]:
        with pytest.raises(ConfigurationError, match=f"^{law} parameters give an infinite variance"):
            make()
    # a space is built of marginals only, so a bad one fails here and not at the draw
    for marginals in [(1.0,), "ab", (Uniform(), None), (Uniform(), Uniform)]:
        with pytest.raises(ContractError, match="marginals must be Uniform, Normal or Discrete"):
            InputSpace(marginals)


def test_marginal_variances():
    assert Uniform(0, 1).variance == pytest.approx(1 / 12)
    assert Normal(3, 2).variance == 4.0
    d = Discrete((-1.0, 1.0), (0.5, 0.5))
    assert d.mean == 0.0 and d.variance == 1.0
    # a zero-probability point enters no moment and no rule, however far out
    far = Discrete((1e200, -1.0, 1.0), (0.0, 0.5, 0.5))
    assert far.mean == 0.0 and far.variance == 1.0
    assert [a.tolist() for a in far.quadrature(3)] == [[-1.0, 1.0], [0.5, 0.5]]


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
    for indices in [(0.7,), (0, 1.5), (float("nan"),)]:  # int() would truncate or raise
        with pytest.raises(ContractError, match="integers"):
            SubsetIndex(indices, 2)
    with pytest.raises(ContractError, match="integers"):
        SubsetIndex.from_one_based([1.5], 2)
    for indices in [("1",), (True,), (np.bool_(True),)]:  # a string or a bool is no coordinate
        with pytest.raises(ContractError, match="integers"):
            SubsetIndex(indices, 2)
        with pytest.raises(ContractError, match="integers"):
            SubsetIndex.from_one_based(indices, 2)
    assert SubsetIndex.from_one_based([np.int64(2), 1.0], 2).indices == (0, 1)
    assert SubsetIndex((np.int64(1), 0.0), 2).indices == (0, 1)
    full = SubsetIndex((0, 1), 2)
    assert full.is_full


@pytest.mark.parametrize("seed", [-1, -3, np.int64(-2)])
def test_a_negative_seed_is_a_contract_error_naming_it(seed):
    with pytest.raises(ContractError, match=f"got {int(seed)}$"):
        generate_design(InputSpace.uniform(2), SubsetIndex((0,), 2), 10, seed)
    with pytest.raises(ContractError, match=f"got {int(seed)}$"):
        sample_inputs(InputSpace.uniform(2), 10, seed)


@pytest.mark.parametrize("seed", [True, False, np.bool_(True)])
def test_a_boolean_seed_is_a_contract_error(seed):
    with pytest.raises(ContractError, match="got bool$"):
        generate_design(InputSpace.uniform(2), SubsetIndex((0,), 2), 10, seed)
    with pytest.raises(ContractError, match="got bool$"):
        sample_inputs(InputSpace.uniform(2), 10, seed)


def _words(tag):
    """tag's 32-bit words, least significant first: numpy hashes a spawn key
    entry wider than 32 bits as these words, each a key entry of its own."""
    words = [tag & 0xFFFFFFFF]
    while tag >> 32:
        tag >>= 32
        words.append(tag & 0xFFFFFFFF)
    return words


def _spawned(root, key):
    """The child at key, reached by spawn() from a fresh copy of each node,
    word by word: a small index by spawning its elder siblings first, a
    larger one from a copy that has already spawned that many children."""
    node = root
    for i in (word for tag in key for word in _words(tag)):
        skipped = 0 if i < 64 else i
        fresh = np.random.SeedSequence(node.entropy, spawn_key=node.spawn_key,
                                       pool_size=node.pool_size, n_children_spawned=skipped)
        node = fresh.spawn(i + 1 - skipped)[-1]
    return node


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    entropy=st.integers(0, 2**128),
    pool_size=st.sampled_from([4, 8]),
    key=st.lists(
        st.one_of(st.integers(0, 70), st.integers(2**32, 2**80),
                  st.sampled_from([_PATTERN_STREAM_TAG, _ORACLE_STREAM_TAG])),
        max_size=4,
    ),
)
def test_stream_is_the_child_that_successive_spawns_reach(entropy, pool_size, key):
    root = np.random.SeedSequence(entropy, pool_size=pool_size)
    child = spaces.stream(root, *key)
    assert child.spawn_key == tuple(key)
    assert root.n_children_spawned == 0
    expected = _spawned(np.random.SeedSequence(entropy, pool_size=pool_size), key)
    assert child.generate_state(8).tobytes() == expected.generate_state(8).tobytes()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    entropy=st.integers(0, 2**64),
    spawn_key=st.lists(st.integers(0, 5), max_size=2),
    spawned=st.integers(0, 3),
    ci_method=st.sampled_from(["delta", "bootstrap"]),
)
def test_a_seed_sequence_gives_the_same_bytes_twice_and_is_not_spawned_from(
    entropy, spawn_key, spawned, ci_method
):
    seed = np.random.SeedSequence(entropy, spawn_key=spawn_key, n_children_spawned=spawned)
    model = get_model("sum_prod")
    space, u = model.space(), SubsetIndex((0,), 2)
    sample = evaluate_pairs(model, generate_design(space, u, 50, 3))

    def outputs():
        design = generate_design(space, [u, SubsetIndex((1,), 2)], 40, seed)
        triple = covariances_monte_carlo(model, space, u, 200, seed)
        boot = bootstrap_ci(sample, 200, 0.9, seed)
        study = clt_diagnostic(model, space, u, 12, 200, 0.5, seed, ci_method=ci_method)
        return [sample_inputs(MIXED, 30, seed).tobytes(), design.x.tobytes(),
                design.x_prime.tobytes(), triple.total.tobytes(), triple.subset.tobytes(),
                repr((boot.ci_low, boot.ci_high)), study.estimates.tobytes()]

    assert outputs() == outputs()
    assert seed.n_children_spawned == spawned


MIXED = InputSpace(
    (Uniform(-1, 2), Normal(3, 0.5), Discrete((0.0, 1.0, 4.0), (0.2, 0.3, 0.5)), Uniform(0, 1))
)


def test_concurrent_callers_draw_the_serial_designs(executors):
    # more callers than cores, switching threads often
    expected = [sample_inputs(MIXED, 500, seed) for seed in range(8)]
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
    assert not executors
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def test_a_draw_starts_no_thread(executors):
    # a design the size of the bigN_delta benchmark's: six normal columns
    before = threading.active_count()
    x = sample_inputs(InputSpace.normal(6), 500_000, 37)
    assert x.shape == (500_000, 6)
    assert not executors
    assert threading.active_count() == before


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
    x = spaces.sample_marginals(marginals, n, np.random.SeedSequence(seed))
    assert x.shape == (n, len(marginals))
    assert x.T.flags.c_contiguous
    for j, column in enumerate(expected):
        assert x[:, j].tobytes() == column.tobytes()


@pytest.mark.parametrize(
    "law", [Uniform(-2.0, 3.0), Normal(1.5, 2.0), Discrete((-1.0, 0.0, 2.0), (0.2, 0.5, 0.3))]
)
def test_a_column_drawn_in_evaluation_chunks_equals_the_whole_draw(law):
    # a column's stream continues across calls, so a run that draws its design
    # one evaluation chunk at a time draws today's design
    n = 3 * _BLOCK_ROWS + 5
    child = np.random.SeedSequence(11).spawn(1)[0]
    whole = law.sample(spaces._generator(child), n)
    gen = spaces._generator(child)
    bounds = [*range(0, n, _BLOCK_ROWS), n]
    assert bounds[-1] - bounds[-2] == 5  # a short tail
    chunked = np.concatenate([law.sample(gen, b - a) for a, b in zip(bounds, bounds[1:])])
    assert chunked.tobytes() == whole.tobytes()


@pytest.fixture(scope="module")
def arguments():
    """Every count and level argument and marginal parameter of the library, as
    lists of (name, call with that argument set to a value and every other
    argument valid)."""
    model = get_model("sum_prod")
    space, u = model.space(), SubsetIndex((0,), 2)
    sample = evaluate_pairs(model, generate_design(space, u, 300, 1))
    study = dict(model=model, space=space, subset=u, n_per_rep=100, reps=200, target=15 / 31,
                 seed=1, ci_method="bootstrap")
    counts = [
        ("n", lambda v: sample_inputs(space, v, 1)),
        ("n", lambda v: spaces.sample_marginals(space.marginals, v, 1)),
        ("n", lambda v: generate_design(space, u, v, 1)),
        ("n", lambda v: covariances_monte_carlo(model, space, u, v, 1)),
        ("nodes_per_dim", lambda v: decompose_grid(model, space, u, v)),
        ("nodes_per_dim", lambda v: covariances_quadrature(model, space, u, v)),
        ("in_dims", lambda v: VectorModel(v, 2, "builtin", model.eval_fn)),
        ("out_dims", lambda v: VectorModel(2, v, "builtin", model.eval_fn)),
        ("dims", lambda v: SubsetIndex((0,), v)),
        ("dims", lambda v: InputSpace.uniform(v)),
        ("dims", lambda v: InputSpace.normal(v)),
        ("nodes", lambda v: Uniform().quadrature(v)),
        ("nodes", lambda v: Normal().quadrature(v)),
        ("nodes", lambda v: Discrete((0.0, 1.0), (0.5, 0.5)).quadrature(v)),
        ("coords", lambda v: get_model("u_only", dims=2, coords=(v,))),
        ("dims", lambda v: get_model("u_only", dims=v)),
        ("b_reps", lambda v: bootstrap_ci(sample, v, 0.95, 1)),
        ("reps", lambda v: clt_diagnostic(**study | {"reps": v})),
        ("n_per_rep", lambda v: clt_diagnostic(**study | {"n_per_rep": v})),
        ("b_reps", lambda v: clt_diagnostic(**study, b_reps=v)),
    ]
    levels = [
        ("level", lambda v: delta_ci(sample, v)),
        ("level", lambda v: bootstrap_ci(sample, 200, v, 1)),
        ("ci_level", lambda v: clt_diagnostic(**study, ci_level=v)),
    ]
    parameters = [
        ("low", lambda v: Uniform(v, 1.0)),
        ("high", lambda v: Uniform(0.0, v)),
        ("mean", lambda v: Normal(v, 1.0)),
        ("sd", lambda v: Normal(0.0, v)),
        ("points[1]", lambda v: Discrete((0.0, v), (0.5, 0.5))),
        ("probs[0]", lambda v: Discrete((0.0, 1.0), (v, 0.5))),
    ]
    return counts, levels, parameters


_NOT_A_NUMBER = st.one_of(st.text(max_size=5), st.booleans(), st.just(np.bool_(True)), st.none())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=st.one_of(_NOT_A_NUMBER, st.floats().filter(lambda x: not x.is_integer())))
@example(value="x")
@example(value=True)
@example(value=None)
@example(value=float("nan"))
@example(value=2.5)
def test_a_count_that_is_no_integral_number_is_a_contract_error_naming_it(arguments, value):
    # text, bools, None, NaN, +-inf and non-integral floats; never a bare TypeError
    for name, call in arguments[0]:
        with pytest.raises(ContractError, match=f"^{name} must be an integer, got "):
            call(value)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=st.one_of(_NOT_A_NUMBER, st.floats().filter(lambda x: not 0.0 < x < 1.0)))
@example(value="0.95")
@example(value=True)
@example(value=None)
def test_a_level_that_is_no_number_in_the_unit_interval_is_a_contract_error_naming_it(arguments, value):
    for name, call in arguments[1]:
        with pytest.raises(ContractError, match=f"^{name} must be a confidence level in \\(0, 1\\)"):
            call(value)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(value=st.one_of(_NOT_A_NUMBER, st.sampled_from([float("nan"), float("inf"), -float("inf")])))
@example(value="1")
@example(value=True)
@example(value=None)
def test_a_marginal_parameter_that_is_no_finite_number_is_a_configuration_error_naming_it(
        arguments, value):
    # never numpy's bare TypeError, and no bool read as 0 or 1
    for name, call in arguments[2]:
        with pytest.raises(ConfigurationError, match=f"^{re.escape(name)} must be a finite number, got "):
            call(value)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(2, 400), as_count=st.sampled_from([float, np.float32, np.int64, np.uint16]))
def test_an_integral_float_or_numpy_integer_count_gives_the_bytes_of_an_int(n, as_count):
    model, u = get_model("sum_prod"), SubsetIndex((0,), 2)
    space = model.space()
    assert sample_inputs(space, as_count(n), 5).tobytes() == sample_inputs(space, n, 5).tobytes()
    design, expected = generate_design(space, u, as_count(n), 5), generate_design(space, u, n, 5)
    assert design.x.tobytes() == expected.x.tobytes()
    assert design.x_prime.tobytes() == expected.x_prime.tobytes()
    sample = evaluate_pairs(model, expected)
    got, want = bootstrap_ci(sample, as_count(200), 0.95, 3), bootstrap_ci(sample, 200, 0.95, 3)
    assert type(got.b_reps) is int and repr(got) == repr(want)
    assert InputSpace.uniform(as_count(2)) == InputSpace.uniform(2)
    assert type(VectorModel(as_count(2), 2, "builtin", model.eval_fn).in_dims) is int
    assert type(SubsetIndex((0,), as_count(2)).dims) is int


@pytest.mark.parametrize("call", [
    lambda: Uniform().quadrature(0),
    lambda: Normal().quadrature(-1),
    lambda: Discrete((0.0, 1.0), (0.5, 0.5)).quadrature(0),
], ids=["uniform", "normal", "discrete"])
def test_a_quadrature_rule_needs_a_node(call):
    with pytest.raises(ContractError, match="^nodes must be >= 1, got "):
        call()


@pytest.fixture(scope="module")
def matrices():
    """Every matrix argument of the library, as (what its refusal must begin
    with, the error class, the shape it takes with None for any length, call
    with that argument set to a value and every other argument valid). Each
    call returns bytes that depend on everything it computed."""
    model, identity = get_model("sum_prod"), get_model("identity_2")
    u, eye = SubsetIndex((0,), 2), np.eye(2)
    sample = evaluate_pairs(model, generate_design(model.space(), u, 300, 1))
    triple = covariances_linear([[1.0, 2.0], [0.5, -1.0]], np.ones(2), u)
    x = sample_inputs(model.space(), 50, 2)
    config = {"model": "sum_prod", "subsets": [[1]], "n": 100}

    def parts(t):
        return b"".join(getattr(t, name).tobytes() for name in ("total", "subset", "complement",
                                                                 "interaction"))

    def pairs(s):
        return s.y.tobytes() + s.y_u.tobytes()

    def outputs(m):
        return m.evaluate(x if m.in_dims == 2 else x[:, :1]).tobytes()

    return [
        (ContractError, "weight matrix ", (2, 2),
         lambda v: repr(estimate_index_general(sample, v)).encode()),
        (ContractError, "weight matrix ", (2, 2), lambda v: repr(exact_index(triple, v)).encode()),
        (ContractError, "matrix ", (2, 2), lambda v: pairs(sample.left_compose(v))),
        (ContractError, "transform ", (2, 2), lambda v: outputs(apply_transform(model, v))),
        (ContractError, "transform ", (2, 2), lambda v: outputs(apply_transform(identity, v))),
        (ContractError, "composition matrix ", (2, 2), lambda v: parts(triple.left_compose(v))),
        (ContractError, "linear map ", (None, None), lambda v: parts(covariances_linear(v, np.ones(2), u))),
        (ContractError, "subset covariance ", (2, 2),
         lambda v: parts(CovarianceTriple(eye, v, eye, eye, "test"))),
        (ContractError, "complement covariance ", (2, 2),
         lambda v: parts(CovarianceTriple(eye, eye, v, eye, "test"))),
        (ContractError, "interaction covariance ", (2, 2),
         lambda v: parts(CovarianceTriple(eye, eye, eye, v, "test"))),
        (ConfigurationError, "linear model matrix ", (None, None), lambda v: outputs(linear_model(v))),
        (ConfigurationError, "matrix: ", (2, 2),
         lambda v: config_from_tree(config | {"matrix": v}).matrix.tobytes()),
        (ConfigurationError, "transform.matrix: ", (2, 2),
         lambda v: outputs(config_from_tree(
             config | {"transform": {"kind": "general_linear", "matrix": v}}).model)),
    ]


def _fits(shape, accepted):
    return len(shape) == 2 and all(a in (None, s) for a, s in zip(accepted, shape))


_ENTRY = st.floats(-4.0, 4.0)
_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
_WORD = st.text(alphabet="abxyz", min_size=1, max_size=4)  # text that no float parses
_RAGGED = st.lists(st.lists(_ENTRY, min_size=1, max_size=3), min_size=2, max_size=3).filter(
    lambda rows: len({len(row) for row in rows}) > 1)
_SHAPES = st.lists(st.integers(1, 3), max_size=3).map(tuple)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["ragged", "text", "entry", "none", "shape", "non-finite"]))
def test_a_bad_matrix_is_refused_naming_it(matrices, data, kind):
    # never numpy's bare ValueError or TypeError, and never a later failure
    # that blames a sample row or the model
    for error, prefix, accepted, call in matrices:
        good = np.eye(2) if None in accepted else np.eye(*accepted)
        if kind == "ragged":
            value = data.draw(_RAGGED)
        elif kind == "text":
            value = data.draw(_WORD)
        elif kind == "entry":  # text or None in one cell
            value = good.tolist()
            value[0][-1] = data.draw(_WORD | st.none())
        elif kind == "none":
            if prefix == "matrix: ":
                continue  # a null config field is an absent one
            value = None
        elif kind == "shape":
            value = np.ones(data.draw(_SHAPES.filter(lambda shape: not _fits(shape, accepted))))
        else:
            value = good.copy()
            value[data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))] = data.draw(_NON_FINITE)
        with pytest.raises(error, match=f"^{prefix}") as caught:
            call(value)
        assert type(caught.value) is error


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cells=st.lists(st.floats(-8.0, 8.0, width=32), min_size=4, max_size=4))
def test_a_matrix_as_a_list_a_tuple_or_float32_gives_the_bytes_of_float64(matrices, cells):
    value = np.array(cells).reshape(2, 2)
    forms = [value.tolist(), tuple(map(tuple, value.tolist())), value.astype(np.float32)]
    for _, _, _, call in matrices:
        outcomes = []
        for form in [value, *forms]:
            try:
                outcomes.append(call(form))
            except VecSobolError as exc:  # an ill-posed weight or a singular map, alike in every form
                outcomes.append((type(exc), str(exc)))
        assert outcomes[1:] == outcomes[:1] * 3

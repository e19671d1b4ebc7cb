"""Exact and quadrature-grade oracles for the variance decomposition.

For a model with independent inputs, the output splits into an orthogonal sum
of a constant, a part driven by the chosen input group, a part driven by the
remaining inputs, and their interaction. Taking covariance matrices of that
split gives

    total = subset + complement + interaction

and the generalized sensitivity index of the group, weighted by a square
matrix M, is the trace ratio Tr(M subset) / Tr(M total).

Three oracle routes produce the covariance triple: a closed form for linear
models, one tensor-grid route for any product of discrete and continuous
inputs (exact weighted enumeration of discrete supports, tensorized Gauss
quadrature for up to 4 smooth continuous inputs), and a large-sample Monte
Carlo route for library callers. ``exact_route`` alone picks between the
first two, from the model's kind and its input space. On a product grid the
decomposition identity holds exactly, so the grid route's residual is
rounding, not an estimate of quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import attrgetter
from typing import Callable, Optional

import numpy as np

from .errors import (ContractError, DegenerateModelError, DegenerateSampleError, IllPosedIndexError,
                     ResourceError)
from .models import VectorModel
from .pickfreeze import (_BLOCK_ROWS, _evaluate_chunks, _weight_matrix, evaluate_shared,
                         generate_design)
from .spaces import InputSpace, SubsetIndex, SeedLike, _count, _matrix, stream

MAX_GRID_NODES = 10_000_000
MAX_QUADRATURE_DIMS = 4
DEFAULT_QUADRATURE_NODES = 64
_PARTS = ("total", "subset", "complement", "interaction")  # the four fields of a CovarianceTriple


def _symmetrize(m: np.ndarray) -> np.ndarray:
    out = 0.5 * (m + m.T)
    out.flags.writeable = False
    return out


def _check_dims(model: VectorModel, space: InputSpace, subset: SubsetIndex) -> None:
    """The space and the subset must both span the model's inputs."""
    if space.dims != model.in_dims:
        raise ContractError(
            f"space has {space.dims} inputs but the model expects {model.in_dims}"
        )
    if subset.dims != space.dims:
        raise ContractError("subset dimensionality does not match the space")


def _check_positive_definite(sigma: np.ndarray, what: str) -> None:
    """Reject models whose total covariance is not finite or numerically singular.

    Threshold: smallest eigenvalue must exceed 1e-10 * Tr(sigma)/k.
    """
    if not np.isfinite(sigma).all():
        raise _not_finite(what)
    k = sigma.shape[0]
    smallest = float(np.linalg.eigvalsh(sigma)[0])
    floor = 1e-10 * float(np.trace(sigma)) / k
    if smallest <= floor:
        raise DegenerateModelError(
            f"{what}: total output covariance is singular "
            f"(smallest eigenvalue {smallest:.3e}, floor {floor:.3e}); "
            "a positive definite output covariance is required"
        )


def _not_finite(what: str) -> DegenerateModelError:
    return DegenerateModelError(
        f"{what}: total output covariance is not finite; "
        "the model gives non-finite outputs on the input law"
    )


@dataclass
class CovarianceTriple:
    """Covariance matrices of the orthogonal output decomposition for one subset.

    The four parts are stored symmetrized. ``residual`` is set here, by one
    rule for every route: the max-entry defect of total == subset +
    complement + interaction over the stored parts (``identity_defect``).
    Where the interaction is computed directly (closed form, grid) the
    residual is rounding; where it is defined by subtraction (Monte Carlo) it
    is the rounding of that subtraction, not zero. It is not an estimate of
    how far a coarse quadrature rule is from the true covariances: that would
    need a second rule to compare against. ``accuracy_warning`` flags a
    residual above 1e-6 of the largest total covariance entry, an identity
    broken beyond rounding at any output scale.
    """

    total: np.ndarray
    subset: np.ndarray
    complement: np.ndarray
    interaction: np.ndarray
    method: str
    residual: float = field(init=False)

    def __post_init__(self):
        k = len(_matrix(self.total, "total covariance"))  # every part is k-by-k
        for name in _PARTS:
            setattr(self, name, _symmetrize(_matrix(getattr(self, name), f"{name} covariance", k, k)))
        self.residual = self.identity_defect()

    @property
    def accuracy_warning(self) -> bool:
        return self.residual > 1e-6 * float(np.max(np.abs(self.total)))

    @property
    def out_dims(self) -> int:
        return self.total.shape[0]

    def identity_defect(self) -> float:
        """Recomputed max-entry residual of the decomposition identity."""
        return float(
            np.max(np.abs(self.total - (self.subset + self.complement + self.interaction)))
        )

    def left_compose(self, matrix: np.ndarray) -> "CovarianceTriple":
        """Triple of the model left-composed with a linear map: each part maps to O C O^t."""
        o = _matrix(matrix, "composition matrix", self.out_dims, self.out_dims)
        with np.errstate(over="ignore", invalid="ignore"):
            parts = {name: o @ getattr(self, name) @ o.T for name in _PARTS}
        try:
            return CovarianceTriple(method=self.method, **parts)
        except ContractError as exc:  # a part overflowed
            raise ContractError(f"composition matrix overflows a covariance: {exc}") from None


@dataclass
class ExactIndex:
    """The three trace-ratio indices for one subset and one weight matrix."""

    subset: float
    complement: float
    interaction: float

    def sum_defect(self) -> float:
        return abs(self.subset + self.complement + self.interaction - 1.0)


def exact_index(cov: CovarianceTriple, m: np.ndarray) -> ExactIndex:
    """Trace-ratio indices Tr(M C)/Tr(M total) for the three covariance parts.

    Raises IllPosedIndexError when |Tr(M total)| <= 1e-12 max|M| Tr|total|,
    a floor relative to the scale of both (Tr|total| sums the diagonal's
    magnitudes), so the indices, which no homothety of the outputs or of M
    changes, are accepted or refused alike at every scale; M is scaled by a
    power of two first, so no finite M overflows a trace. Enforces that the
    three indices sum to 1 within 1e-10 (they do whenever the triple
    satisfies the decomposition identity and the denominator is well posed).
    """
    m = _weight_matrix(m, cov.out_dims)
    denom = float(np.einsum("ij,ji->", m, cov.total))
    if abs(denom) <= 1e-12 * np.max(np.abs(m)) * np.sum(np.abs(np.diag(cov.total))):
        raise IllPosedIndexError(
            f"Tr(M total) = {denom:.3e} is too close to zero; the index is ill posed"
        )
    parts = (cov.subset, cov.complement, cov.interaction)
    out = ExactIndex(*(float(np.einsum("ij,ji->", m, c)) / denom for c in parts))
    if out.sum_defect() > 1e-10:
        raise IllPosedIndexError(
            f"indices sum to 1 with defect {out.sum_defect():.3e}; "
            "the covariance triple violates the decomposition identity at this weighting"
        )
    return out


# ---------------------------------------------------------------------------
# closed form for linear models
# ---------------------------------------------------------------------------


def covariances_linear(
    matrix: np.ndarray, variances: np.ndarray, subset: SubsetIndex
) -> CovarianceTriple:
    """Closed-form triple for x -> A x with independent inputs of the given variances.

    The group part keeps the columns of A in the subset: C = A_u D_u A_u^t with
    D the diagonal of input variances; the interaction part of a linear model
    is identically zero.
    """
    a = _matrix(matrix, "linear map")
    v = _matrix([variances], "input variances", 1)[0]  # a finite vector, by the matrix rule
    k, p = a.shape
    if v.shape != (p,):
        raise ContractError(f"need {p} input variances, got shape {v.shape}")
    if np.any(v < 0):
        raise ContractError("input variances must be nonnegative")
    if subset.dims != p:
        raise ContractError(f"subset is over {subset.dims} inputs but the model has {p}")

    def part(cols: tuple[int, ...]) -> np.ndarray:
        if not cols:
            return np.zeros((k, k))
        ac = a[:, cols]
        return (ac * v[list(cols)]) @ ac.T

    sigma = (a * v) @ a.T
    _check_positive_definite(sigma, "linear model")
    return CovarianceTriple(
        total=sigma,
        subset=part(subset.indices),
        complement=part(subset.complement),
        interaction=np.zeros((k, k)),
        method="closed_form",
    )


# ---------------------------------------------------------------------------
# tensor-grid oracle (discrete, continuous and mixed product spaces)
# ---------------------------------------------------------------------------


def _contract(t: np.ndarray, weights: list[np.ndarray], axes) -> np.ndarray:
    """Weighted sum of a grid tensor over the given axes, each kept with length 1."""
    labels = list(range(t.ndim))
    for j in axes:
        t = np.expand_dims(np.einsum(t, labels, weights[j], [j], labels[:j] + labels[j + 1 :]), j)
    return t


def _weighted_gram(a: np.ndarray, b: np.ndarray, weights: list[np.ndarray], axes) -> np.ndarray:
    """Sum of w a b^T over the cells of two grid tensors of one shape.

    The tensors vary along ``axes`` only (every other grid axis has length 1)
    and w is the product of those axes' rule weights. The sum runs over
    slabs of the first axis, as many as fit in _BLOCK_ROWS cells, or one
    at a time when a slab is larger.
    """
    k = a.shape[-1]
    w = [weights[j] for j in axes] or [np.ones(1)]  # no axes: one cell of weight 1
    shape = [len(x) for x in w] + [k]
    a, b = a.reshape(shape), b.reshape(shape)
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:-1]))
    out = np.zeros((k, k))
    for i in range(0, len(w[0]), step):
        w_chunk = reduce(np.multiply.outer, w[1:], w[0][i : i + step]).reshape(-1, 1)
        out += a[i : i + step].reshape(-1, k).T @ (b[i : i + step].reshape(-1, k) * w_chunk)
    return out


@dataclass
class HoeffdingComponents:
    """Tabulated orthogonal components of a model on a finite input grid.

    The model value at any grid node is mean + subset part + complement part +
    interaction part; every part has zero mean under the input law and the
    parts are pairwise uncorrelated. The parts are tensors over the grid axes,
    of shape sizes + (k,) with length 1 along the axes a part does not vary
    along: the subset part along the complement axes, the complement part
    along the subset axes. The *_cov fields are the covariance matrices of the
    total output and of the three parts, each computed directly from its
    tabulated values.
    """

    method: str
    mean: np.ndarray
    subset_part: np.ndarray
    complement_part: np.ndarray
    interaction_part: np.ndarray
    total_cov: np.ndarray
    subset_cov: np.ndarray
    complement_cov: np.ndarray
    interaction_cov: np.ndarray

    def covariance_triple(self) -> CovarianceTriple:
        """Triple with the interaction covariance computed directly from its values."""
        return CovarianceTriple(
            total=self.total_cov,
            subset=self.subset_cov,
            complement=self.complement_cov,
            interaction=self.interaction_cov,
            method=self.method,
        )


def _continuous_dims(space: InputSpace) -> int:
    return sum(not m.is_discrete for m in space.marginals)


def decompose_grid(
    model: VectorModel, space: InputSpace, subset: SubsetIndex, nodes_per_dim: int
) -> HoeffdingComponents:
    """Exact decomposition of a model over the tensor grid of the marginals' rules.

    Each marginal gives its rule through ``quadrature(nodes_per_dim)``: a
    discrete one its support, a continuous one (at most MAX_QUADRATURE_DIMS)
    a Gauss rule. The model is evaluated into a tensor of shape sizes + (k,),
    in the row chunks of pickfreeze._evaluate_chunks over the C-ordered
    cells, so no full-grid input matrix exists. The subset and complement
    parts are weighted contractions of that tensor, which is then centred in
    place and becomes the interaction part: one full-size tensor in all.
    """
    nodes_per_dim = _count(nodes_per_dim, "nodes_per_dim", 1)
    _check_dims(model, space, subset)
    continuous = _continuous_dims(space)
    if continuous > MAX_QUADRATURE_DIMS:
        raise ResourceError(
            f"quadrature oracle supports at most {MAX_QUADRATURE_DIMS} continuous inputs, "
            f"got {continuous}"
        )

    rules = [m.quadrature(nodes_per_dim) for m in space.marginals]
    nodes = [np.asarray(r[0], dtype=float) for r in rules]
    weights = [np.asarray(r[1], dtype=float) for r in rules]
    sizes = tuple(len(x) for x in nodes)
    _check_grid_size(math.prod(sizes))

    p, k = model.in_dims, model.out_dims
    # the nodes of the first slab's cells; every slab repeats its other columns
    slab = np.stack(np.meshgrid(nodes[0][:1], *nodes[1:], indexing="ij"), axis=-1).reshape(-1, p)

    def grid_rows(rows: slice) -> np.ndarray:  # the nodes of C-ordered cells
        cells = np.arange(rows.start, rows.stop)
        x = np.take(slab, cells, axis=0, mode="wrap")
        x[:, 0] = nodes[0][cells // len(slab)]
        return x

    outputs = _evaluate_chunks(model, math.prod(sizes), grid_rows).reshape(sizes + (k,))

    sub, comp = subset.indices, subset.complement
    grid_axes = range(p)
    sub_mean = _contract(outputs, weights, comp)  # E[Y | subset inputs]
    mean = _contract(sub_mean, weights, sub)
    sub_part = sub_mean - mean
    comp_part = _contract(outputs, weights, sub) - mean
    # the outputs are centred in place and become the interaction; the full
    # group's sub_mean is the outputs themselves, but mean and both parts
    # are new arrays, so no write below reaches a part
    outputs -= mean
    total_cov = _weighted_gram(outputs, outputs, weights, grid_axes)
    outputs -= sub_part
    outputs -= comp_part
    return HoeffdingComponents(
        method="enumeration" if space.all_discrete else "quadrature",
        mean=mean.reshape(k),
        subset_part=sub_part,
        complement_part=comp_part,
        interaction_part=outputs,
        total_cov=total_cov,
        subset_cov=_weighted_gram(sub_part, sub_part, weights, sub),
        complement_cov=_weighted_gram(comp_part, comp_part, weights, comp),
        interaction_cov=_weighted_gram(outputs, outputs, weights, grid_axes),
    )


def _check_grid_size(nodes: int) -> None:
    if nodes > MAX_GRID_NODES:
        raise ResourceError(f"grid has {nodes} nodes, above the cap of {MAX_GRID_NODES}")


def _grid_size(space: InputSpace, nodes_per_dim: int) -> int:
    """Nodes of the space's tensor grid: nodes_per_dim per continuous input
    times the discrete inputs' points of positive probability."""
    support = math.prod(len(m.support[0]) for m in space.marginals if m.is_discrete)
    return nodes_per_dim ** _continuous_dims(space) * support


def grid_nodes(space: InputSpace) -> Optional[int]:
    """Gauss nodes per continuous input for the grid oracle on this space.

    The most, up to DEFAULT_QUADRATURE_NODES, whose grid fits
    MAX_GRID_NODES; 1 when none does, a grid that exact_route refuses; None
    above MAX_QUADRATURE_DIMS continuous inputs.
    """
    if _continuous_dims(space) > MAX_QUADRATURE_DIMS:
        return None
    nodes = range(DEFAULT_QUADRATURE_NODES, 0, -1)
    return next((n for n in nodes if _grid_size(space, n) <= MAX_GRID_NODES), 1)


def covariances_quadrature(
    model: VectorModel, space: InputSpace, subset: SubsetIndex, nodes_per_dim: int
) -> CovarianceTriple:
    """Covariance triple on the tensor grid of the marginals' rules, for any product space.

    Continuous inputs (at most MAX_QUADRATURE_DIMS) take nodes_per_dim-node
    Gauss rules (Legendre/Hermite), which are exact for polynomial models of
    degree below 2 * nodes_per_dim in each input; discrete inputs take their
    support, which is exact. The method is "enumeration" when every input is
    discrete and "quadrature" otherwise. All four covariances are computed
    directly from the tabulated parts, and the decomposition identity holds
    on any product grid, so ``residual`` is rounding only: it does not
    estimate the quadrature error of a coarse rule.
    """
    dec = decompose_grid(model, space, subset, nodes_per_dim)
    _check_positive_definite(dec.total_cov, f"{dec.method} oracle")
    return dec.covariance_triple()


def exact_route(
    model: VectorModel, space: InputSpace
) -> Optional[Callable[[SubsetIndex], CovarianceTriple]]:
    """The exact oracle the model's kind and its input space admit, as a
    function of the subset: the closed form in ``model.matrix`` for a linear
    model, else the grid oracle sized once by ``grid_nodes``. None for an
    external table, which answers only its own rows, or a space with no grid.
    A grid over MAX_GRID_NODES raises ResourceError here, before a run draws
    or evaluates anything.

    The routes call the oracles through this module's globals at call time,
    so a wrapper put there (bench/spans.py) sees every call.
    """
    if model.kind == "linear":
        return lambda subset: covariances_linear(model.matrix, space.variances(), subset)
    nodes = None if model.kind == "external" else grid_nodes(space)
    if nodes is None:
        return None
    _check_grid_size(_grid_size(space, nodes))
    return lambda subset: covariances_quadrature(model, space, subset, nodes)


# ---------------------------------------------------------------------------
# Monte Carlo oracle
# ---------------------------------------------------------------------------

# the oracle's design is the seed's child stream(seed, _ORACLE_STREAM_TAG), so
# reusing one numeric seed for oracle and estimator still yields disjoint streams
_ORACLE_STREAM_TAG = 0x6F7261636C65


def covariances_monte_carlo(
    model: VectorModel,
    space: InputSpace,
    subset: SubsetIndex,
    n: int,
    seed: SeedLike,
) -> CovarianceTriple:
    """Large-sample triple from the pick-freeze pair covariances.

    One design holds two pick-freeze pairs over a base matrix A: (A, A_u),
    which redraws the complement and so shares only the subset part, and
    (A, A_~u), which redraws the subset. The moments kernel reduces each
    pair; the first gives the total and the subset covariance, the second
    the complement covariance, and the interaction is defined by
    subtraction. For the full group there is no second pair: A_u is A, so
    the subset covariance is the total and the other two parts are zero.
    Entrywise error is O(1/sqrt(n)).
    """
    _check_dims(model, space, subset)
    n = _count(n, "n", 2)

    groups = [subset] if subset.is_full else [subset, SubsetIndex(subset.complement, subset.dims)]
    design = generate_design(space, groups, n, stream(seed, _ORACLE_STREAM_TAG))
    # map holds no sample between calls, so one f(A_u) is alive at a time
    try:
        pair, *rest = map(attrgetter("moments"), evaluate_shared(model, design))
    except DegenerateSampleError:  # non-finite or overflowing outputs
        raise _not_finite("monte carlo oracle") from None
    sigma, c_subset = pair.total / n, pair.subset / n
    c_complement = rest[0].subset / n if rest else np.zeros_like(sigma)
    _check_positive_definite(sigma, "monte carlo oracle")
    return CovarianceTriple(
        total=sigma,
        subset=c_subset,
        complement=c_complement,
        interaction=sigma - c_subset - c_complement,
        method="monte_carlo",
    )

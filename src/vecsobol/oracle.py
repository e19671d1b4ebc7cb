"""Exact and quadrature-grade oracles for the variance decomposition.

For a model with independent inputs, the output splits into an orthogonal sum
of a constant, a part driven by the chosen input group, a part driven by the
remaining inputs, and their interaction. Taking covariance matrices of that
split gives

    total = subset + complement + interaction

and the generalized sensitivity index of the group, weighted by a square
matrix M, is the trace ratio Tr(M subset) / Tr(M total).

Four oracle routes produce the covariance triple: a closed form for linear
models, exact weighted enumeration for finite (discrete) input grids,
tensorized Gauss quadrature for smooth models on up to 4 continuous inputs,
and a large-sample Monte Carlo fallback. Enumeration and quadrature share the
same grid machinery; they differ only in where the nodes and weights come
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .errors import (
    ContractError,
    DegenerateModelError,
    IllPosedIndexError,
    ResourceError,
    UnsupportedOracleError,
)
from .models import VectorModel
from .spaces import InputSpace, SubsetIndex, SeedLike, as_seed_sequence, sample_marginals

MAX_GRID_NODES = 10_000_000
MAX_QUADRATURE_DIMS = 4


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
    """Reject models whose total covariance is numerically singular.

    Threshold: smallest eigenvalue must exceed 1e-10 * Tr(sigma)/k.
    """
    k = sigma.shape[0]
    smallest = float(np.linalg.eigvalsh(sigma)[0])
    floor = 1e-10 * float(np.trace(sigma)) / k
    if smallest <= floor:
        raise DegenerateModelError(
            f"{what}: total output covariance is singular "
            f"(smallest eigenvalue {smallest:.3e}, floor {floor:.3e}); "
            "a positive definite output covariance is required"
        )


@dataclass
class CovarianceTriple:
    """Covariance matrices of the orthogonal output decomposition for one subset.

    ``residual`` is the max-entry defect of total == subset + complement +
    interaction as measured by the producing method (for methods that define
    the interaction by subtraction it measures the directly-computed
    interaction instead, so it stays an honest quality indicator).
    """

    total: np.ndarray
    subset: np.ndarray
    complement: np.ndarray
    interaction: np.ndarray
    method: str
    residual: float = 0.0
    accuracy_warning: bool = False
    mc_n: Optional[int] = None
    mc_seed: Optional[int] = None

    def __post_init__(self):
        for name in ("total", "subset", "complement", "interaction"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ContractError(f"{name} covariance must be square, got shape {m.shape}")
            setattr(self, name, _symmetrize(m))

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
        o = np.asarray(matrix, dtype=float)
        if o.shape != (self.out_dims, self.out_dims):
            raise ContractError(
                f"composition matrix must be {self.out_dims}x{self.out_dims}, got {o.shape}"
            )
        parts = {
            name: o @ getattr(self, name) @ o.T
            for name in ("total", "subset", "complement", "interaction")
        }
        out = CovarianceTriple(
            method=self.method,
            accuracy_warning=self.accuracy_warning,
            mc_n=self.mc_n,
            mc_seed=self.mc_seed,
            **parts,
        )
        out.residual = out.identity_defect()
        return out


@dataclass
class ExactIndex:
    """The three trace-ratio indices for one subset and one weight matrix."""

    subset: float
    complement: float
    interaction: float
    matrix: np.ndarray

    def sum_defect(self) -> float:
        return abs(self.subset + self.complement + self.interaction - 1.0)


def exact_index(cov: CovarianceTriple, m: np.ndarray) -> ExactIndex:
    """Trace-ratio indices Tr(M C)/Tr(M total) for the three covariance parts.

    Raises IllPosedIndexError when |Tr(M total)| <= 1e-12, and enforces that
    the three indices sum to 1 within 1e-10 (they do whenever the triple
    satisfies the decomposition identity and the denominator is well posed).
    """
    m = np.asarray(m, dtype=float)
    k = cov.out_dims
    if m.shape != (k, k):
        raise ContractError(f"weight matrix must be {k}x{k}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ContractError("weight matrix must be finite")

    denom = float(np.einsum("ij,ji->", m, cov.total))
    if abs(denom) <= 1e-12:
        raise IllPosedIndexError(
            f"Tr(M total) = {denom:.3e} is too close to zero; the index is ill posed"
        )
    s_subset = float(np.einsum("ij,ji->", m, cov.subset)) / denom
    s_complement = float(np.einsum("ij,ji->", m, cov.complement)) / denom
    s_interaction = float(np.einsum("ij,ji->", m, cov.interaction)) / denom

    out = ExactIndex(s_subset, s_complement, s_interaction, m)
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
    a = np.asarray(matrix, dtype=float)
    v = np.asarray(variances, dtype=float)
    if a.ndim != 2:
        raise ContractError("linear map must be a 2-D matrix")
    k, p = a.shape
    if v.shape != (p,):
        raise ContractError(f"need {p} input variances, got shape {v.shape}")
    if np.any(v <= 0):
        raise ContractError("input variances must be strictly positive")
    if subset.dims != p:
        raise ContractError(f"subset is over {subset.dims} inputs but the model has {p}")

    def part(cols: tuple[int, ...]) -> np.ndarray:
        if not cols:
            return np.zeros((k, k))
        ac = a[:, cols]
        return (ac * v[list(cols)]) @ ac.T

    sigma = (a * v) @ a.T
    c_subset = part(subset.indices)
    c_complement = part(subset.complement)
    _check_positive_definite(sigma, "linear model")
    residual = float(np.max(np.abs(sigma - c_subset - c_complement)))
    return CovarianceTriple(
        total=sigma,
        subset=c_subset,
        complement=c_complement,
        interaction=np.zeros((k, k)),
        method="closed_form",
        residual=residual,
    )


# ---------------------------------------------------------------------------
# shared tensor-grid machinery (enumeration and quadrature)
# ---------------------------------------------------------------------------


def _tensor_weights(weight_cols: list[np.ndarray]) -> np.ndarray:
    """Raveled (C-order) tensor product of per-dimension weight vectors."""
    return reduce(np.multiply.outer, weight_cols, np.array(1.0)).ravel()


@dataclass
class HoeffdingComponents:
    """Tabulated orthogonal components of a model on a finite input grid.

    The model value at any grid node is mean + subset part + complement part +
    interaction part; every part has zero mean under the input law and the
    parts are pairwise uncorrelated. The *_cov fields are the covariance
    matrices of the total output and of the three parts, each computed
    directly from its tabulated values.
    """

    subset: SubsetIndex
    mean: np.ndarray
    grid: np.ndarray
    grid_weights: np.ndarray
    outputs: np.ndarray
    subset_values: np.ndarray
    subset_weights: np.ndarray
    complement_values: np.ndarray
    complement_weights: np.ndarray
    interaction_values: np.ndarray
    subset_positions: np.ndarray
    complement_positions: np.ndarray
    total_cov: np.ndarray
    subset_cov: np.ndarray
    complement_cov: np.ndarray
    interaction_cov: np.ndarray

    def reconstruction_residual(self) -> float:
        """Max abs defect of mean + parts == model value over the grid."""
        rebuilt = (
            self.mean
            + self.subset_values[self.subset_positions]
            + self.complement_values[self.complement_positions]
            + self.interaction_values
        )
        return float(np.max(np.abs(rebuilt - self.outputs)))

    def component_mean_defect(self) -> float:
        """Largest abs entry among the three component means (all should vanish)."""
        defects = [
            self.subset_weights @ self.subset_values,
            self.complement_weights @ self.complement_values,
            self.grid_weights @ self.interaction_values,
        ]
        return float(max(np.max(np.abs(d)) for d in defects))

    def orthogonality_defect(self) -> float:
        """Largest abs entry among the pairwise component cross-covariances."""
        sub = self.subset_values[self.subset_positions]
        comp = self.complement_values[self.complement_positions]
        inter = self.interaction_values
        w = self.grid_weights[:, None]
        pairs = [
            sub.T @ (comp * w),
            sub.T @ (inter * w),
            comp.T @ (inter * w),
        ]
        return float(max(np.max(np.abs(m)) for m in pairs))

    def identity_residual(self) -> float:
        """Max-entry defect of total == subset + complement + interaction covariance."""
        return float(
            np.max(
                np.abs(
                    self.total_cov - self.subset_cov - self.complement_cov - self.interaction_cov
                )
            )
        )

    def covariance_triple(self) -> CovarianceTriple:
        """Triple with the interaction covariance computed directly from its values."""
        triple = CovarianceTriple(
            total=self.total_cov,
            subset=self.subset_cov,
            complement=self.complement_cov,
            interaction=self.interaction_cov,
            method="enumeration",
        )
        triple.residual = triple.identity_defect()
        return triple


def _decompose_grid(
    model: VectorModel,
    nodes: list[np.ndarray],
    weights: list[np.ndarray],
    subset: SubsetIndex,
) -> HoeffdingComponents:
    """Exact decomposition of a model over a product grid with product weights."""
    p = model.in_dims
    sizes = [len(n) for n in nodes]
    total_nodes = math.prod(sizes)
    if total_nodes > MAX_GRID_NODES:
        raise ResourceError(
            f"grid has {total_nodes} nodes, above the cap of {MAX_GRID_NODES}"
        )

    comp = subset.complement
    # per-row multi-indices in C order: index j varies fastest for the last dim
    strides = np.ones(p, dtype=np.int64)
    for j in range(p - 2, -1, -1):
        strides[j] = strides[j + 1] * sizes[j + 1]
    rows = np.arange(total_nodes, dtype=np.int64)

    grid = np.empty((total_nodes, p))
    w_full = np.ones(total_nodes)
    w_comp_part = np.ones(total_nodes)
    w_sub_part = np.ones(total_nodes)
    pos_sub = np.zeros(total_nodes, dtype=np.int64)
    pos_comp = np.zeros(total_nodes, dtype=np.int64)
    stride_sub = 1
    stride_comp = 1
    for j in range(p - 1, -1, -1):
        ij = (rows // strides[j]) % sizes[j]
        grid[:, j] = nodes[j][ij]
        wj = weights[j][ij]
        w_full *= wj
        if j in subset.indices:
            pos_sub += ij * stride_sub
            stride_sub *= sizes[j]
            w_sub_part *= wj
        else:
            pos_comp += ij * stride_comp
            stride_comp *= sizes[j]
            w_comp_part *= wj

    outputs = model.evaluate(grid)
    k = model.out_dims
    mean = w_full @ outputs

    n_sub = math.prod(sizes[j] for j in subset.indices)
    n_comp = math.prod(sizes[j] for j in comp)

    def conditional(pos, n_cells, other_weight):
        cond = np.empty((n_cells, k))
        for col in range(k):
            cond[:, col] = np.bincount(
                pos, weights=other_weight * outputs[:, col], minlength=n_cells
            )
        return cond

    # conditional means given the subset cell, minus the grand mean
    sub_values = conditional(pos_sub, n_sub, w_comp_part) - mean
    comp_values = conditional(pos_comp, n_comp, w_sub_part) - mean
    interaction_values = outputs - mean - sub_values[pos_sub] - comp_values[pos_comp]

    # cell weights, raveled in the same C order the positions were built in
    # (ascending dimensions, last one fastest)
    w_sub_cells = _tensor_weights([weights[j] for j in subset.indices])
    w_comp_cells = _tensor_weights([weights[j] for j in comp])

    centered = outputs - mean
    return HoeffdingComponents(
        subset=subset,
        mean=mean,
        grid=grid,
        grid_weights=w_full,
        outputs=outputs,
        subset_values=sub_values,
        subset_weights=w_sub_cells,
        complement_values=comp_values,
        complement_weights=w_comp_cells,
        interaction_values=interaction_values,
        subset_positions=pos_sub,
        complement_positions=pos_comp,
        total_cov=centered.T @ (centered * w_full[:, None]),
        subset_cov=sub_values.T @ (sub_values * w_sub_cells[:, None]),
        complement_cov=comp_values.T @ (comp_values * w_comp_cells[:, None]),
        interaction_cov=interaction_values.T @ (interaction_values * w_full[:, None]),
    )


def decompose_discrete(
    model: VectorModel, space: InputSpace, subset: SubsetIndex
) -> HoeffdingComponents:
    """Exact decomposition by weighted enumeration of a finite input grid.

    Requires every marginal to be discrete and the full grid to stay within
    the node cap.
    """
    _check_dims(model, space, subset)
    if not space.all_discrete:
        raise UnsupportedOracleError(
            "exact enumeration needs discrete marginals; use quadrature or monte carlo"
        )
    nodes = [np.asarray(m.points) for m in space.marginals]
    weights = [np.asarray(m.probs) for m in space.marginals]
    return _decompose_grid(model, nodes, weights, subset)


def covariances_quadrature(
    model: VectorModel, space: InputSpace, subset: SubsetIndex, nodes_per_dim: int
) -> CovarianceTriple:
    """Quadrature-grade triple via tensorized Gauss rules (Legendre/Hermite).

    Only for smooth models on at most MAX_QUADRATURE_DIMS continuous inputs.
    The interaction part is defined by subtraction so the decomposition
    identity holds by construction; the reported residual compares against
    the directly-computed interaction covariance and flags accuracy_warning
    above 1e-6.
    """
    _check_dims(model, space, subset)
    if space.dims > MAX_QUADRATURE_DIMS:
        raise ResourceError(
            f"quadrature oracle supports at most {MAX_QUADRATURE_DIMS} inputs, got {space.dims}"
        )
    if not space.all_continuous:
        raise UnsupportedOracleError(
            "quadrature oracle needs continuous marginals; use enumeration for discrete spaces"
        )
    if nodes_per_dim < 1:
        raise ContractError("nodes_per_dim must be >= 1")

    rules = [m.quadrature(nodes_per_dim) for m in space.marginals]
    dec = _decompose_grid(model, [r[0] for r in rules], [r[1] for r in rules], subset)
    _check_positive_definite(dec.total_cov, "quadrature oracle")
    residual = dec.identity_residual()
    return CovarianceTriple(
        total=dec.total_cov,
        subset=dec.subset_cov,
        complement=dec.complement_cov,
        interaction=dec.total_cov - dec.subset_cov - dec.complement_cov,
        method="quadrature",
        residual=residual,
        accuracy_warning=residual > 1e-6,
    )


# ---------------------------------------------------------------------------
# Monte Carlo fallback oracle
# ---------------------------------------------------------------------------

# oracle streams hang off a tagged child of the user seed so that reusing one
# numeric seed for oracle and estimator still yields disjoint streams
_ORACLE_STREAM_TAG = 0x6F7261636C65


def covariances_monte_carlo(
    model: VectorModel,
    space: InputSpace,
    subset: SubsetIndex,
    n: int,
    seed: SeedLike,
) -> CovarianceTriple:
    """Large-sample triple from the paired-redraw covariance identities.

    Redrawing the complement leaves the subset part shared between the pair,
    so the cross-covariance of the pair estimates the subset covariance (and
    symmetrically for the complement). The interaction part is defined by
    subtraction. Entrywise error is O(1/sqrt(n)).
    """
    _check_dims(model, space, subset)
    if n < 2:
        raise ContractError("monte carlo oracle needs n >= 2")

    root = as_seed_sequence(seed)
    tagged = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (_ORACLE_STREAM_TAG,)
    )
    ss_x, ss_x2 = tagged.spawn(2)
    x = sample_marginals(space.marginals, n, ss_x)
    x2 = sample_marginals(space.marginals, n, ss_x2)

    comp = list(subset.complement)
    sub = list(subset.indices)
    x_mix_sub = x.copy()
    x_mix_sub[:, comp] = x2[:, comp]  # keep subset, redraw complement
    x_mix_comp = x.copy()
    x_mix_comp[:, sub] = x2[:, sub]  # keep complement, redraw subset

    y = model.evaluate(x)
    y_sub = model.evaluate(x_mix_sub)
    y_comp = model.evaluate(x_mix_comp)

    yc = y - y.mean(axis=0)
    sigma = yc.T @ yc / n
    c_subset = yc.T @ (y_sub - y_sub.mean(axis=0)) / n
    c_complement = yc.T @ (y_comp - y_comp.mean(axis=0)) / n
    c_subset = 0.5 * (c_subset + c_subset.T)
    c_complement = 0.5 * (c_complement + c_complement.T)
    _check_positive_definite(sigma, "monte carlo oracle")

    mc_seed = int(root.entropy) if isinstance(root.entropy, int) else None
    return CovarianceTriple(
        total=sigma,
        subset=c_subset,
        complement=c_complement,
        interaction=sigma - c_subset - c_complement,
        method="monte_carlo",
        residual=0.0,
        mc_n=n,
        mc_seed=mc_seed,
    )

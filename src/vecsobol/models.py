"""Vector-valued models, their composition with output maps, and the built-in test corpus.

A model is a deterministic map from p inputs to k outputs, evaluated row-wise
on n-by-p matrices. Corpus entries carry a default input space. A model's
``kind`` tells ``oracle.exact_route`` which exact route applies; this module
knows nothing of the oracles.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, ContractError
from .spaces import InputSpace, _count, _matrix

EvalFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class VectorModel:
    """Deterministic map R^p -> R^k plus corpus metadata.

    evaluate() is vectorized over rows and must be bit-stable: identical input
    matrices give identical output matrices. Rows are evaluated
    independently: a row's outputs depend on that row alone, so evaluate()
    may be called on any chunk of rows, and the pick-freeze evaluation calls
    it on fixed chunks of a block rather than on the whole block (see
    ``pickfreeze.evaluate_shared``). ``kind`` picks the exact oracle
    route (``oracle.exact_route``): the closed form in ``matrix`` for 'linear',
    none for an 'external' table, the grid otherwise. A model has at least
    one input and one output.

    Designs are held column by column, so eval_fn may receive a
    Fortran-ordered n-by-p array; one that needs C-ordered rows should call
    ``np.ascontiguousarray`` on it.
    """

    in_dims: int
    out_dims: int
    kind: str  # 'linear' | 'builtin' | 'external'
    eval_fn: EvalFn
    name: str = ""
    matrix: Optional[np.ndarray] = None  # set iff kind == 'linear'
    default_space: Optional[InputSpace] = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "in_dims", _count(self.in_dims, "in_dims"))
        object.__setattr__(self, "out_dims", _count(self.out_dims, "out_dims"))
        if self.in_dims < 1 or self.out_dims < 1:
            raise ContractError("a model needs at least one input and one output, "
                                f"got {self.in_dims} -> {self.out_dims}")

    def evaluate(self, inputs: np.ndarray) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2:
            raise ContractError(f"inputs must be a 2-D matrix, got ndim={inputs.ndim}")
        if inputs.shape[1] != self.in_dims:
            raise ContractError(
                f"model expects {self.in_dims} input columns, got {inputs.shape[1]}"
            )
        out = np.asarray(self.eval_fn(inputs), dtype=float)
        if out.shape != (inputs.shape[0], self.out_dims):
            raise ContractError(
                f"model produced shape {out.shape}, expected {(inputs.shape[0], self.out_dims)}"
            )
        return out

    def space(self) -> InputSpace:
        if self.default_space is None:
            raise ConfigurationError(f"model {self.name!r} has no default input space")
        return self.default_space


def linear_model(
    matrix: np.ndarray,
    default_space: Optional[InputSpace] = None,
    name: str = "linear",
) -> VectorModel:
    """Model x -> A x for a finite k-by-p matrix A, else a ConfigurationError."""
    try:
        a = _matrix(matrix, "linear model matrix")
    except ContractError as exc:
        raise ConfigurationError(str(exc)) from None
    a.flags.writeable = False
    k, p = a.shape

    def _eval(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return x @ a.T

    return VectorModel(
        in_dims=p,
        out_dims=k,
        kind="linear",
        eval_fn=_eval,
        name=name,
        matrix=a,
        default_space=default_space or InputSpace.normal(p),
    )


def apply_transform(model: VectorModel, matrix: np.ndarray) -> VectorModel:
    """Left-compose the model with a finite k-by-k output map O: x -> O f(x).

    Linear models stay linear (O is folded into their matrix, and a fold that
    overflows raises ConfigurationError); other kinds get a wrapped evaluator,
    whose overflowing outputs are left non-finite for the estimator and the
    oracles to name.
    """
    k = model.out_dims
    o = _matrix(matrix, "transform", k, k)

    if model.kind == "linear":
        with np.errstate(over="ignore", invalid="ignore"):
            folded = o @ model.matrix
        if not np.isfinite(folded).all():
            raise ConfigurationError("overflows when folded into the linear model's matrix")
        return linear_model(folded, default_space=model.default_space, name=model.name)

    base_eval = model.eval_fn

    def _eval(x: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return base_eval(x) @ o.T

    return VectorModel(
        in_dims=model.in_dims,
        out_dims=k,
        kind=model.kind,
        eval_fn=_eval,
        name=model.name,
        default_space=model.default_space,
        params=dict(model.params),
    )


# ---------------------------------------------------------------------------
# built-in corpus
# ---------------------------------------------------------------------------


def _make_identity_2() -> VectorModel:
    # the two-input, two-output identity map; unit-variance inputs give
    # total covariance Id_2, the textbook counterexample configuration
    return linear_model(np.eye(2), default_space=InputSpace.normal(2), name="identity_2")


def _make_linear(matrix=None) -> VectorModel:
    if matrix is None:
        raise ConfigurationError("corpus model 'linear' requires a 'matrix' parameter")
    return linear_model(matrix)


def _make_sum_prod() -> VectorModel:
    def _eval(x: np.ndarray) -> np.ndarray:
        return np.stack([x[:, 0] + x[:, 1], x[:, 0] * x[:, 1]], axis=1)

    return VectorModel(
        in_dims=2,
        out_dims=2,
        kind="builtin",
        eval_fn=_eval,
        name="sum_prod",
        default_space=InputSpace.uniform(2),
    )


def _make_u_only(dims: int = 2, coords=(0,)) -> VectorModel:
    """Model whose outputs depend only on the given coordinates: (sum over coords, 0).

    The zero-padded second output makes the total covariance singular, so this
    entry is meant for estimator edge tests (frozen pair equals the original),
    not for exact-index oracles.
    """
    dims = _count(dims, "dims")
    coords = tuple(sorted(_count(c, "coords") for c in coords))
    if not coords or coords[0] < 0 or coords[-1] >= dims:
        raise ConfigurationError(f"u_only coords {coords} out of range for dims={dims}")

    def _eval(x: np.ndarray) -> np.ndarray:
        g = x[:, coords].sum(axis=1)
        return np.stack([g, np.zeros_like(g)], axis=1)

    return VectorModel(
        in_dims=dims,
        out_dims=2,
        kind="builtin",
        eval_fn=_eval,
        name="u_only",
        default_space=InputSpace.uniform(dims),
    )


def _make_constant(values=(1.0, 2.0), dims: int = 2) -> VectorModel:
    values = tuple(float(v) for v in values)
    if not np.isfinite(values).all():
        raise ConfigurationError("constant model values must be finite")

    def _eval(x: np.ndarray) -> np.ndarray:
        return np.tile(values, (x.shape[0], 1))

    return VectorModel(
        in_dims=dims,
        out_dims=len(values),
        kind="builtin",
        eval_fn=_eval,
        name="constant",
        default_space=InputSpace.uniform(dims),
    )


_CORPUS: dict[str, Callable[..., VectorModel]] = {
    "identity_2": _make_identity_2,
    "linear": _make_linear,
    "sum_prod": _make_sum_prod,
    "u_only": _make_u_only,
    "constant": _make_constant,
}


def corpus_names() -> tuple[str, ...]:
    return tuple(sorted(_CORPUS))


def get_model(name: str, **params) -> VectorModel:
    """Instantiate a corpus model by name; unknown names raise ConfigurationError."""
    try:
        factory = _CORPUS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown model {name!r}; corpus: {', '.join(corpus_names())}"
        ) from None
    return factory(**params)


# ---------------------------------------------------------------------------
# external tabulated models
# ---------------------------------------------------------------------------


def read_numeric_csv(path: str, what: str) -> tuple[list[str], np.ndarray]:
    """Read a header row and the finite numbers under it with numpy's C parser.

    Blank lines are skipped. Any fault raises ConfigurationError naming the
    file and the data row (counted from 1 below the header, blanks not counted).
    """
    with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark, as Excel writes, is skipped
        lines = fh.read().split("\n")
    header = [h.strip() for h in next(csv.reader(lines[:1]))]
    if not header or not any(lines[1:]):
        raise ConfigurationError(f"{path}: the {what} file needs a header row and data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None, quotechar='"')
    except ValueError as exc:
        cause = str(exc).partition(";")[0]
        at = re.search(r" at row (\d+)", cause)
        if at:  # numpy counts rows from 0 when a cell does not parse, from 1 when a row is ragged
            row = int(at[1]) + cause.startswith("could not")
            cause = f"data row {row}: {cause.replace(at[0], '')}"
        raise ConfigurationError(f"{path}: {cause}") from None
    if data.shape[1] != len(header):
        raise ConfigurationError(f"{path}: data row 1 has {data.shape[1]} cells, not {len(header)}")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise ConfigurationError(f"{path}: data row {bad[0] + 1}: cells must be finite numbers")
    return header, data


def _row_keys(x: np.ndarray) -> list:
    """One hashable key per row; adding 0.0 maps -0.0 to 0.0, so both are one input."""
    x = np.ascontiguousarray(x, dtype=float) + 0.0
    return x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel().tolist()


def load_external_model(path: str) -> VectorModel:
    """Read a tabulated model from CSV with header x1..xp,y1..yk.

    Evaluation is an exact lookup of previously tabulated rows; asking for an
    input that is not in the table is a contract error. Repeated x rows must
    agree (the map has to be deterministic); -0.0 and 0.0 are one input.
    """
    header, data = read_numeric_csv(path, "external model")
    p = sum(1 for h in header if h.startswith("x"))
    k = len(header) - p
    expected = [f"x{i}" for i in range(1, p + 1)] + [f"y{i}" for i in range(1, k + 1)]
    if p == 0 or k == 0 or header != expected:
        raise ConfigurationError(
            f"{path}: external model header must be x1..xp,y1..yk, got {','.join(header)}"
        )
    keys, y = _row_keys(data[:, :p]), data[:, p:]
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))  # each input's first row
    conflicts = np.flatnonzero((y != y[[first[key] for key in keys]]).any(axis=1))
    if conflicts.size:
        raise ConfigurationError(
            f"{path}: data row {conflicts[0] + 1}: conflicting outputs for a repeated input row"
        )

    def _eval(x: np.ndarray) -> np.ndarray:
        rows = np.fromiter(map(first.get, _row_keys(x), repeat(-1)), np.intp, x.shape[0])
        if rows.min(initial=0) < 0:
            raise ContractError(
                f"input row {x[rows.argmin()].tolist()} is not among the tabulated evaluations"
            )
        return y[rows]

    return VectorModel(
        in_dims=p, out_dims=k, kind="external", eval_fn=_eval, name=path, params={"rows": len(first)}
    )

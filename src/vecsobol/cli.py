"""Config-driven batch front end.

Reads a schema-versioned YAML/JSON configuration (or equivalent flags),
runs estimation and/or exact oracles per subset, and writes a JSON or CSV
report. Runs are deterministic given the config; with --reproducible the
timing fields are dropped so two runs of the same config produce
byte-identical reports.

Exit codes: 0 success, 2 configuration error, 3 degenerate model,
ill-posed index or out of memory, 4 report/output error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

import numpy as np
import yaml

from . import __version__
from .errors import ConfigurationError, ContractError, ReportError, VecSobolError
from .inference import (BOOTSTRAP_MIN_REPS, DELTA_MIN_N, REPLICATION_MIN_REPS, _check_level,
                        bootstrap_ci, clt_diagnostic, delta_ci)
from .models import VectorModel, apply_transform, get_model, load_external_model
from .oracle import (
    covariances_quadrature,  # unused here, but bench/spans.py wraps the name in this module
    exact_index,
    exact_route,
)
from .pickfreeze import (
    SharedDesign,
    estimate_index,
    estimate_index_general,
    evaluate_pairs,  # unused here, but bench/spans.py wraps the name in this module
    evaluate_shared,
    generate_design,
    read_sample_csv,
)
from .spaces import (Discrete, InputSpace, Normal, SubsetIndex, Uniform, _count, _matrix, _parameter,
                     _seed, stream)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4


@dataclass
class CISpec:
    kind: str  # 'none' | 'delta' | 'bootstrap'
    level: float = 0.95
    reps: int = 1000


@dataclass
class RunConfig:
    """Validated run description; subsets are stored 0-based internally."""

    model: Optional[VectorModel]
    space: Optional[InputSpace]
    subsets: list[SubsetIndex]
    n: int
    seed: int
    matrix: Optional[np.ndarray] = None
    ci: CISpec = field(default_factory=lambda: CISpec("none"))
    oracle: str = "none"  # 'none' | 'auto'
    replications: Optional[int] = None
    sample_path: Optional[str] = None  # estimator-only mode
    reproducible: bool = False


@dataclass
class SubsetResult:
    subset: list[int]  # 1-based, as reported externally
    n: int
    seed: int
    estimate: float
    estimate_weighted: Optional[float] = None
    sigma2_hat: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    ci_level: Optional[float] = None
    ci_method: Optional[str] = None
    oracle_method: Optional[str] = None
    oracle_subset: Optional[float] = None
    oracle_complement: Optional[float] = None
    oracle_interaction: Optional[float] = None
    oracle_sum_residual: Optional[float] = None
    oracle_weighted: Optional[float] = None
    replication: Optional[dict] = None
    elapsed_s: Optional[float] = None


@dataclass
class RunReport:
    schema: int
    tool: str
    version: str
    seed: int
    n: int
    subsets: list[SubsetResult]
    elapsed_s: Optional[float] = None


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

# the keys each configuration mapping may hold; any other key is rejected
_TOP_KEYS = {
    "model": (
        "schema", "model", "space", "subsets", "n", "seed", "ci", "oracle", "matrix",
        "transform", "replications",
    ),
    "sample": ("schema", "sample", "subsets", "seed", "ci", "oracle", "matrix"),
}
_MARGINAL_KEYS = {
    "uniform": ("kind", "low", "high"),
    "normal": ("kind", "mean", "sd"),
    "discrete": ("kind", "points", "probs"),
}
_MARGINALS = {"uniform": Uniform, "normal": Normal, "discrete": Discrete}
_TRANSFORM_KEYS = {
    "homothety": ("kind", "scale"),
    "isometry": ("kind", "matrix"),
    "general_linear": ("kind", "matrix"),
}
_CI_KEYS = dict.fromkeys(("none", "delta", "bootstrap"), ("kind", "level", "reps"))


def _fail(path: str, message: str) -> ConfigurationError:
    return ConfigurationError(f"{path}: {message}")


def _check_keys(node: dict, allowed: tuple, path: str, what: str) -> None:
    for key in node:
        if key not in allowed:
            field_path = f"{path}.{key}" if path else str(key)
            raise _fail(field_path, f"not a key of {what}; allowed: {', '.join(allowed)}")


def _kind(node: Any, path: str, keys: dict, what: str) -> str:
    """Check a mapping whose 'kind' selects its allowed keys; returns the kind."""
    if not isinstance(node, dict) or "kind" not in node:
        raise _fail(path, f"expected a {what} mapping with a 'kind', got {node!r}")
    kind = node["kind"]
    if not isinstance(kind, str) or kind not in keys:
        raise _fail(f"{path}.kind", f"expected {'|'.join(keys)}, got {kind!r}")
    _check_keys(node, keys[kind], path, f"a {kind} {what}")
    return kind


def _field(value: Any, path: str, read: Callable[[Any], Any], default: Any = None):
    """Read one scalar field by the library rule that owns it.

    An absent or null field (None) takes the default. Numeric text is read
    as an int, else as a float: YAML 1.1 reads exponent forms such as 1e-3,
    which JSON writers emit, as strings, and a flag's value is text. Then
    read, the owning rule, checks the value; its ContractError or
    ConfigurationError is raised again as a ConfigurationError naming the path.
    """
    value = default if value is None else value
    if isinstance(value, str):
        for number in (int, float):
            try:
                value = number(value)
                break
            except ValueError:
                pass
    try:
        return read(value)
    except (ContractError, ConfigurationError) as exc:
        raise _fail(path, str(exc)) from None


def _delta_n(n: Any) -> int:
    return _count(n, "the delta method's n", DELTA_MIN_N)


def _list(value: Any, path: str, what: str) -> list:
    if not isinstance(value, list) or not value:
        raise _fail(path, f"expected a non-empty list of {what}, got {value!r}")
    return value


def _parse_marginal(node: Any, path: str):
    """A marginal whose parameters are each read by _parameter under their own
    path; an absent or null one takes the marginal's default."""
    kind = _kind(node, path, _MARGINAL_KEYS, "marginal")
    args = {}
    for key in _MARGINAL_KEYS[kind][1:]:
        where, value = f"{path}.{key}", node.get(key)
        if kind == "discrete":
            args[key] = tuple(_field(v, f"{where}[{j}]", lambda v: _parameter(v, f"{key}[{j}]"))
                              for j, v in enumerate(_list(value, where, "numbers")))
        elif value is not None:
            args[key] = _field(value, where, lambda v: _parameter(v, key))
    try:
        return _MARGINALS[kind](**args)
    except ConfigurationError as exc:
        raise _fail(path, str(exc)) from None


def _parse_matrix(node: Any, path: str, size: Optional[int] = None) -> np.ndarray:
    """A finite square matrix; with a size, one that weights that many outputs."""
    try:
        m = _matrix(node, "matrix entries")
    except ContractError as exc:
        raise _fail(path, str(exc)) from None
    if m.shape[0] != m.shape[1]:
        raise _fail(path, f"expected a square matrix, got shape {m.shape}")
    if size is not None and m.shape[0] != size:
        raise _fail(path, f"is {m.shape[0]}x{m.shape[1]} but the outputs have {size} components")
    return m


def _parse_subsets(node: Any, dims: Optional[int]) -> list[SubsetIndex]:
    """1-based index groups; without a model (dims None) a group is only a label."""
    subsets = []
    for i, raw in enumerate(_list(node, "subsets", "1-based index lists")):
        path = f"subsets[{i}]"
        indices = [
            _field(v, f"{path}[{j}]", lambda v: _count(v, "a subset coordinate", 1))
            for j, v in enumerate(_list(raw, path, "integers"))
        ]
        bound = dims or max(indices)
        try:
            subsets.append(SubsetIndex.from_one_based(indices, bound))
        except ContractError:
            raise _fail(path, f"{raw} is not a group of distinct indices in 1..{bound}") from None
    return subsets


def _parse_model(node: Any) -> VectorModel:
    if isinstance(node, str):
        node = {"name": node}
    if not isinstance(node, dict):
        raise _fail("model", f"expected a corpus name or a mapping, got {node!r}")
    if "external" in node:
        _check_keys(node, ("external",), "model", "an external model")
        try:
            return load_external_model(str(node["external"]))
        except OSError as exc:
            raise _fail("model.external", f"cannot read file: {exc}") from None
    _check_keys(node, ("name", "params"), "model", "a corpus model")
    name = node.get("name")
    if not isinstance(name, str):
        raise _fail("model.name", "expected a corpus model name")
    params = {} if node.get("params") is None else node["params"]
    if not isinstance(params, dict):
        raise _fail("model.params", f"expected a mapping, got {params!r}")
    params = dict(params)
    if name == "u_only" and "coords" in params:
        # config coordinates are 1-based, like subsets
        coords = _list(params["coords"], "model.params.coords", "integers")
        params["coords"] = tuple(
            _field(c, f"model.params.coords[{i}]", lambda v: _count(v, "coords", 1)) - 1
            for i, c in enumerate(coords)
        )
    try:
        return get_model(name, **params)
    except ConfigurationError as exc:
        raise _fail("model", str(exc)) from None
    except (TypeError, ValueError) as exc:
        raise _fail("model.params", str(exc)) from None


def _parse_ci(node: Any) -> CISpec:
    if node is None:
        return CISpec("none")
    if isinstance(node, str):
        node = {"kind": node}
    kind = _kind(node, "ci", _CI_KEYS, "ci")
    least = BOOTSTRAP_MIN_REPS if kind == "bootstrap" else None
    return CISpec(
        kind,
        _field(node.get("level"), "ci.level", lambda v: _check_level(v, "level"), CISpec.level),
        _field(node.get("reps"), "ci.reps", lambda v: _count(v, "reps", least), CISpec.reps),
    )


def _parse_transform(node: Any, out_dims: int) -> np.ndarray:
    """The k-by-k output map O of a transform: a nonzero multiple of I for a
    homothety, an orthogonal matrix (to 1e-10 per entry) for an isometry, any
    finite square matrix for a general linear map."""
    kind = _kind(node, "transform", _TRANSFORM_KEYS, "transform")
    if kind == "homothety":
        scale = _field(node.get("scale"), "transform.scale", lambda v: _parameter(v, "scale"))
        if scale == 0:
            raise _fail("transform.scale", "homothety requires a nonzero scale")
        return scale * np.eye(out_dims)
    o = _parse_matrix(node.get("matrix"), "transform.matrix", out_dims)
    if kind == "isometry":
        with np.errstate(over="ignore", invalid="ignore"):
            defect = np.max(np.abs(o.T @ o - np.eye(out_dims)))
        if not defect <= 1e-10:
            raise _fail(
                "transform.matrix",
                f"declared isometry is not orthogonal (max |O^t O - I| = {defect:.3e})",
            )
    return o


def config_from_tree(tree: dict) -> RunConfig:
    """Validate a parsed configuration tree; every failure names the field."""
    if not isinstance(tree, dict):
        raise ConfigurationError("configuration must be a mapping")
    mode = "sample" if tree.get("sample") is not None else "model"
    _check_keys(tree, _TOP_KEYS[mode], "", f"a {mode}-mode configuration")
    schema = _field(tree.get("schema"), "schema", lambda v: _count(v, "schema"), 1)
    if schema != 1:
        raise _fail("schema", f"unsupported schema version {schema!r}")
    oracle_mode = tree.get("oracle") or "none"
    if oracle_mode not in (("none",) if mode == "sample" else ("none", "auto")):
        raise _fail("oracle", f"expected none|auto (none in sample mode), got {oracle_mode!r}")
    config = RunConfig(
        model=None,
        space=None,
        subsets=[],
        n=0,
        seed=_field(tree.get("seed"), "seed", _seed, 0),
        ci=_parse_ci(tree.get("ci")),
        oracle=oracle_mode,
    )

    if mode == "sample":
        if tree.get("matrix") is not None:
            config.matrix = _parse_matrix(tree["matrix"], "matrix")
        if tree.get("subsets") is not None:
            config.subsets = _parse_subsets(tree["subsets"], None)
            if len(config.subsets) != 1:
                raise _fail("subsets", "sample mode takes exactly one subset label")
        config.sample_path = str(tree["sample"])
        return config

    model = config.model = _parse_model(tree.get("model"))

    if tree.get("space") is not None:
        marginals = _list(tree["space"], "space", "marginal descriptors")
        config.space = InputSpace(
            tuple(_parse_marginal(m, f"space[{i}]") for i, m in enumerate(marginals))
        )
    elif model.default_space is not None:
        config.space = model.default_space
    else:
        raise _fail("space", "missing and the model has no default input space")
    if config.space.dims != model.in_dims:
        raise _fail(
            "space",
            f"has {config.space.dims} marginals but the model expects {model.in_dims} inputs",
        )

    config.subsets = _parse_subsets(tree.get("subsets"), model.in_dims)
    # rows beyond this make a design or output matrix numpy cannot address
    max_rows = np.iinfo(np.intp).max // (8 * max(model.in_dims, model.out_dims))
    config.n = _field(tree.get("n"), "n", lambda v: _count(v, "n", 2), 1000)
    if config.n > max_rows:
        raise _fail("n", f"must be in [2, {max_rows}], got {config.n}")

    if tree.get("matrix") is not None:
        config.matrix = _parse_matrix(tree["matrix"], "matrix", model.out_dims)
    if tree.get("transform") is not None:
        o = _parse_transform(tree["transform"], model.out_dims)
        try:
            config.model = apply_transform(model, o)
        except ConfigurationError as exc:
            raise _fail("transform", str(exc)) from None

    if tree.get("replications") is not None:
        config.replications = _field(tree["replications"], "replications",
                                     lambda v: _count(v, "replications", REPLICATION_MIN_REPS))
        if config.oracle != "auto":
            raise _fail("replications", "a replication study needs oracle: auto for its target")
        full = [list(s.to_one_based()) for s in config.subsets if s.is_full]
        if full:
            raise _fail("replications", f"subset {full[0]} is the full input group, whose "
                        "estimate is exactly 1 in every replicate; a study needs proper subsets")

    # a replication study takes delta intervals unless the ci is a bootstrap
    delta = config.ci.kind == "delta" or (config.replications is not None and config.ci.kind != "bootstrap")
    if delta:
        _field(config.n, "n", _delta_n)
    return config


def _load_tree(text: str) -> dict:
    """Parse a YAML (or JSON) document into a configuration mapping."""
    try:
        tree = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"configuration is not well formed: {exc}") from None
    if not isinstance(tree, dict):
        empty = tree is None
        raise ConfigurationError(f"configuration {'is empty' if empty else 'must be a mapping'}")
    return tree


def parse_config(text: str) -> RunConfig:
    """Parse a YAML (or JSON) configuration document into a validated RunConfig."""
    return config_from_tree(_load_tree(text))


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def run_design(config: RunConfig) -> SharedDesign:
    """The one design run() evaluates for all of config's subsets.

    Its ``x`` is the run's base matrix A, and ``x_u(u)`` the second block
    of each u in ``subsets``. External-model users tabulate the model at
    ``design.x`` and ``design.x_u(u)`` of every subset (repeated rows are
    accepted) and feed the table back via model.external.

    The run's seed streams are children of the config seed by spawn key
    (spaces.stream): the design is drawn from (0, 0), subset i's bootstrap
    from (i, 1) and the replication study from (0, 2).
    """
    return generate_design(config.space, config.subsets, config.n, stream(config.seed, 0, 0))


def subset_design(config: RunConfig, index: int) -> SharedDesign:
    """config.subsets[index]'s one-group view of ``run_design(config)``."""
    return run_design(config).design(config.subsets[index])


def _replication_dict(report) -> dict:
    return {
        "n_per_rep": report.n_per_rep,
        "reps": report.reps,
        "target": report.target,
        "mean_estimate": float(np.mean(report.estimates)),
        "std_empirical": report.std_empirical,
        "normality_stat": report.normality_stat,
        "coverage": report.coverage,
    }


def _samples(config: RunConfig):
    """Yield (subset, sample, ci seed, start time) per analysed sample.

    Model mode evaluates one shared design: (1 + s) n model rows for s
    subsets. Sample mode reads its file once; its subset is only a label
    (None when absent) and its bootstrap draws from the config seed.
    """
    if config.sample_path is not None:
        started = time.perf_counter()
        try:
            sample = read_sample_csv(config.sample_path)
        except OSError as exc:
            raise _fail("sample", f"cannot read file: {exc}") from None
        if config.matrix is not None:
            _parse_matrix(config.matrix, "matrix", sample.out_dims)
        if config.ci.kind == "delta":
            _field(sample.n, "sample", _delta_n)
        label = config.subsets[0] if config.subsets else None
        yield label, sample, config.seed, started
        return
    # the first subset's time includes the shared draw and the shared f(x)
    started = time.perf_counter()
    ci_streams = (stream(config.seed, i, 1) for i in range(len(config.subsets)))
    # not zip or enumerate: their cached result tuple would keep the previous
    # sample alive while evaluate_shared evaluates the next group's outputs
    for sample in evaluate_shared(config.model, run_design(config)):
        yield sample.subset, sample, next(ci_streams), started
        del sample
        started = time.perf_counter()


def run(config: RunConfig) -> RunReport:
    """Execute the configured analysis; deterministic given the config.

    The exact route is picked once, before anything is drawn, so a study with
    no oracle target is refused before the model is evaluated. Every subset
    is analysed before the run's one replication study, if any.
    """
    started = time.perf_counter()
    model = config.model
    route = exact_route(model, config.space) if config.oracle == "auto" else None
    if config.replications is not None and route is None:
        raise _fail("replications", "no oracle target: no exact oracle applies to this model "
                    "and input space")
    results = []
    for subset, sample, ci_ss, t0 in _samples(config):
        est = None  # first: a bootstrap's table pass also reduces the moments
        if config.ci.kind == "delta":
            est = delta_ci(sample, config.ci.level)
        elif config.ci.kind == "bootstrap":
            est = bootstrap_ci(sample, config.ci.reps, config.ci.level, ci_ss)
        result = SubsetResult(
            subset=[] if subset is None else list(subset.to_one_based()),
            n=sample.n,
            seed=config.seed,
            estimate=estimate_index(sample),
        )
        if config.matrix is not None:
            result.estimate_weighted = estimate_index_general(sample, config.matrix)
        if est is not None:
            result.sigma2_hat, result.ci_low, result.ci_high, result.ci_level, result.ci_method = (
                est.sigma2_hat, est.ci_low, est.ci_high, est.ci_level, est.method)

        if route is not None:
            triple = route(subset)
            idx = exact_index(triple, np.eye(model.out_dims))
            result.oracle_method = triple.method
            result.oracle_subset = idx.subset
            result.oracle_complement = idx.complement
            result.oracle_interaction = idx.interaction
            result.oracle_sum_residual = idx.sum_defect()
            if config.matrix is not None:
                result.oracle_weighted = exact_index(triple, config.matrix).subset

        if not config.reproducible:
            result.elapsed_s = time.perf_counter() - t0
        results.append(result)
        del sample  # dropped before the next subset's outputs are evaluated

    if config.replications is not None:
        reports = clt_diagnostic(
            model, config.space, config.subsets, config.n, config.replications,
            target=[result.oracle_subset for result in results],
            seed=stream(config.seed, 0, 2),
            ci_level=config.ci.level, b_reps=config.ci.reps,
            ci_method="bootstrap" if config.ci.kind == "bootstrap" else "delta",
        )
        for result, rep in zip(results, reports):
            result.replication = _replication_dict(rep)

    report = RunReport(
        schema=1,
        tool="vecsobol",
        version=__version__,
        seed=config.seed,
        n=results[0].n,  # every subset is analysed at the same sample size
        subsets=results,
    )
    if not config.reproducible:
        report.elapsed_s = time.perf_counter() - started
    return report


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _check_finite(node: Any, path: str) -> None:
    if isinstance(node, float) and not np.isfinite(node):
        raise ReportError(f"non-finite value at {path}: {node!r}")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{path}[{i}]")


def report_to_json(report: RunReport) -> str:
    tree = asdict(report)
    _check_finite(tree, "report")
    return json.dumps(tree, sort_keys=True, indent=2) + "\n"


def report_to_csv(report: RunReport) -> str:
    tree = asdict(report)
    _check_finite(tree, "report")
    lines = ["subset,estimate,oracle,sigma2_hat,ci_low,ci_high,n,seed"]
    for sub in report.subsets:
        optional = (sub.oracle_subset, sub.sigma2_hat, sub.ci_low, sub.ci_high)
        cells = ["+".join(str(i) for i in sub.subset), repr(sub.estimate)]
        cells += ["" if value is None else repr(value) for value in optional]
        lines.append(",".join(cells + [str(sub.n), str(sub.seed)]))
    return "\n".join(lines) + "\n"


def write_report(report: RunReport, path: str, fmt: str = "json") -> None:
    """Serialize the report to path ('-' writes to stdout)."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ConfigurationError(f"unknown report format {fmt!r}")
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ReportError(f"cannot write report to {path}: {exc}") from None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# flags whose value is the config key of the same name
_FLAG_KEYS = ("model", "sample", "subsets", "n", "seed", "oracle", "replications")


def _index_list(text: str) -> list[str]:
    """A --subset value, comma-separated 1-based input indices, as the text of each."""
    return [v for v in text.split(",") if v.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecsobol",
        description="Sensitivity indices for vector-valued models "
        "(pick-freeze estimation with exact oracles).",
    )
    parser.add_argument("--config", help="YAML/JSON run configuration file")
    parser.add_argument("--model", help="corpus model name")
    parser.add_argument(
        "--subset",
        action="append",
        type=_index_list,
        dest="subsets",
        metavar="SUBSET",
        help="comma-separated 1-based input indices; repeatable",
    )
    parser.add_argument("--n", help="pick-freeze sample size")
    parser.add_argument("--seed", help="master seed")
    parser.add_argument("--matrix", help="path to a whitespace-separated weight matrix file")
    parser.add_argument("--ci", choices=["none", "delta", "bootstrap"], help="interval method")
    parser.add_argument("--ci-level", help="confidence level (default 0.95)")
    parser.add_argument("--ci-reps", help="bootstrap replicates (default 1000)")
    parser.add_argument("--oracle", choices=["none", "auto"], help="exact comparison mode")
    parser.add_argument("--replications", help="replication study size")
    parser.add_argument("--sample", help="estimator-only mode: pick-freeze sample CSV")
    parser.add_argument("--output", default="-", help="report destination (default stdout)")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument(
        "--reproducible",
        action="store_true",
        help="drop timing fields so identical configs give byte-identical reports",
    )
    return parser


def _tree_from_args(args: argparse.Namespace) -> dict:
    """The config file's tree (or an empty one) with the flags applied over it."""
    tree: dict = {"schema": 1}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                tree = _load_tree(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"config: cannot read {args.config}: {exc}") from None

    tree.update((key, getattr(args, key)) for key in _FLAG_KEYS if getattr(args, key) is not None)
    if args.sample is not None:
        tree.pop("model", None)
    if args.matrix:
        try:
            with warnings.catch_warnings():
                # an empty or comments-only file warns that it holds no data
                warnings.simplefilter("error", UserWarning)
                tree["matrix"] = np.atleast_2d(np.loadtxt(args.matrix, encoding="utf-8-sig")).tolist()
        except (OSError, ValueError, UserWarning) as exc:
            raise ConfigurationError(f"matrix: cannot read {args.matrix}: {exc}") from None
    ci_flags = {"kind": args.ci, "level": args.ci_level, "reps": args.ci_reps}
    if any(value is not None for value in ci_flags.values()):
        # the interval flags update the config's ci mapping; without --ci its
        # kind stays as configured (delta when the config has no interval)
        ci = tree.get("ci")
        ci = dict(ci) if isinstance(ci, dict) else {"kind": ci or "delta"}
        ci.update((key, value) for key, value in ci_flags.items() if value is not None)
        tree["ci"] = ci
    return tree


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = config_from_tree(_tree_from_args(args))
        config.reproducible = args.reproducible
        write_report(run(config), args.output, args.format)
    except (ConfigurationError, ContractError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReportError as exc:
        print(f"report error: {exc}", file=sys.stderr)
        return EXIT_IO
    except VecSobolError as exc:
        # degenerate models and samples, ill-posed indices, oracle limits
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except MemoryError as exc:
        print(f"error: out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: seeded inputs, set-up, one analysis pass, checks.

Each workload writes its inputs from the seed into its work directory
(``generate``), builds a ready run from those files in a fresh process
(``setup``), runs one full analysis pass (``run_pass``) and checks the first
pass's output (``check``). Why each workload exists is in README.md.
"""

from __future__ import annotations

import importlib
import json
import math
from pathlib import Path

import numpy as np

LAYERS = ("spaces", "models", "pickfreeze", "inference", "oracle", "cli")


def import_package() -> dict:
    """Import vecsobol and its layer modules; returns them by layer name."""
    return {name: importlib.import_module(f"vecsobol.{name}") for name in LAYERS}


def _write_json(path: Path, tree) -> None:
    # configs are JSON documents, which the CLI's YAML loader reads as-is
    path.write_text(json.dumps(tree, indent=1), encoding="utf-8")


def _within_se(errors, what, estimate, target, sigma2_hat, n, k=5.0):
    se = math.sqrt(sigma2_hat / n)
    if not abs(estimate - target) <= k * se:
        errors.append(f"{what}: estimate {estimate!r} is not within {k} SE ({se:.3e}) of {target!r}")


def _check_oracle_residual(errors, sub):
    if not sub["oracle_sum_residual"] <= 1e-10:
        errors.append(f"subset {sub['subset']}: oracle sum residual {sub['oracle_sum_residual']!r} > 1e-10")


class CliWorkload:
    """A workload whose pass runs parsed CLI configs and serializes each report."""

    configs: tuple[str, ...] = ()  # config files in the work directory, run in order

    def setup(self, work: Path, vs: dict):
        cli = vs["cli"]
        parsed = []
        for name in self.configs:
            config = cli.parse_config((work / name).read_text(encoding="utf-8"))
            config.reproducible = True
            parsed.append(config)
        return parsed

    def run_pass(self, state, vs: dict) -> list:
        cli = vs["cli"]
        return [cli.report_to_json(cli.run(config)) for config in state]


class BigNDelta(CliWorkload):
    name = "bigN_delta"
    configs = ("config.json",)
    N, K, P = 500_000, 4, 6
    SUBSETS = [[1], [2], [3], [4], [5], [6], [1, 2]]
    WEIGHTS = (1.0, 2.0, 3.0, 4.0)
    SE_SAMPLE = 50_000

    def generate(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        # three decimals keep every entry a plain decimal literal in the config
        matrix = np.round(rng.standard_normal((self.K, self.P)), 3).tolist()
        _write_json(work / "config.json", {
            "schema": 1,
            "model": {"name": "linear", "params": {"matrix": matrix}},
            "subsets": self.SUBSETS,
            "n": self.N,
            "seed": seed,
            "ci": "delta",
            "oracle": "auto",
            "matrix": np.diag(self.WEIGHTS).tolist(),
        })
        return {"n": self.N, "k": self.K, "p": self.P, "subsets": len(self.SUBSETS)}

    def check(self, work: Path, state, first: list, vs: dict) -> list:
        errors = []
        config = state[0]
        pickfreeze = vs["pickfreeze"]
        # With M = diag(w) >= 0, Tr(M C)/Tr(M Sigma) is the plain index of the
        # outputs scaled by sqrt(w), so the delta method on scaled outputs
        # gives the weighted estimator's asymptotic variance. A separate
        # sample of SE_SAMPLE pairs estimates it; only its n-free constant is used.
        scale = np.diag(np.sqrt(self.WEIGHTS))
        for subset, sub in zip(config.subsets, json.loads(first[0])["subsets"]):
            _check_oracle_residual(errors, sub)
            _within_se(errors, f"subset {sub['subset']}", sub["estimate"], sub["oracle_subset"],
                       sub["sigma2_hat"], sub["n"])
            design = pickfreeze.generate_design(config.space, subset, self.SE_SAMPLE, config.seed + 1)
            sample = pickfreeze.evaluate_pairs(config.model, design).left_compose(scale)
            _within_se(errors, f"subset {sub['subset']} weighted", sub["estimate_weighted"],
                       sub["oracle_weighted"], vs["inference"].delta_variance(sample), sub["n"])
        return errors


class ReplicateBootstrap(CliWorkload):
    name = "replicate_bootstrap"
    configs = ("config.json",)
    N, REPS, B_REPS = 2000, 200, 200

    def generate(self, work: Path, seed: int) -> dict:
        _write_json(work / "config.json", {
            "schema": 1,
            "model": "sum_prod",
            "subsets": [[1]],
            "n": self.N,
            "seed": seed,
            "ci": {"kind": "bootstrap", "reps": self.B_REPS},
            "oracle": "auto",
            "replications": self.REPS,
        })
        return {"n": self.N, "k": 2, "p": 2, "subsets": 1, "replications": self.REPS,
                "bootstrap_reps": self.B_REPS}

    def check(self, work: Path, state, first: list, vs: dict) -> list:
        errors = []
        sub = json.loads(first[0])["subsets"][0]
        _check_oracle_residual(errors, sub)
        _within_se(errors, "estimate", sub["estimate"], sub["oracle_subset"], sub["sigma2_hat"], sub["n"])
        rep = sub["replication"]
        # The percentile bootstrap covers about 0.94 here, so a fixed floor of
        # 0.90 would fail a correct run about once in 80 seeds; the floor is
        # 5 binomial standard deviations below the nominal level instead.
        level = sub["ci_level"]
        floor = level - 5.0 * math.sqrt(level * (1.0 - level) / rep["reps"])
        if not floor <= rep["coverage"] <= 0.99:
            errors.append(f"replication coverage {rep['coverage']!r} is outside [{floor:.3f}, 0.99]")
        mean_se = rep["std_empirical"] / math.sqrt(rep["reps"])
        if not abs(rep["mean_estimate"] - rep["target"]) <= 5.0 * mean_se:
            errors.append(f"mean estimate {rep['mean_estimate']!r} is not within 5 SE ({mean_se:.3e}) "
                          f"of the target {rep['target']!r}")
        return errors


# Each oracle_grid output is a seeded combination of product terms, and each
# term multiplies exp(r x) or sin(r x) factors of distinct inputs. Every
# covariance part then has an exact expression in one-dimensional moments,
# which the check uses as a reference independent of the package's grid.
GRID_TERMS = (
    ((0, "exp"),),
    ((1, "sin"),),
    ((2, "exp"),),
    ((3, "sin"),),
    ((0, "sin"), (2, "exp")),
    ((1, "exp"), (3, "sin")),
    ((0, "exp"), (1, "sin"), (3, "exp")),
)
_FACTOR_FN = {"exp": np.exp, "sin": np.sin}


def _exponentials(kind: str, rate: float) -> list:
    """A factor as a sum of c * exp(z x): exp(r x), or sin(r x) = (e^{irx} - e^{-irx}) / 2i."""
    if kind == "exp":
        return [(1.0, complex(rate, 0.0))]
    return [(-0.5j, complex(0.0, rate)), (0.5j, complex(0.0, -rate))]


def _uniform_mean(terms: list) -> float:
    """E[sum c * exp(z X)] for X ~ U(0, 1)."""
    return sum(c * (1.0 if z == 0 else np.expm1(z) / z) for c, z in terms).real


class OracleGrid:
    name = "oracle_grid"
    NODES, P, K = 32, 4, 3
    SUBSETS = [[1], [2], [3], [4], [1, 2]]

    def generate(self, work: Path, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        _write_json(work / "model.json", {
            "rates": [rng.uniform(0.5, 2.0, len(term)).tolist() for term in GRID_TERMS],
            "coef": rng.standard_normal((self.K, len(GRID_TERMS))).tolist(),
        })
        return {"grid_nodes": self.NODES**self.P, "nodes_per_dim": self.NODES, "k": self.K,
                "p": self.P, "subsets": len(self.SUBSETS)}

    def setup(self, work: Path, vs: dict):
        spec = json.loads((work / "model.json").read_text(encoding="utf-8"))
        rates, coef = spec["rates"], np.asarray(spec["coef"])

        def evaluate(x: np.ndarray) -> np.ndarray:
            t = np.empty((x.shape[0], len(GRID_TERMS)))
            for i, term in enumerate(GRID_TERMS):
                col = 1.0
                for (j, kind), r in zip(term, rates[i]):
                    col = col * _FACTOR_FN[kind](r * x[:, j])
                t[:, i] = col
            return t @ coef.T

        space = vs["spaces"].InputSpace.uniform(self.P)
        model = vs["models"].VectorModel(
            in_dims=self.P, out_dims=self.K, kind="builtin", eval_fn=evaluate,
            name="bench_grid", default_space=space,
        )
        subsets = [vs["spaces"].SubsetIndex.from_one_based(s, self.P) for s in self.SUBSETS]
        return {"model": model, "space": space, "subsets": subsets, "rates": rates, "coef": coef}

    def run_pass(self, state, vs: dict) -> list:
        oracle = vs["oracle"]
        out = []
        for subset in state["subsets"]:
            triple = oracle.covariances_quadrature(state["model"], state["space"], subset, self.NODES)
            idx = oracle.exact_index(triple, np.eye(self.K))
            out.append((idx.subset, idx.complement, idx.interaction, triple.residual,
                        triple.accuracy_warning))
        return out

    def _reference_cov(self, state, group) -> np.ndarray:
        """Cov(E[f | X_group]) from exact one-dimensional moments."""
        factors = []  # factors[t][j]: exponential sum of term t's factor on input j
        for term, rates in zip(GRID_TERMS, state["rates"]):
            row = [[(1.0, 0j)] for _ in range(self.P)]
            for (j, kind), r in zip(term, rates):
                row[j] = _exponentials(kind, r)
            factors.append(row)
        n_terms = len(GRID_TERMS)
        m1 = np.array([[_uniform_mean(factors[t][j]) for j in range(self.P)] for t in range(n_terms)])
        kern = np.empty((n_terms, n_terms))
        for t in range(n_terms):
            for s in range(n_terms):
                value = 1.0
                for j in range(self.P):
                    if j in group:
                        prod = [(a * b, y + z) for a, y in factors[t][j] for b, z in factors[s][j]]
                        value *= _uniform_mean(prod)
                    else:
                        value *= m1[t, j] * m1[s, j]
                kern[t, s] = value - m1[t].prod() * m1[s].prod()
        return state["coef"] @ kern @ state["coef"].T

    def check(self, work: Path, state, first: list, vs: dict) -> list:
        errors = []
        total = np.trace(self._reference_cov(state, range(self.P)))
        for subset, (s_sub, s_comp, s_int, residual, warning) in zip(state["subsets"], first):
            label = list(subset.to_one_based())
            if not residual <= 1e-8 or warning:
                errors.append(f"subset {label}: quadrature residual {residual!r}, warning {warning}")
            ref_sub = np.trace(self._reference_cov(state, subset.indices)) / total
            ref_comp = np.trace(self._reference_cov(state, subset.complement)) / total
            ref = (ref_sub, ref_comp, 1.0 - ref_sub - ref_comp)
            got = (s_sub, s_comp, s_int)
            if not np.allclose(got, ref, rtol=0.0, atol=1e-9):
                errors.append(f"subset {label}: indices {got} differ from the reference {ref}")
        return errors


class ExternalTable(CliWorkload):
    name = "external_table"
    configs = ("external.json", "sample.json")
    N = 100_000
    SUBSETS = [[1], [2]]

    def _tree(self, seed: int, model) -> dict:
        return {"schema": 1, "model": model, "space": [{"kind": "uniform"}, {"kind": "uniform"}],
                "subsets": self.SUBSETS, "n": self.N, "seed": seed}

    def generate(self, work: Path, seed: int) -> dict:
        from vecsobol import cli, models, pickfreeze, spaces

        sum_prod = models.get_model("sum_prod")
        reference = self._tree(seed, "sum_prod")
        _write_json(work / "reference.json", reference)
        _write_json(work / "external.json", self._tree(seed, {"external": str(work / "table.csv")}))

        # tabulate sum_prod on exactly the rows run() requests: record them
        # through a model that evaluates sum_prod and keeps its inputs
        requested = []

        def record(x: np.ndarray) -> np.ndarray:
            requested.append(x.copy())
            return sum_prod.eval_fn(x)

        recorder = models.VectorModel(in_dims=2, out_dims=2, kind="builtin", eval_fn=record)
        config = cli.config_from_tree(reference)
        for i in range(len(config.subsets)):
            pickfreeze.evaluate_pairs(recorder, cli.subset_design(config, i))
        x = np.vstack(requested)
        table = np.hstack([x, sum_prod.evaluate(x)])
        # %.17g round-trips every double exactly
        np.savetxt(work / "table.csv", table, fmt="%.17g", delimiter=",", header="x1,x2,y1,y2",
                   comments="")

        space = spaces.InputSpace.uniform(2)
        subset = spaces.SubsetIndex((0,), 2)
        pairs_seed = np.random.SeedSequence([seed, 1])  # apart from run()'s streams
        sample = pickfreeze.evaluate_pairs(
            sum_prod, pickfreeze.generate_design(space, subset, self.N, pairs_seed))
        pickfreeze.write_sample_csv(sample, str(work / "pairs.csv"))
        _write_json(work / "sample.json",
                    {"schema": 1, "sample": str(work / "pairs.csv"), "subsets": [[1]], "seed": seed})
        _write_json(work / "expected.json", {"sample_estimate": pickfreeze.estimate_index(sample)})
        return {"n": self.N, "k": 2, "p": 2, "subsets": len(self.SUBSETS), "table_rows": len(table),
                "sample_pairs": self.N}

    def check(self, work: Path, state, first: list, vs: dict) -> list:
        errors = []
        cli = vs["cli"]
        external = json.loads(first[0])["subsets"]
        reference = cli.run(cli.parse_config((work / "reference.json").read_text(encoding="utf-8")))
        for got, ref in zip(external, reference.subsets):
            if got["estimate"] != ref.estimate:
                errors.append(f"subset {got['subset']}: external estimate {got['estimate']!r} "
                              f"differs from sum_prod's {ref.estimate!r}")
        expected = json.loads((work / "expected.json").read_text(encoding="utf-8"))["sample_estimate"]
        got = json.loads(first[1])["subsets"][0]["estimate"]
        if got != expected:
            errors.append(f"sample-mode estimate {got!r} differs from estimate_index {expected!r}")
        return errors


WORKLOADS = {w.name: w for w in (BigNDelta(), ReplicateBootstrap(), OracleGrid(), ExternalTable())}

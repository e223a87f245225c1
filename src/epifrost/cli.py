"""Command-line interface.

    epifrost simulate   --config cfg.json [--seed S] [--replicates R] [--out PATH]
    epifrost solve      --config cfg.json
    epifrost extinction --config cfg.json
    epifrost clt        --config cfg.json
    epifrost graph      --config cfg.json
    epifrost validate   --config cfg.json [--seed S] [--replicates R] [--out PATH]

Exit codes: 0 success (all enabled checks pass), 1 check failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import branching, clt, deterministic, harness
from .config import ExperimentConfig, load_config
from .errors import ConvergenceError, SingularMatrixError

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _emit(payload: dict) -> None:
    print(json.dumps(harness.to_jsonable(payload), indent=2))


def _load(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "replicates", None) is not None:
        overrides["replicates"] = args.replicates
    if getattr(args, "out", None) is not None:
        overrides["output_path"] = Path(args.out)
    return dataclasses.replace(config, **overrides) if overrides else config


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    _, stats = harness.simulate_ensemble(config)
    _emit({
        "replicates": stats.n_records,
        "major_fraction": stats.major_fraction,
        "major_fraction_se": stats.major_fraction_se,
        "major_mean_fraction": stats.major_mean_fraction,
        "records": str(config.output_path) if config.output_path else None,
    })
    return EXIT_OK


def _solve(config: ExperimentConfig) -> deterministic.DeterministicSolution:
    return deterministic.solve_tau(config.kernel.mu, config.population.pi,
                                   config.population.zeta)


def _cmd_solve(args: argparse.Namespace) -> int:
    config = _load(args)
    sol = _solve(config)
    _emit({
        "tau": sol.tau,
        "sigma": sol.sigma,
        "R": sol.R,
        "regime": sol.regime.value,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "error_bound": sol.error_bound,
        "nonuniqueness_risk": sol.nonuniqueness_risk,
    })
    return EXIT_OK


def _cmd_extinction(args: argparse.Namespace) -> int:
    config = _load(args)
    sol = branching.extinction_probability(config.kernel, config.population.pi,
                                           a=config.population.a)
    _emit({
        "q": sol.q,
        "major_outbreak_prob": sol.major_outbreak_prob,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "error_bound": sol.error_bound,
        "mc_samples": sol.mc_samples,
    })
    return EXIT_OK


def _cmd_clt(args: argparse.Namespace) -> int:
    config = _load(args)
    sol = _solve(config)
    summary = clt.asymptotic_covariance(config.kernel.mu, config.kernel.lam,
                                        config.population.pi, sol.tau,
                                        config.population.zeta,
                                        allocation=config.population.allocation)
    _emit({
        "sigma": np.diag(summary.sigma_diag),
        "xi": summary.xi,
        "u": summary.u_matrix,
        "upsilon": summary.upsilon,
        "asym_cov": summary.asym_cov,
        "cond_u": summary.cond_u,
        "allocation": summary.allocation.value,
    })
    return EXIT_OK


def _cmd_graph(args: argparse.Namespace) -> int:
    config = _load(args)
    kernel = config.kernel
    _emit({
        "kind": config.kernel_kind,
        "mu": kernel.mu,
        "lambda": kernel.lam,
        "R": deterministic.compute_R(kernel.mu, config.population.pi),
        "moments_estimated": False,  # mu and lambda are exact for every kernel
    })
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load(args)
    records_path, report = harness.run_experiment(config)
    print(report.to_json())
    if records_path is not None:
        print(f"records written to {records_path}", file=sys.stderr)
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILURE


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epifrost",
        description="Multitype randomized Reed-Frost epidemics: simulation and asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("simulate", _cmd_simulate),
        ("solve", _cmd_solve),
        ("extinction", _cmd_extinction),
        ("clt", _cmd_clt),
        ("graph", _cmd_graph),
        ("validate", _cmd_validate),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        if name in ("simulate", "validate"):  # the theory commands run no ensemble
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
            p.add_argument("--replicates", type=int, default=None,
                           help="override the config replicate count")
            p.add_argument("--out", type=str, default=None, help="override the records path")
        p.set_defaults(func=fn)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConvergenceError, SingularMatrixError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (ValueError, FileNotFoundError) as exc:
        # ConfigError, and inputs the library rejects only once it runs them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())

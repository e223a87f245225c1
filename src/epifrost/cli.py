"""Command-line interface.

    epifrost simulate   --config cfg.json [--seed S] [--replicates R] [--out PATH]
    epifrost solve      --config cfg.json
    epifrost extinction --config cfg.json
    epifrost clt        --config cfg.json
    epifrost graph      --config cfg.json
    epifrost validate   --config cfg.json [--seed S] [--replicates R] [--out PATH]

Each command maps the loaded config to one payload, which ``main`` prints as
one JSON object; ``validate`` prints the report it writes next to the records.
``solve``, ``extinction`` and ``clt`` print one result of the config's theory
(``ExperimentConfig.attack_rate``, ``extinction``, ``asymptotics``), solved on
its first read, as that result's fields in their declared order: the
payload's schema is the result type's.  A command imports the layers it runs
when it runs, so ``solve`` never loads the simulator and ``graph`` solves
nothing.
Exit codes: 0 success (all enabled checks pass), 1 check failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TYPE_CHECKING, Optional

import numpy as np

from .config import ExperimentConfig, json_arrays, parse_config, read_document
from .errors import ConvergenceError, SingularMatrixError

if TYPE_CHECKING:
    from .harness import ValidationReport

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL_FAILURE = 3


def _simulate(config: ExperimentConfig) -> dict:
    from . import harness

    _, stats = harness.simulate_ensemble(config)
    return {
        "replicates": stats.n_records,
        "major_fraction": stats.major_fraction,
        "major_fraction_se": stats.major_fraction_se,
        "major_mean_fraction": stats.major_mean_fraction,
        "records": str(config.output_path) if config.output_path else None,
    }


def _graph(config: ExperimentConfig) -> dict:
    from . import deterministic

    kernel = config.kernel
    return {
        "kind": config.kernel_kind,
        "mu": kernel.mu,
        "lambda": kernel.lam,
        "R": deterministic.compute_R(kernel.mu, config.population.pi),
        "moments_estimated": False,  # mu and lambda are exact for every kernel
    }


def _validate(config: ExperimentConfig) -> ValidationReport:
    from . import harness

    records_path, report = harness.run_experiment(config)
    if records_path is not None:
        print(f"records written to {records_path}", file=sys.stderr)
    return report


# command -> (its payload from the config, whether it runs an ensemble and so
# takes --seed, --replicates and --out)
COMMANDS = {
    "simulate": (_simulate, True),
    "solve": (lambda config: vars(config.attack_rate), False),
    "extinction": (lambda config: vars(config.extinction), False),
    "clt": (lambda config: vars(config.asymptotics), False),
    "graph": (_graph, False),
    "validate": (_validate, True),
}


@functools.cache  # built once per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epifrost",
        description="Multitype randomized Reed-Frost epidemics: simulation and asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, runs_ensemble) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        if runs_ensemble:
            p.add_argument("--seed", type=int, help="override the config seed")
            p.add_argument("--replicates", type=int, help="override the config replicate count")
            p.add_argument("--out", help="override the records path")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = read_document(args.config)
        if isinstance(doc, dict):  # the overrides replace its fields, so they meet the same rules
            doc = {**doc, **{key: value for key in ("seed", "replicates")
                             if (value := getattr(args, key, None)) is not None}}
            output = doc.get("output")
            if getattr(args, "out", None) is not None and (output is None or isinstance(output, dict)):
                doc["output"] = {**(output or {}), "path": args.out}
        config = parse_config(doc)
        payload = COMMANDS[args.command][0](config)
    except (ConvergenceError, SingularMatrixError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (ValueError, OSError) as exc:
        # ConfigError, inputs the library rejects only once it runs them, and
        # a config it cannot read or a records path it cannot write
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.command == "validate":  # its report, the string written next to the records
        print(payload.to_json())
        return EXIT_OK if payload.all_passed else EXIT_CHECK_FAILURE
    print(json.dumps(payload, indent=2, default=json_arrays))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Experiment configuration: a single JSON document.

Schema (see README for the full field reference):

    {
      "population": {"m": 1, "pi": [1.0], "N": 10000, "a": [1],
                     "allocation": "deterministic"},
      "kernel": {"kind": "constant", "mu": [[2.0]]},
      "replicates": 10000,
      "seed": 42,
      "threshold_override": null,
      "workers": 1,
      "output": {"path": "records.csv", "format": "csv"},
      "checks": ["lln", "major_prob", "clt", "branching_tv"]
    }

Kernel kinds: constant | custom_table | static_graph | mixed_bernoulli |
dynamic_graph | ball_clancy93 | ball_clancy95.  Kinds that assign types at
random (mixed_bernoulli, ball_clancy95) force multinomial allocation and
supply pi themselves; the population block may omit pi in that case.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .distributions import ScalarDist
from .errors import ConfigError
from .graphs import (
    BallClancy93Spec,
    DynamicGraphSpec,
    MixedGraphSpec,
    StaticGraphSpec,
    ball_clancy93_kernel,
    ball_clancy95_model,
    dynamic_bernoulli_kernel,
    mixed_bernoulli_kernel,
    static_bernoulli_kernel,
)
from .kernel import Allocation, InfectivityKernel, PopulationSpec, constant_kernel, table_kernel

__all__ = ["ExperimentConfig", "VALID_CHECKS", "load_config", "parse_config", "build_kernel"]

VALID_CHECKS = ("lln", "major_prob", "clt", "branching_tv")
TOP_LEVEL_FIELDS = ("population", "kernel", "replicates", "seed", "threshold_override",
                    "workers", "output", "checks")
POPULATION_FIELDS = ("m", "pi", "N", "a", "zeta", "allocation")
OUTPUT_FIELDS = ("path", "format")
# kernel kind -> its fields besides "kind"
KERNEL_FIELDS = {"constant": ("mu",), "custom_table": ("rows",),
                 "static_graph": ("alpha", "w", "w_mode"), "mixed_bernoulli": ("theta", "pi", "w"),
                 "dynamic_graph": ("rho_plus", "rho_minus", "beta", "q"),
                 "ball_clancy93": ("b", "sojourn"), "ball_clancy95": ("pi", "u")}


@dataclass(frozen=True)
class ExperimentConfig:
    population: PopulationSpec
    kernel: InfectivityKernel
    kernel_kind: str
    replicates: int
    seed: int
    threshold_override: Optional[int] = None
    output_path: Optional[Path] = None
    output_format: str = "csv"
    checks: tuple[str, ...] = ()


def _reject_unknown(table: dict, valid: tuple[str, ...], context: str) -> None:
    unknown = [key for key in table if key not in valid]
    if unknown:
        raise ConfigError(f"{context}: unknown field {unknown[0]!r}; valid fields are {valid}")


def _require(table: dict, key: str, context: str):
    if key not in table:
        raise ConfigError(f"{context}: missing required field {key!r}")
    return table[key]


def _scalar_dist(cfg, context: str) -> ScalarDist:
    try:
        return ScalarDist.from_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def build_kernel(cfg: dict) -> tuple[InfectivityKernel, Optional[Allocation], Optional[np.ndarray]]:
    """Compile a kernel config block.

    Returns (kernel, forced_allocation, kernel_pi); the last two are None
    unless the model dictates random type allocation with its own pi.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("kernel block must be an object")
    kind = _require(cfg, "kind", "kernel")
    if kind not in KERNEL_FIELDS:
        raise ConfigError(f"kernel: unknown kind {kind!r}; valid kinds are {tuple(KERNEL_FIELDS)}")
    _reject_unknown(cfg, ("kind",) + KERNEL_FIELDS[kind], f"kernel ({kind})")
    try:
        if kind == "constant":
            return constant_kernel(np.asarray(_require(cfg, "mu", "kernel"), dtype=float)), None, None
        if kind == "custom_table":
            rows = [(np.asarray(_require(row, "values", "kernel.rows"), dtype=float),
                     np.asarray(_require(row, "probs", "kernel.rows"), dtype=float))
                    for row in _require(cfg, "rows", "kernel")]
            return table_kernel(rows), None, None
        if kind == "static_graph":
            spec = StaticGraphSpec(
                alpha=np.asarray(_require(cfg, "alpha", "kernel"), dtype=float),
                w=_scalar_dist(_require(cfg, "w", "kernel"), "kernel.w"),
                w_mode=cfg.get("w_mode", "independent"),
            )
            return static_bernoulli_kernel(spec), None, None
        if kind == "mixed_bernoulli":
            spec = MixedGraphSpec(
                theta=np.asarray(_require(cfg, "theta", "kernel"), dtype=float),
                pi=np.asarray(_require(cfg, "pi", "kernel"), dtype=float),
                w=_scalar_dist(_require(cfg, "w", "kernel"), "kernel.w"),
            )
            kernel, alloc = mixed_bernoulli_kernel(spec)
            return kernel, alloc, spec.pi
        if kind == "dynamic_graph":
            q_cfg = _require(cfg, "q", "kernel")
            rho_plus = np.asarray(_require(cfg, "rho_plus", "kernel"), dtype=float)
            m = np.atleast_2d(rho_plus).shape[0]
            q = ([_scalar_dist(c, "kernel.q") for c in q_cfg] if isinstance(q_cfg, list)
                 else [_scalar_dist(q_cfg, "kernel.q")] * m)
            spec = DynamicGraphSpec(
                rho_plus=rho_plus,
                rho_minus=np.asarray(_require(cfg, "rho_minus", "kernel"), dtype=float),
                beta=np.asarray(_require(cfg, "beta", "kernel"), dtype=float),
                q=q,
            )
            return dynamic_bernoulli_kernel(spec), None, None
        if kind == "ball_clancy93":
            b = np.asarray(_require(cfg, "b", "kernel"), dtype=float)
            sojourn_cfg = _require(cfg, "sojourn", "kernel")
            sojourn = [[_scalar_dist(c, "kernel.sojourn") for c in row] for row in sojourn_cfg]
            return ball_clancy93_kernel(BallClancy93Spec(b=b, sojourn=sojourn)), None, None
        if kind == "ball_clancy95":
            pi = np.asarray(_require(cfg, "pi", "kernel"), dtype=float)
            base = [_scalar_dist(c, "kernel.u") for c in _require(cfg, "u", "kernel")]
            kernel, alloc = ball_clancy95_model(base, pi)
            return kernel, alloc, pi
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"kernel ({kind}): {exc}") from exc
    raise AssertionError("unreachable")


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the runtime objects."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, TOP_LEVEL_FIELDS, "config")

    kernel_cfg = _require(doc, "kernel", "config")
    kernel, forced_alloc, kernel_pi = build_kernel(kernel_cfg)

    pop_cfg = _require(doc, "population", "config")
    if not isinstance(pop_cfg, dict):
        raise ConfigError("population block must be an object")
    _reject_unknown(pop_cfg, POPULATION_FIELDS, "population")
    pi = pop_cfg.get("pi")
    if pi is None:
        if kernel_pi is None:
            raise ConfigError("population: missing required field 'pi'")
        pi = kernel_pi
    else:
        pi = np.asarray(pi, dtype=float)
        if kernel_pi is not None and not np.allclose(pi, kernel_pi, atol=1e-12):
            raise ConfigError("population.pi conflicts with the kernel's type distribution")

    allocation = pop_cfg.get("allocation", "deterministic")
    try:
        allocation = Allocation(allocation)
    except ValueError as exc:
        raise ConfigError(f"population: unknown allocation {allocation!r}") from exc
    if forced_alloc is not None:
        # random-type models require multinomial allocation regardless of the config
        allocation = forced_alloc

    try:
        population = PopulationSpec(
            m=int(pop_cfg.get("m", len(pi))),
            pi=pi,
            N=int(_require(pop_cfg, "N", "population")),
            a=np.asarray(pop_cfg["a"], dtype=np.int64) if "a" in pop_cfg else None,
            zeta=(np.asarray(pop_cfg["zeta"], dtype=float)
                  if "zeta" in pop_cfg and "a" not in pop_cfg else None),
            allocation=allocation,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"population: {exc}") from exc
    if population.m != kernel.m:
        raise ConfigError(
            f"population has {population.m} types but the kernel has {kernel.m}")
    if population.N < kernel.max_scaled < math.inf:
        raise ConfigError(f"kernel: scaled infectivity {kernel.max_scaled} exceeds "
                          f"population scale {population.N}")

    replicates = int(doc.get("replicates", 1))
    if replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {replicates}")
    if doc.get("workers", 1) != 1:  # replicates run one after another
        raise ConfigError(f"workers must be 1, got {doc['workers']!r}")

    threshold = doc.get("threshold_override")
    if threshold is not None:
        threshold = int(threshold)
        if threshold < 0:
            raise ConfigError(f"threshold_override must be >= 0, got {threshold}")

    checks = tuple(doc.get("checks", ()))
    for c in checks:
        if c not in VALID_CHECKS:
            raise ConfigError(f"unknown check {c!r}; valid checks are {VALID_CHECKS}")

    output = doc.get("output", {})
    if output and not isinstance(output, dict):
        raise ConfigError("output block must be an object")
    _reject_unknown(output, OUTPUT_FIELDS, "output")
    output_format = output.get("format", "csv")
    if output_format not in ("csv", "jsonl"):
        raise ConfigError(f"output.format must be 'csv' or 'jsonl', got {output_format!r}")

    return ExperimentConfig(
        population=population,
        kernel=kernel,
        kernel_kind=kernel_cfg["kind"],
        replicates=replicates,
        seed=int(doc.get("seed", 0)),
        threshold_override=threshold,
        output_path=Path(output["path"]) if output.get("path") else None,
        output_format=output_format,
        checks=checks,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a JSON config file.

    JSON syntax errors are re-raised as ConfigError with the line/column
    diagnostic preserved.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return parse_config(doc)

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

Each block (the document, ``population``, ``output``, the ``kernel`` of each
kind in ``KINDS``, a ``custom_table`` row, a scalar law in ``LAWS``) is one
JSON object whose fields are the parameters of the function that builds it
(``_build``).  Kinds that assign types at random (mixed_bernoulli,
ball_clancy95) force multinomial allocation and supply pi themselves.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

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


@functools.cache  # one signature read per builder, not one per config
def _fields(builder: Callable) -> dict[str, bool]:
    """A builder's keyword parameters, its block's fields, and whether each is required."""
    return {p.name: p.default is p.empty for p in inspect.signature(builder).parameters.values()
            if p.kind is not p.POSITIONAL_ONLY}


def _build(builder: Callable, block, context: str, *args):
    """``builder(*args, **block)``: the block's fields are the builder's keyword
    parameters, required if they have no default.  Each ConfigError names the
    block by ``context``, once: one from an inner block passes unchanged."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} block must be an object")
    fields = _fields(builder)
    for key in block:
        if key not in fields:
            raise ConfigError(f"{context}: unknown field {key!r}; valid fields are {tuple(fields)}")
    for key, required in fields.items():
        if required and key not in block:
            raise ConfigError(f"{context}: missing required field {key!r}")
    try:
        return builder(*args, **block)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _tagged(block, tag: str, table: dict, context: str) -> tuple[str, dict]:
    """The name ``block[tag]`` looks up in ``table``, and the block's other fields."""
    if not isinstance(block, dict):
        raise ConfigError(f"{context} block must be an object")
    if tag not in block:
        raise ConfigError(f"{context}: missing required field {tag!r}")
    name = block[tag]
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{context}: unknown {tag} {name!r}; valid {tag}s are {tuple(table)}")
    return name, {key: value for key, value in block.items() if key != tag}


# {"dist": name, ...} -> the ScalarDist constructor it names
LAWS = {name: getattr(ScalarDist, name) for name in
        ("constant", "exponential", "gamma", "bernoulli", "uniform", "beta", "discrete")}


def _laws(cfg, depth: int, context: str):
    """The law a block builds, or lists of them nested at most ``depth`` deep."""
    if isinstance(cfg, list) and depth > 0:
        return [_laws(c, depth - 1, context) for c in cfg]
    dist, fields = _tagged(cfg, "dist", LAWS, context)
    return _build(LAWS[dist], fields, f"{context} ({dist})")


def _constant(mu):
    return constant_kernel(mu)


def _custom_table(rows):
    return table_kernel([_build(_table_row, row, "kernel.rows") for row in rows])


def _table_row(values, probs):
    return values, probs


def _dynamic_graph(rho_plus, rho_minus, beta, q):
    """The dynamic graph, where a single lifetime law q applies to every type."""
    if isinstance(q, ScalarDist):
        q = [q] * len(np.atleast_2d(rho_plus))
    return dynamic_bernoulli_kernel(DynamicGraphSpec(rho_plus, rho_minus, beta, q))


def _ball_clancy95(pi, u):
    return ball_clancy95_model(u, pi)


def _compiled(spec: type, compile_kernel: Callable) -> Callable:
    """``compile_kernel(spec(**fields))``, whose fields are the spec's parameters."""
    def build(**fields):
        return compile_kernel(spec(**fields))
    build.__wrapped__ = spec  # inspect.signature reads the spec's
    return build


# kind -> (its builder, {field holding laws: how deep they nest in lists})
KINDS = {
    "constant": (_constant, {}),
    "custom_table": (_custom_table, {}),
    "static_graph": (_compiled(StaticGraphSpec, static_bernoulli_kernel), {"w": 0}),
    "mixed_bernoulli": (_compiled(MixedGraphSpec, mixed_bernoulli_kernel), {"w": 0}),
    "dynamic_graph": (_dynamic_graph, {"q": 1}),
    "ball_clancy93": (_compiled(BallClancy93Spec, ball_clancy93_kernel), {"sojourn": 2}),
    "ball_clancy95": (_ball_clancy95, {"u": 1}),
}


def build_kernel(cfg: dict) -> tuple[InfectivityKernel, Optional[np.ndarray]]:
    """Compile a kernel config block into (kernel, kernel_pi); kernel_pi is None
    unless the model assigns types at random from its own pi."""
    kind, fields = _tagged(cfg, "kind", KINDS, "kernel")
    builder, laws = KINDS[kind]
    for name, depth in laws.items():
        if name in fields:
            fields[name] = _laws(fields[name], depth, f"kernel.{name}")
    kernel = _build(builder, fields, f"kernel ({kind})")
    if isinstance(kernel, tuple):  # (kernel, its forced random allocation)
        return kernel[0], np.asarray(fields["pi"], dtype=float)
    return kernel, None


def _population(kernel_pi, /, *, m=None, pi=None, N, a=None, zeta=None,
                allocation="deterministic") -> PopulationSpec:
    """The population block.  A kernel with its own ``kernel_pi`` supplies pi
    and forces multinomial allocation."""
    if allocation not in tuple(Allocation):
        raise ValueError(f"unknown allocation {allocation!r}")
    if kernel_pi is not None:
        if pi is not None and not np.allclose(np.asarray(pi, dtype=float), kernel_pi, atol=1e-12):
            raise ValueError("pi conflicts with the kernel's type distribution")
        pi = kernel_pi if pi is None else pi
        allocation = Allocation.RANDOM_MULTINOMIAL
    elif pi is None:
        raise ValueError("missing required field 'pi'")
    return PopulationSpec(m=int(len(pi) if m is None else m), pi=pi, N=int(N), a=a, zeta=zeta,
                          allocation=allocation)


def _output(path=None, format="csv") -> tuple[Optional[Path], str]:
    if format not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {format!r}")
    return Path(path) if path else None, format


def _experiment(population, kernel, replicates=1, seed=0, threshold_override=None, workers=1,
                output=None, checks=()) -> ExperimentConfig:
    """The top-level block."""
    built, kernel_pi = build_kernel(kernel)
    spec = _build(_population, population, "population", kernel_pi)
    if spec.m != built.m:
        raise ValueError(f"population has {spec.m} types but the kernel has {built.m}")
    if spec.N < built.max_scaled < math.inf:
        raise ValueError(f"kernel scaled infectivity {built.max_scaled} exceeds "
                         f"population scale {spec.N}")
    replicates = int(replicates)
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    if workers != 1:  # replicates run in one thread
        raise ValueError(f"workers must be 1, got {workers!r}")
    if threshold_override is not None:
        threshold_override = int(threshold_override)
        if threshold_override < 0:
            raise ValueError(f"threshold_override must be >= 0, got {threshold_override}")
    checks = tuple(checks)
    for c in checks:
        if c not in VALID_CHECKS:
            raise ValueError(f"unknown check {c!r}; valid checks are {VALID_CHECKS}")
    output_path, output_format = _build(_output, {} if output is None else output, "output")
    return ExperimentConfig(spec, built, kernel["kind"], replicates, int(seed), threshold_override,
                            output_path, output_format, checks)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the runtime objects."""
    return _build(_experiment, doc, "config")


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

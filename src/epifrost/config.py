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

A config holds its theory: tau (``attack_rate``), q (``extinction``) and the
Gaussian limit (``asymptotics``), each solved on its first read, kept on the
config and importing its layer only then, so loading a config solves nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .distributions import ScalarDist
from .errors import ConfigError
from .kernel import (Allocation, InfectivityKernel, PopulationSpec, constant_kernel, table_kernel,
                     whole_numbers)

if TYPE_CHECKING:
    from . import branching, clt, deterministic

__all__ = ["ExperimentConfig", "VALID_CHECKS", "read_document", "load_config", "parse_config",
           "build_kernel", "json_arrays"]

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

    # the theory; each solver is looked up on its module at the first read, as a tracer rebinds it
    @functools.cached_property
    def attack_rate(self) -> deterministic.DeterministicSolution:
        """The deterministic fixed point tau of (mu, pi, zeta)."""
        from . import deterministic
        return deterministic.solve_tau(self.kernel.mu, self.population.pi, self.population.zeta)

    @functools.cached_property
    def extinction(self) -> branching.ExtinctionSolution:
        """The extinction probabilities q of the branching approximation, seeded by a."""
        from . import branching
        return branching.extinction_probability(self.kernel, self.population.pi,
                                                a=self.population.a)

    @functools.cached_property
    def asymptotics(self) -> clt.AsymptoticSummary:
        """The Gaussian limit of the final-size fractions around ``attack_rate``'s tau."""
        from . import clt
        pop, kernel = self.population, self.kernel
        return clt.asymptotic_covariance(kernel.mu, kernel.lam, pop.pi, self.attack_rate.tau,
                                         pop.zeta, allocation=pop.allocation)


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
    from .graphs import DynamicGraphSpec, dynamic_bernoulli_kernel

    if isinstance(q, ScalarDist):
        q = [q] * len(np.atleast_2d(rho_plus))
    return dynamic_bernoulli_kernel(DynamicGraphSpec(rho_plus, rho_minus, beta, q))


class _Graphs:
    """``graphs.<build>(graphs.<spec>(**fields))``, or ``graphs.<build>(**fields)``
    without a spec; its fields are the parameters of the spec, or of build.
    ``graphs`` loads on the first call or signature read, so a config of a
    kind outside it never imports it."""

    def __init__(self, build: str, spec: Optional[str] = None):
        self.build, self.spec = build, spec

    @property
    def __signature__(self) -> inspect.Signature:
        from . import graphs
        return inspect.signature(getattr(graphs, self.spec or self.build))

    def __call__(self, **fields):
        from . import graphs
        if self.spec is not None:
            return getattr(graphs, self.build)(getattr(graphs, self.spec)(**fields))
        return getattr(graphs, self.build)(**fields)


# kind -> (its builder, {field holding laws: how deep they nest in lists})
KINDS = {
    "constant": (_constant, {}),
    "custom_table": (_custom_table, {}),
    "static_graph": (_Graphs("static_bernoulli_kernel", "StaticGraphSpec"), {"w": 0}),
    "mixed_bernoulli": (_Graphs("mixed_bernoulli_kernel", "MixedGraphSpec"), {"w": 0}),
    "dynamic_graph": (_dynamic_graph, {"q": 1}),
    "ball_clancy93": (_Graphs("ball_clancy93_kernel", "BallClancy93Spec"), {"sojourn": 2}),
    "ball_clancy95": (_Graphs("ball_clancy95_model"), {"u": 1}),
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
    return PopulationSpec(m=len(pi) if m is None else m, pi=pi, N=N, a=a, zeta=zeta,
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
    replicates = int(whole_numbers("replicates", replicates, low=1))
    if whole_numbers("workers", workers) != 1:  # replicates run in one thread
        raise ValueError(f"workers must be 1, got {workers!r}")
    seed = int(whole_numbers("seed", seed))
    if threshold_override is not None:
        threshold_override = int(whole_numbers("threshold_override", threshold_override))
    checks = tuple(checks)
    for c in checks:
        if c not in VALID_CHECKS:
            raise ValueError(f"unknown check {c!r}; valid checks are {VALID_CHECKS}")
    output_path, output_format = _build(_output, {} if output is None else output, "output")
    return ExperimentConfig(spec, built, kernel["kind"], replicates, seed, threshold_override,
                            output_path, output_format, checks)


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate a parsed JSON document and build the runtime objects."""
    return _build(_experiment, doc, "config")


def json_arrays(obj):
    """``json.dumps``'s ``default`` for numpy arrays and scalars: their plain Python values."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def read_document(path: str | Path):
    """The JSON document in a config file; a syntax error is a ConfigError naming its place."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a JSON config file."""
    return parse_config(read_document(path))

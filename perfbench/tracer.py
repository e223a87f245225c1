"""Layer tracing from outside the library.

``Tracer.install`` replaces each traced public function of epifrost with a
wrapper that records a span (name, start, end, parent) and per-call counts.
A function is rebound in every epifrost module that holds it, because the
library calls its own layers both through module attributes
(``branching.simulate_total_progeny``) and through names imported with
``from ... import`` (``harness.run_ensemble``).  ``uninstall`` puts every
original back and reports any binding it could not restore.

Spans stay in memory; the caller writes them out once, at the end.  All
work runs in one thread, so a stack gives each span its parent.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

import numpy as np

# harness._progeny_pmf bins branching totals 0..10 (its ``upto`` default)
PROGENY_PMF_UPTO = 10

_WRAPPED = "__perfbench_traced__"

# (span name, module holding the definition, attribute, owner class or None)
TARGETS = (
    ("config.load_config", "epifrost.config", "load_config", None),
    ("simulator.run_ensemble", "epifrost.simulator", "run_ensemble", None),
    ("simulator.replicate_rng", "epifrost.simulator", "replicate_rng", None),
    ("simulator.run_final_size", "epifrost.simulator", "run_final_size", None),
    ("kernel.resolve_population", "epifrost.kernel", "resolve_population", None),
    ("kernel.sample", "epifrost.kernel", "sample", "InfectivityKernel"),
    ("branching.simulate_total_progeny", "epifrost.branching", "simulate_total_progeny", None),
    ("branching.extinction_probability", "epifrost.branching", "extinction_probability", None),
    ("deterministic.solve_tau", "epifrost.deterministic", "solve_tau", None),
    ("deterministic.compute_R", "epifrost.deterministic", "compute_R", None),
    ("clt.asymptotic_covariance", "epifrost.clt", "asymptotic_covariance", None),
    ("clt.gaussian_check", "epifrost.clt", "gaussian_check", None),
    ("harness.write_records", "epifrost.harness", "write_records", None),
    ("harness.estimate_outbreak_statistics", "epifrost.harness",
     "estimate_outbreak_statistics", None),
    ("harness.run_experiment", "epifrost.harness", "run_experiment", None),
)


def _library_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "epifrost" or name.startswith("epifrost."))]


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (used for the benchmark's own stages)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- counts per layer --------------------------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict, result: Any) -> None:
        c = self.counts
        if name == "simulator.run_final_size":
            c["simulator.generations"] += result.generations
            c["simulator.infections"] += result.total
            c["simulator.seeds"] += int(result.population.n_infective.sum())
        elif name == "kernel.sample":
            c["kernel.sample.draws"] += 1 if result.ndim == 1 else result.shape[0]
        elif name == "branching.simulate_total_progeny":
            c["branching.simulate_total_progeny.births"] += result.total
            if not result.exceeded and result.total <= PROGENY_PMF_UPTO:
                c["branching.progeny_useful"] += 1
        elif name == "branching.extinction_probability":
            c["branching.extinction_probability.iterations"] += result.iterations
            c["branching.extinction_probability.mc_samples"] += result.mc_samples
        elif name == "deterministic.solve_tau":
            c["deterministic.solve_tau.iterations"] += result.iterations
        elif name == "harness.write_records":
            path = kwargs["path"] if "path" in kwargs else args[1]
            c["harness.write_records.bytes"] += os.path.getsize(path)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self._count(name, args, kwargs, result)
            return result

        setattr(traced, _WRAPPED, True)
        traced.__wrapped__ = fn
        return traced

    # -- install / restore -------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr, owner in TARGETS:
            home = sys.modules[module_name]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in _library_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched binding; return a description of any left wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        problems = [f"{getattr(owner, '__name__', owner)}.{attr} not restored"
                    for owner, attr, original in self._patches
                    if getattr(owner, attr) is not original]
        for mod in _library_modules():
            holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if getattr(value, _WRAPPED, False):
                        problems.append(f"{holder.__name__}.{key} still traced")
        self._patches.clear()
        return problems

    # -- reduction ---------------------------------------------------------

    def layer_times(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, self seconds and durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["durations"].append(end - start)
        return out


def per_layer_metrics(tracer: Tracer, rounds: int, setup: dict,
                      overhead: float) -> dict[str, tuple[float, str]]:
    """The per-layer metric table, per traced round (name -> (value, unit)).

    Every metric is a number, so a layer that a workload never calls reads 0,
    and so does a ratio whose denominator is 0.  That happens by design for
    ``branching.simulate_total_progeny.*`` and ``branching.progeny_useful_fraction``
    on mover_ensemble and theory_sweep (no branching_tv check), for
    ``clt.gaussian_check.s`` on theory_sweep (no clt check) and for
    ``branching.extinction_probability.mc_samples`` on rf_validate and
    mover_ensemble (closed-form generating functions).
    """
    layers = tracer.layer_times()
    c = tracer.counts

    def total(name: str, key: str) -> float:
        return layers[name][key] / rounds if name in layers else 0.0

    def quantile_us(name: str, q: float) -> float:
        if name not in layers:
            return 0.0
        return float(np.percentile(layers[name]["durations"], q)) * 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    runs = layers.get("simulator.run_final_size", {}).get("calls", 0)
    progeny_runs = layers.get("branching.simulate_total_progeny", {}).get("calls", 0)
    m: dict[str, tuple[float, str]] = {
        "config.load_config.s": (setup["load_config_s"], "s"),
        "setup.import.s": (setup["import_s"], "s"),
        "simulator.replicate_rng.calls": (total("simulator.replicate_rng", "calls"), "count"),
        "simulator.replicate_rng.s": (total("simulator.replicate_rng", "s"), "s"),
        "simulator.run_final_size.calls": (total("simulator.run_final_size", "calls"), "count"),
        "simulator.run_final_size.self_s": (total("simulator.run_final_size", "self_s"), "s"),
        "simulator.run_final_size.us_p50": (quantile_us("simulator.run_final_size", 50), "us"),
        "simulator.run_final_size.us_p99": (quantile_us("simulator.run_final_size", 99), "us"),
        "simulator.generations_mean": (ratio(c["simulator.generations"], runs), "count"),
        "simulator.infections": (c["simulator.infections"] / rounds, "count"),
        "kernel.resolve_population.calls": (total("kernel.resolve_population", "calls"), "count"),
        "kernel.resolve_population.s": (total("kernel.resolve_population", "s"), "s"),
        "kernel.sample.calls": (total("kernel.sample", "calls"), "count"),
        "kernel.sample.draws": (c["kernel.sample.draws"] / rounds, "count"),
        "kernel.sample.s": (total("kernel.sample", "s"), "s"),
        "kernel.draws_per_infection": (
            ratio(c["kernel.sample.draws"], c["simulator.infections"] + c["simulator.seeds"]),
            "ratio"),
        "branching.simulate_total_progeny.calls": (
            total("branching.simulate_total_progeny", "calls"), "count"),
        "branching.simulate_total_progeny.s": (total("branching.simulate_total_progeny", "s"), "s"),
        "branching.simulate_total_progeny.us_p50": (
            quantile_us("branching.simulate_total_progeny", 50), "us"),
        "branching.simulate_total_progeny.us_p99": (
            quantile_us("branching.simulate_total_progeny", 99), "us"),
        "branching.simulate_total_progeny.births": (
            c["branching.simulate_total_progeny.births"] / rounds, "count"),
        "branching.progeny_useful_fraction": (
            ratio(c["branching.progeny_useful"], progeny_runs), "ratio"),
        "branching.extinction_probability.s": (total("branching.extinction_probability", "s"), "s"),
        "branching.extinction_probability.iterations": (
            c["branching.extinction_probability.iterations"] / rounds, "count"),
        "branching.extinction_probability.mc_samples": (
            c["branching.extinction_probability.mc_samples"] / rounds, "count"),
        "deterministic.solve_tau.s": (total("deterministic.solve_tau", "s"), "s"),
        "deterministic.solve_tau.iterations": (
            c["deterministic.solve_tau.iterations"] / rounds, "count"),
        "deterministic.compute_R.calls": (total("deterministic.compute_R", "calls"), "count"),
        "deterministic.compute_R.s": (total("deterministic.compute_R", "s"), "s"),
        "clt.asymptotic_covariance.s": (total("clt.asymptotic_covariance", "s"), "s"),
        "clt.gaussian_check.s": (total("clt.gaussian_check", "s"), "s"),
        "harness.write_records.s": (total("harness.write_records", "s"), "s"),
        "harness.write_records.bytes": (c["harness.write_records.bytes"] / rounds, "bytes"),
        "harness.estimate_outbreak_statistics.s": (
            total("harness.estimate_outbreak_statistics", "s"), "s"),
        "harness.run_experiment.self_s": (total("harness.run_experiment", "self_s"), "s"),
        "trace.overhead_fraction": (overhead, "ratio"),
    }
    return m


def span_records(tracer: Tracer) -> list[list]:
    """Spans as [name, start_s, end_s, parent index], times from the first span's start."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    return [[name, round(start - t0, 7), round(end - t0, 7), parent]
            for name, start, end, parent in tracer.spans]

"""Exact generational simulation of the multitype final size.

One generation works like this: every active infective of type i draws its
infectivity vector V_i once; a remaining type-k susceptible then escapes
the whole generation with probability prod(1 - V_{.,k}) over all active
infectives, independently of other susceptibles.  The number of new type-k
infections is therefore Binomial(S_k, 1 - prod(1 - V_{.,k})), which is the
same distribution the per-individual indicator construction produces, at a
cost of m binomials per generation instead of one per infective.  The
literal indicator construction lives with the test suite's oracles
(``tests/oracles.py``), where property tests compare against it.

A generation depends on the last one only through the active counts, so an
ensemble runs all of its replicates (lines) together: per generation, one
escape term over every type (``InfectivityKernel.escape``) and one vector
binomial over the live lines.  A deterministic kernel's rows log(1 - V) are
computed once per N, so its generations draw only the binomials, and a line's
results are written once, when it stops.  Vector call c of an ensemble draws
from a Philox generator with the key of ``replicate_rng(seed, 0)`` and
counter (0, 0, c, 0), line by line, and the sequence of calls depends on
neither the replicate count nor the outcomes, so row r depends only on the
seed and rows 0..r.  Every kernel runs this way, the classic Reed-Frost
chain (one type, fixed V) included, and an ensemble comes back as one
``Ensemble`` of per-replicate arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernel import (Allocation, FreshFn, InfectivityKernel, PopulationSpec, ResolvedPopulation,
                     resolve_population)

__all__ = [
    "Ensemble",
    "FinalSizeRecord",
    "default_threshold",
    "run_final_size",
    "run_ensemble",
    "replicate_rng",
    "substreams",
]


@dataclass(frozen=True)
class FinalSizeRecord:
    """Final size of one epidemic realization.

    ``t_inf`` counts infections among the initially susceptible only,
    ``generations`` is the index of the last generation that produced a new
    infection (0 if the seeds infected nobody).
    """

    t_inf: np.ndarray
    generations: int
    population: ResolvedPopulation

    @property
    def total(self) -> int:
        return int(self.t_inf.sum())


@dataclass(frozen=True)
class Ensemble:
    """Final sizes of an ensemble, one row per replicate (row r is replicate r).

    ``n_susceptible`` is a read-only broadcast of the one split under
    deterministic allocation.  A replicate is major iff its total final size
    reaches ``threshold`` (ties count as major).
    """

    seed: int
    threshold: int
    t_inf: np.ndarray  # (R, m) int
    generations: np.ndarray  # (R,) int
    n_susceptible: np.ndarray  # (R, m) int

    def __len__(self) -> int:
        return len(self.generations)

    @property
    def total(self) -> np.ndarray:
        return self.t_inf.sum(axis=1)

    @property
    def major(self) -> np.ndarray:
        return self.total >= self.threshold


def default_threshold(n_susceptible: int) -> int:
    """Major/minor cut: ceil(N^(3/4)), between O(1) minor progeny and O(N) outbreaks."""
    return int(math.ceil(n_susceptible ** 0.75))


def run_final_size(spec: PopulationSpec, kernel: InfectivityKernel,
                   rng: np.random.Generator) -> FinalSizeRecord:
    """Run one epidemic to extinction and return its final size record.

    This is one line of the generation-synchronous engine, with every vector
    draw from ``rng``: the population split (random allocation only), then
    per generation the escape term's draws and the binomials.
    """
    if kernel.m != spec.m:
        raise ValueError(f"kernel has {kernel.m} types but population has {spec.m}")
    t_inf, generations, n_susceptible = _run_lines(spec, kernel, 1, lambda: rng)
    return FinalSizeRecord(t_inf=t_inf[0], generations=int(generations[0]),
                           population=ResolvedPopulation(n_susceptible[0], spec.a))


def _run_lines(spec: PopulationSpec, kernel: InfectivityKernel, n: int,
               fresh: FreshFn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_inf, generations, n_susceptible) of ``n`` epidemics (lines) run
    generation by generation, all live lines at once.

    ``fresh()`` gives the generator for each vector draw call.  The calls
    come in an order that depends on neither ``n`` nor the outcomes: the
    population split (random allocation only), then per generation the
    escape term's calls, the same whoever is active, and one binomial.
    Each call draws line by line, so line r depends only on lines 0..r.
    """
    m, N = spec.m, spec.N
    if spec.allocation is Allocation.DETERMINISTIC:
        n_susceptible = np.broadcast_to(resolve_population(spec).n_susceptible, (n, m))
    else:
        n_susceptible = fresh().multinomial(N, spec.pi, size=n)
    remaining = n_susceptible.copy()  # row r written once, when line r stops
    generations = np.zeros(n, dtype=np.int64)
    live = np.arange(n if spec.a.any() else 0)
    left = remaining[live]  # the live lines' remaining susceptibles, in the order of live
    active = np.broadcast_to(spec.a, (live.size, m))
    # cannot be exceeded; guards an infinite loop caused by a bug
    generation, generation_cap = 0, N + int(spec.a.sum()) + 1
    while live.size:
        infected = kernel.escape(active, N, fresh)  # drawn before the binomial; a new array
        np.negative(np.expm1(infected, out=infected), out=infected)
        new = fresh().binomial(left, infected)
        generation += 1
        if generation > generation_cap:
            raise RuntimeError("generation count exceeded the population size; simulator bug")
        left -= new
        spreading = new.any(axis=1)
        if not spreading.all():
            stopped = ~spreading
            remaining[live[stopped]] = left.compress(stopped, axis=0)
            generations[live[stopped]] = generation - 1
            live, left, new = (live[spreading], left.compress(spreading, axis=0),
                               new.compress(spreading, axis=0))
        active = new
    return n_susceptible - remaining, generations, n_susceptible


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Philox generator with key ``SeedSequence([seed, index])`` at counter 0.

    Index 0 holds the key of an ensemble's ``substreams(seed)``, whose call 0
    draws exactly what this generator draws; the ``branching_tv`` lines draw
    from ``replicate_rng(seed + 1, 0)``.  Any index gives an independent
    stream for a single ``run_final_size``.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


def substreams(seed: int) -> FreshFn:
    """``fresh`` for an ensemble's vector draw calls: call c re-keys one Philox
    generator to the key of ``replicate_rng(seed, 0)``, counter (0, 0, c, 0)
    and an empty buffer, and returns it.  The returned generator is valid
    only until the next call."""
    if seed < 0:
        raise ValueError(f"need a nonnegative seed, got {seed}")
    rng = replicate_rng(seed, 0)
    bitgen = rng.bit_generator
    state = bitgen.state  # the key, a zero counter and an empty buffer
    counter = state["state"]["counter"]
    calls = itertools.count()

    def fresh() -> np.random.Generator:
        counter[2] = next(calls)
        bitgen.state = state
        return rng

    return fresh


def run_ensemble(spec: PopulationSpec, kernel: InfectivityKernel, replicates: int,
                 seed: int, workers: int = 1,
                 threshold: Optional[int] = None) -> Ensemble:
    """Run an ensemble of independent replicates.

    Every replicate runs at once in the generation-synchronous engine, on
    the vector-call streams of ``substreams(seed)``; row r depends only on
    the seed and rows 0..r, so a shorter ensemble is a prefix of a longer
    one.  ``workers`` must be 1.  The major/minor threshold defaults to
    ``default_threshold(spec.N)``: both allocations resolve exactly N
    susceptibles.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    if kernel.m != spec.m:
        raise ValueError(f"kernel has {kernel.m} types but population has {spec.m}")
    threshold = default_threshold(spec.N) if threshold is None else threshold
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    t_inf, generations, n_susceptible = _run_lines(spec, kernel, replicates, substreams(seed))
    return Ensemble(seed=seed, threshold=threshold, t_inf=t_inf, generations=generations,
                    n_susceptible=n_susceptible)

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

Replicates are embarrassingly parallel: each owns a counter-based RNG
stream keyed by (base seed, replicate index), so ensembles are reproducible
bit-for-bit regardless of worker count.  An ensemble comes back as one
``Ensemble`` of per-replicate arrays.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import expm1, log1p
from typing import Optional

import numpy as np

from .kernel import Allocation, InfectivityKernel, PopulationSpec, ResolvedPopulation, resolve_population

__all__ = [
    "Ensemble",
    "FinalSizeRecord",
    "default_threshold",
    "run_final_size",
    "run_ensemble",
    "replicate_rng",
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
    """Run one epidemic to extinction and return its final size record."""
    if kernel.m != spec.m:
        raise ValueError(f"kernel has {kernel.m} types but population has {spec.m}")
    pop = resolve_population(spec, rng)
    m, N = spec.m, spec.N
    generations = 0
    # cannot be exceeded; guards an infinite loop caused by a bug
    generation_cap = N + int(pop.n_infective.sum()) + 1

    if kernel.deterministic and m == 1:
        # scalar fast path: one escape exponent and one binomial per generation
        v = float(kernel.sample(0, N, rng)[0])
        unit = log1p(-v) if v < 1.0 else -math.inf
        s0 = s = int(pop.n_susceptible[0])
        n_active = int(pop.n_infective[0])
        while n_active > 0:
            new = int(rng.binomial(s, -expm1(n_active * unit)))
            if new == 0:
                break
            s -= new
            n_active = new
            generations += 1
            if generations > generation_cap:
                raise RuntimeError("generation count exceeded the population size; simulator bug")
        return FinalSizeRecord(t_inf=np.array([s0 - s], dtype=np.int64),
                               generations=generations, population=pop)

    susceptible = pop.n_susceptible.astype(np.int64)
    active = pop.n_infective.astype(np.int64)
    fixed_log_escape = None
    if kernel.deterministic:
        # V is a fixed vector per type; hoist the per-infective escape terms
        with np.errstate(divide="ignore"):
            fixed_log_escape = np.stack([np.log1p(-kernel.sample(i, N, rng))
                                         for i in range(m)])

    while active.any():
        if fixed_log_escape is not None:
            idx = np.nonzero(active)[0]  # skip zero rows: 0 * -inf is nan
            log_escape = active[idx] @ fixed_log_escape[idx]
        else:
            log_escape = sum(kernel.log_escape(int(i), int(active[i]), N, rng)
                             for i in np.nonzero(active)[0])
        p_infect = -np.expm1(log_escape)
        new = rng.binomial(susceptible, p_infect)
        if not new.any():
            break
        susceptible -= new
        active = new
        generations += 1
        if generations > generation_cap:
            raise RuntimeError("generation count exceeded the population size; simulator bug")

    return FinalSizeRecord(t_inf=pop.n_susceptible - susceptible, generations=generations,
                           population=pop)


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate, keyed by (base seed, index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


def run_ensemble(spec: PopulationSpec, kernel: InfectivityKernel, replicates: int,
                 seed: int, workers: int = 1,
                 threshold: Optional[int] = None) -> Ensemble:
    """Run an ensemble of independent replicates.

    Replicate r always uses the stream derived from (seed, r), so the output
    is identical for any worker count.  The major/minor threshold defaults to
    ``default_threshold(spec.N)``: both allocations resolve exactly N
    susceptibles.
    """
    if replicates < 1:
        raise ValueError(f"need at least 1 replicate, got {replicates}")
    threshold = default_threshold(spec.N) if threshold is None else threshold
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")

    def one(r: int) -> FinalSizeRecord:
        return run_final_size(spec, kernel, replicate_rng(seed, r))

    if workers <= 1:
        records = [one(r) for r in range(replicates)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(one, range(replicates)))
    t_inf = np.stack([rec.t_inf for rec in records])
    if spec.allocation is Allocation.DETERMINISTIC:
        n_susceptible = np.broadcast_to(records[0].population.n_susceptible, t_inf.shape)
    else:
        n_susceptible = np.stack([rec.population.n_susceptible for rec in records])
    return Ensemble(seed=seed, threshold=threshold, t_inf=t_inf,
                    generations=np.array([rec.generations for rec in records], dtype=np.int64),
                    n_susceptible=n_susceptible)

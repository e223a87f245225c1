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
batched escape term per type (``InfectivityKernel.log_escape``) and one
vector binomial over the live lines.  Vector call c of an ensemble draws
from a Philox generator with the key of ``replicate_rng(seed, 0)`` and
counter (0, 0, c, 0), line by line, and the sequence of calls depends on
neither the replicate count nor the outcomes, so row r depends only on the
seed and rows 0..r.  A deterministic one-type kernel (the classic
Reed-Frost chain) instead runs its replicates one after another, replicate
r on the stream of ``replicate_rng(seed, r)``.  Either way an ensemble comes
back as one ``Ensemble`` of per-replicate arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import expm1, log1p
from typing import Callable, Iterator, Optional

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
    "replicate_streams",
    "stream_keys",
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

    A deterministic one-type kernel takes the scalar path below; any other
    kernel runs as one line of the generation-synchronous engine, with every
    vector draw from ``rng``: the population split, then per generation each
    type's escape term in type order and the binomials.
    """
    if kernel.m != spec.m:
        raise ValueError(f"kernel has {kernel.m} types but population has {spec.m}")
    if not (kernel.deterministic and spec.m == 1):
        t_inf, generations, n_susceptible = _run_lines(spec, kernel, 1, lambda: rng)
        return FinalSizeRecord(t_inf=t_inf[0], generations=int(generations[0]),
                               population=ResolvedPopulation(n_susceptible[0], spec.a))

    # scalar path: one escape exponent and one binomial per generation
    pop = resolve_population(spec, rng)
    N = spec.N
    generations = 0
    # cannot be exceeded; guards an infinite loop caused by a bug
    generation_cap = N + int(pop.n_infective.sum()) + 1
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


def _run_lines(spec: PopulationSpec, kernel: InfectivityKernel, n: int,
               fresh: FreshFn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t_inf, generations, n_susceptible) of ``n`` epidemics (lines) run
    generation by generation, all live lines at once.

    ``fresh()`` gives the generator for each vector draw call.  The calls
    come in an order that depends on neither ``n`` nor the outcomes: the
    population split (random allocation only), then per generation every
    type's escape term, active or not, and one binomial over the live lines.
    Each call draws line by line, so line r depends only on lines 0..r.
    """
    m, N = spec.m, spec.N
    if spec.allocation is Allocation.DETERMINISTIC:
        n_susceptible = np.broadcast_to(resolve_population(spec).n_susceptible, (n, m))
    else:
        n_susceptible = fresh().multinomial(N, spec.pi, size=n)
    remaining = n_susceptible.copy()
    generations = np.zeros(n, dtype=np.int64)
    live = np.arange(n if spec.a.any() else 0)
    active = np.broadcast_to(spec.a, (live.size, m))
    # cannot be exceeded; guards an infinite loop caused by a bug
    generation, generation_cap = 0, N + int(spec.a.sum()) + 1
    while live.size:
        log_escape = sum(kernel.log_escape(i, active[:, i], N, fresh) for i in range(m))
        new = fresh().binomial(remaining[live], -np.expm1(log_escape))
        generation += 1
        if generation > generation_cap:
            raise RuntimeError("generation count exceeded the population size; simulator bug")
        remaining[live] -= new
        spreading = new.any(axis=1)
        live, active = live[spreading], new[spreading]
        generations[live] = generation
    return n_susceptible - remaining, generations, n_susceptible


def replicate_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one replicate, keyed by (base seed, index)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, index])))


# numpy's SeedSequence: O'Neill's seed_seq_fe hash with a pool of four uint32 words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
MAX_REPLICATES = 2 ** 32  # an index below 2^32 is one entropy word
KEY_BLOCK = 4096  # keys derived per batch; bounds the memory an ensemble's keys take


def _hasher(hash_const: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return out ^ (out >> np.uint32(16))


def stream_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """(stop - start, 2) uint64 Philox keys; row j is, bit for bit,
    ``SeedSequence([seed, start + j]).generate_state(2, np.uint64)``."""
    if seed < 0 or not 0 <= start <= stop <= MAX_REPLICATES:
        raise ValueError(f"need a nonnegative seed and indices in [0, 2^32), "
                         f"got seed {seed}, indices [{start}, {stop})")
    index = np.arange(start, stop, dtype=np.uint64).astype(np.uint32)
    # entropy: the seed's little-endian uint32 words, then the index
    entropy = [np.full_like(index, seed >> s & _MASK32)
               for s in range(0, max(seed.bit_length(), 1), 32)] + [index]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros_like(index)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)  # generate_state(2, uint64) reads the pool once
    return np.stack([out(w) for w in pool], axis=1).astype("<u4").view("<u8").astype(np.uint64)


def replicate_streams(seed: int, replicates: int) -> Iterator[np.random.Generator]:
    """Yield the streams of replicates 0 .. replicates - 1: the draws of
    ``replicate_rng(seed, r)``, from one Philox re-keyed in place (key, counter
    0, empty buffer) per replicate.  A yielded generator is valid only until
    the next one is requested."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    zeros = np.zeros(4, dtype=np.uint64)
    for start in range(0, replicates, KEY_BLOCK):
        for key in stream_keys(seed, start, min(start + KEY_BLOCK, replicates)):
            bitgen.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                            "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield rng


def substreams(seed: int) -> FreshFn:
    """``fresh`` for an ensemble's vector draw calls: call c re-keys one Philox
    generator to the key of ``replicate_rng(seed, 0)``, counter (0, 0, c, 0)
    and an empty buffer, and returns it.  The returned generator is valid
    only until the next call."""
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    counter = np.zeros(4, dtype=np.uint64)
    key = stream_keys(seed, 0, 1)[0]
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
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

    A deterministic one-type kernel runs replicate r on the stream of
    ``replicate_rng(seed, r)``, one replicate after another.  Any other
    kernel runs every replicate at once in the generation-synchronous engine
    on the vector-call streams of ``substreams(seed)``; row r then depends
    only on the seed and rows 0..r, so a shorter ensemble is a prefix of a
    longer one.  ``workers`` must be 1.  The major/minor threshold defaults
    to ``default_threshold(spec.N)``: both allocations resolve exactly N
    susceptibles.
    """
    if not 1 <= replicates <= MAX_REPLICATES:
        raise ValueError(f"need 1 to 2^32 replicates, got {replicates}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    if kernel.m != spec.m:
        raise ValueError(f"kernel has {kernel.m} types but population has {spec.m}")
    threshold = default_threshold(spec.N) if threshold is None else threshold
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")

    if not (kernel.deterministic and spec.m == 1):
        t_inf, generations, n_susceptible = _run_lines(spec, kernel, replicates, substreams(seed))
        return Ensemble(seed=seed, threshold=threshold, t_inf=t_inf, generations=generations,
                        n_susceptible=n_susceptible)

    records = [run_final_size(spec, kernel, rng) for rng in replicate_streams(seed, replicates)]
    t_inf = np.stack([rec.t_inf for rec in records])
    if spec.allocation is Allocation.DETERMINISTIC:
        n_susceptible = np.broadcast_to(records[0].population.n_susceptible, t_inf.shape)
    else:
        n_susceptible = np.stack([rec.population.n_susceptible for rec in records])
    return Ensemble(seed=seed, threshold=threshold, t_inf=t_inf,
                    generations=np.array([rec.generations for rec in records], dtype=np.int64),
                    n_susceptible=n_susceptible)

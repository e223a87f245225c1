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

Each replicate owns a counter-based Philox stream keyed by (base seed,
replicate index).  An ensemble runs its replicates one after another in one
thread, re-keying a single generator per replicate, and comes back as one
``Ensemble`` of per-replicate arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import expm1, log1p
from typing import Callable, Iterator, Optional

import numpy as np

from .kernel import Allocation, InfectivityKernel, PopulationSpec, ResolvedPopulation, resolve_population

__all__ = [
    "Ensemble",
    "FinalSizeRecord",
    "default_threshold",
    "run_final_size",
    "run_ensemble",
    "replicate_rng",
    "replicate_streams",
    "stream_keys",
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

    # per-type counts as Python ints, one scalar binomial per type in type order:
    # the draws of one vector binomial call, at a fraction of its fixed cost
    susceptible = pop.n_susceptible.tolist()
    active = pop.n_infective.tolist()
    fixed_log_escape = None
    if kernel.deterministic:
        # V is a fixed vector per type; hoist the per-infective escape terms
        with np.errstate(divide="ignore"):
            fixed_log_escape = np.stack([np.log1p(-kernel.sample(i, N, rng))
                                         for i in range(m)])

    infectors = [i for i in range(m) if active[i]]
    while infectors:
        if fixed_log_escape is not None:  # zero rows skipped: 0 * -inf is nan
            log_escape = np.array([active[i] for i in infectors]) @ fixed_log_escape[infectors]
        else:
            log_escape = sum(kernel.log_escape(i, active[i], N, rng) for i in infectors)
        p_infect = (-np.expm1(log_escape)).tolist()
        active = [int(rng.binomial(s, p)) for s, p in zip(susceptible, p_infect)]
        infectors = [i for i in range(m) if active[i]]
        if not infectors:
            break
        susceptible = [s - new for s, new in zip(susceptible, active)]
        generations += 1
        if generations > generation_cap:
            raise RuntimeError("generation count exceeded the population size; simulator bug")

    return FinalSizeRecord(t_inf=pop.n_susceptible - np.array(susceptible, dtype=np.int64),
                           generations=generations, population=pop)


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


def run_ensemble(spec: PopulationSpec, kernel: InfectivityKernel, replicates: int,
                 seed: int, workers: int = 1,
                 threshold: Optional[int] = None) -> Ensemble:
    """Run an ensemble of independent replicates, one after another.

    Replicate r uses the stream of ``replicate_rng(seed, r)``.  ``workers``
    must be 1.  The major/minor threshold defaults to
    ``default_threshold(spec.N)``: both allocations resolve exactly N
    susceptibles.
    """
    if not 1 <= replicates <= MAX_REPLICATES:
        raise ValueError(f"need 1 to 2^32 replicates, got {replicates}")
    if workers != 1:
        raise ValueError(f"workers must be 1, got {workers}")
    threshold = default_threshold(spec.N) if threshold is None else threshold
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")

    records = [run_final_size(spec, kernel, rng) for rng in replicate_streams(seed, replicates)]
    t_inf = np.stack([rec.t_inf for rec in records])
    if spec.allocation is Allocation.DETERMINISTIC:
        n_susceptible = np.broadcast_to(records[0].population.n_susceptible, t_inf.shape)
    else:
        n_susceptible = np.stack([rec.population.n_susceptible for rec in records])
    return Ensemble(seed=seed, threshold=threshold, t_inf=t_inf,
                    generations=np.array([rec.generations for rec in records], dtype=np.int64),
                    n_susceptible=n_susceptible)

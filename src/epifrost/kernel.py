"""Populations and infectivity kernels.

The model's probabilistic inputs live here.  A population is a split of N
initial susceptibles into m types (deterministic rounding, or a multinomial
split that the ensemble draws per replicate) plus initial-infective counts.
An infectivity kernel is, per infector type i, the law of the vector V_i
whose k-th entry is the probability of contacting any given type-k
susceptible.  Kernels also declare their scaled moment structure:

    mu[i, k]     = lim N * E[V_{i,k}]          (mean scaled infectivity)
    lam[i, j, k] = lim N^2 * cov(V_{i,j}, V_{i,k})

and the scaled limit law U_i = lim N * V_i consumed by the branching
module (E[U_{i,k}] = mu[i, k]; a type-k child count is Poisson(pi_k *
U_{i,k})).  A kernel states the law of U once; V = U/N unless it also
gives its own finite-N sampler.  A kernel with lam = 0 is deterministic,
such as the constant kernel: the table kernel with one row per infector type.

Kernels are immutable; every sampling call takes an explicit
numpy Generator (or, for the batched escape terms, a function that hands out
one per vector draw), so concurrent use with disjoint streams is safe.

Type indices are 0-based throughout the Python API.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Allocation",
    "PopulationSpec",
    "ResolvedPopulation",
    "InfectivityKernel",
    "resolve_population",
    "constant_kernel",
    "table_kernel",
]


class Allocation(str, enum.Enum):
    DETERMINISTIC = "deterministic"
    RANDOM_MULTINOMIAL = "random_multinomial"


@dataclass(frozen=True)
class PopulationSpec:
    """Population layout: m types, proportions pi, scale N, initial infectives.

    Initial infectives may be given as exact counts ``a`` or as intensities
    ``zeta``, rounded to a = rint(zeta N pi) (``a`` wins if both are given);
    zeta is then always a / (N pi), the seeds that are simulated.  Under
    deterministic allocation the split of N into types is computed once,
    here, as read-only arrays.
    """

    m: int
    pi: np.ndarray
    N: int
    a: Optional[np.ndarray] = None
    zeta: Optional[np.ndarray] = None
    allocation: Allocation = Allocation.DETERMINISTIC
    _split: Optional["ResolvedPopulation"] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if self.m < 1:
            raise ValueError(f"need at least one type, got m={self.m}")
        if pi.shape != (self.m,):
            raise ValueError(f"pi must have shape ({self.m},), got {pi.shape}")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"pi must sum to 1 within 1e-12, got sum={pi.sum()!r}")
        if np.any(pi <= 0):
            raise ValueError("all type proportions must be strictly positive")
        if self.N < 1:
            raise ValueError(f"population scale N must be >= 1, got {self.N}")
        a = self.a
        if a is None and self.zeta is not None:  # a takes precedence over zeta
            zeta = np.asarray(self.zeta, dtype=float)
            if zeta.shape != (self.m,) or np.any(zeta < 0):
                raise ValueError("zeta must be a nonnegative vector of length m")
            a = np.rint(zeta * self.N * pi)
        a = np.array(np.zeros(self.m) if a is None else a, dtype=np.int64)  # a copy: made read-only
        if a.shape != (self.m,) or np.any(a < 0):
            raise ValueError("a must be a nonnegative integer vector of length m")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "zeta", a / (self.N * pi))
        if not isinstance(self.allocation, Allocation):
            object.__setattr__(self, "allocation", Allocation(self.allocation))
        self.a.setflags(write=False)
        if self.allocation is Allocation.DETERMINISTIC:
            n_susc = _largest_remainder_split(self.N, pi)
            n_susc.setflags(write=False)
            object.__setattr__(self, "_split", ResolvedPopulation(n_susc, self.a))


@dataclass(frozen=True)
class ResolvedPopulation:
    """Concrete per-type counts for one realization."""

    n_susceptible: np.ndarray  # (m,) int
    n_infective: np.ndarray  # (m,) int


def _largest_remainder_split(N: int, pi: np.ndarray) -> np.ndarray:
    """Round N*pi to integers that sum to N, largest remainder first, ties to the lowest index."""
    quota = N * pi
    counts = np.floor(quota).astype(np.int64)
    leftover = N - int(counts.sum())
    if leftover > 0:
        remainder = quota - counts
        # lexsort: last key is primary, so order by descending remainder then ascending index
        order = np.lexsort((np.arange(len(pi)), -remainder))
        counts[order[:leftover]] += 1
    return counts


def resolve_population(spec: PopulationSpec) -> ResolvedPopulation:
    """The spec's largest-remainder split (read-only, shared by every call),
    with ``spec.a`` as the initial infectives.  Refuses multinomial
    allocation: the ensemble draws each replicate's split."""
    if spec._split is None:
        raise ValueError("random multinomial allocation has no fixed split: the ensemble draws it")
    return spec._split


# ---------------------------------------------------------------------------
# Infectivity kernels
# ---------------------------------------------------------------------------

# values of V (or U) one call of the sampled escape term draws at most (unless
# one line needs more): its memory does not grow with the number of lines
_ESCAPE_RUN = 1 << 16

# sampler(infector_type, N, rng, n) -> (n, m) array of V values
SamplerFn = Callable[[int, int, np.random.Generator, int], np.ndarray]
# u_sampler(infector_type, rng, n) -> (n, m) array of scaled limits
USamplerFn = Callable[[int, np.random.Generator, int], np.ndarray]
# mgf(infector_type, theta) -> E[exp(theta . U_i)] for theta <= 0
UMgfFn = Callable[[int, np.ndarray], float]
# fresh() -> the generator for the next vector draw call
FreshFn = Callable[[], np.random.Generator]
# u_sum(infector_type, fresh, counts) -> (len(counts), m): row l one draw from
# the law of the sum of counts[l] i.i.d. copies of U_i, each numpy call on a
# generator of its own from fresh(); only for kernels with V = 1 - exp(-U/N)
USumFn = Callable[[int, FreshFn, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InfectivityKernel:
    """Per-type law of U (``u_sampler``) plus its scaled moments and the
    generating function ``u_mgf(i, theta)`` = E[exp(theta . U_i)] for theta <= 0.

    V is U/N unless ``sampler`` draws it at finite N.  ``deterministic`` is
    derived: lam = 0 makes U, and so V, a fixed vector given the infector
    type and N; ``sample`` and ``log_escape`` then draw nothing.
    ``max_scaled`` is the largest scaled probability the kernel is built
    from: N * V, or N times an edge probability for the graph kernels, or inf
    where there is no bound (V < 1 by construction); ``sample`` refuses N
    below a finite bound.
    """

    m: int
    mu: np.ndarray  # (m, m)
    lam: np.ndarray  # (m, m, m); lam[i] is the covariance matrix of U_i
    u_sampler: USamplerFn = field(repr=False)
    u_mgf: UMgfFn = field(repr=False)
    sampler: Optional[SamplerFn] = field(default=None, repr=False)
    u_sum: Optional[USumFn] = field(default=None, repr=False)
    max_scaled: float = math.inf
    deterministic: bool = field(init=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if mu.shape != (self.m, self.m):
            raise ValueError(f"mu must be {self.m}x{self.m}, got {mu.shape}")
        if lam.shape != (self.m, self.m, self.m):
            raise ValueError(f"lam must be ({self.m},{self.m},{self.m}), got {lam.shape}")
        if np.any(mu < 0):
            raise ValueError("mu must be nonnegative")
        for i in range(self.m):
            if not np.allclose(lam[i], lam[i].T, atol=1e-9):
                raise ValueError(f"lam[{i}] must be symmetric")
            if np.linalg.eigvalsh((lam[i] + lam[i].T) / 2).min() < -1e-9:
                raise ValueError(f"lam[{i}] must be positive semidefinite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "deterministic", not lam.any())

    def sample(self, infector_type: int, N: int, rng: np.random.Generator,
               size: Optional[int] = None) -> np.ndarray:
        """Draw V for one infector type at scale N: one (m,) vector, or a
        (size, m) batch of i.i.d. draws (components within a draw may depend
        on each other through shared latent variables such as a lifetime)."""
        if N < 1:
            raise ValueError(f"population scale must be >= 1, got {N}")
        if N < self.max_scaled < math.inf:
            raise ValueError(f"scaled infectivity {self.max_scaled} exceeds population scale {N}")
        if not 0 <= infector_type < self.m:
            raise ValueError(f"infector type must be in [0, {self.m}), got {infector_type}")
        n = 1 if size is None else size
        v = (self.u_sampler(infector_type, rng, n) / N if self.sampler is None
             else self.sampler(infector_type, N, rng, n))
        return v[0] if size is None else v

    def log_escape(self, infector_type: int, counts: np.ndarray, N: Optional[int],
                   fresh: FreshFn) -> np.ndarray:
        """(len(counts), m): row l is the sum of log(1 - V) over counts[l] i.i.d.
        draws for one infector type, the log-probability that a susceptible escapes
        all of them (0 for a zero count); ``N=None`` gives its N -> inf limit of N
        times that sum, -sum(U).  Each vector draw call takes its generator from
        ``fresh()`` and draws line by line, in line order:

        * deterministic kernels draw nothing: counts * log(1 - V), or -counts * mu;
        * kernels with ``u_sum`` return -sum(U)/N, the sum drawn from its own law
          (so not from the draws ``sample`` would take);
        * any other kernel draws counts.sum() values of V (``sample``) or U
          (``u_sampler``) on one generator, in calls each for a run of lines of at
          most ``_ESCAPE_RUN`` values (or one line), and adds up each line's run.
        """
        if not 0 <= infector_type < self.m:
            raise ValueError(f"infector type must be in [0, {self.m}), got {infector_type}")
        counts = np.asarray(counts)
        if self.deterministic:
            with np.errstate(divide="ignore", invalid="ignore"):  # V = 1 gives -inf
                row = (-self.mu[infector_type] if N is None
                       else np.log1p(-self.sample(infector_type, N, fresh())))
                out = counts[:, None] * row
            out[counts == 0] = 0.0  # not 0 * -inf = nan
            return out
        if self.u_sum is not None:  # dividing by 1 is exact
            return -self.u_sum(infector_type, fresh, counts) / (1 if N is None else N)
        rng = fresh()
        out = np.zeros((len(counts), self.m))
        lines = np.flatnonzero(counts)
        sizes = counts[lines]
        starts = np.cumsum(sizes) - sizes  # each line's first draw among the call's
        total, start = int(sizes.sum()), 0
        while start < lines.size:  # runs of lines, drawn in turn from one generator
            done, stop = int(starts[start]), lines.size
            if total - done > _ESCAPE_RUN:  # the lines that end within the run, at least one
                stop = max(start + 1, int(np.searchsorted(starts, done + _ESCAPE_RUN, "right")) - 1)
            size = (int(starts[stop]) if stop < lines.size else total) - done
            with np.errstate(divide="ignore"):  # V = 1 gives -inf: certain infection
                draws = (-self.u_sampler(infector_type, rng, size) if N is None
                         else np.log1p(-self.sample(infector_type, N, rng, size=size)))
            out[lines[start:stop]] = np.add.reduceat(draws, starts[start:stop] - done, axis=0)
            start = stop
        return out


# ---------------------------------------------------------------------------
# Built-in non-graph kernels
# ---------------------------------------------------------------------------


def constant_kernel(scaled: np.ndarray) -> InfectivityKernel:
    """The table kernel with the one row ``scaled[i]`` per infector type i:
    fixed infectivity U_{i,k} = scaled[i,k], so V = scaled / N, mu = scaled
    and lam = 0."""
    scaled = np.atleast_2d(np.asarray(scaled, dtype=float))
    m = scaled.shape[0]
    if scaled.shape != (m, m) or np.any(scaled < 0):
        raise ValueError("scaled infectivity must be a nonnegative square matrix")
    return table_kernel([(row[None, :], [1.0]) for row in scaled])


def table_kernel(rows: list[tuple[np.ndarray, np.ndarray]]) -> InfectivityKernel:
    """Finite-mixture kernel: per infector type a discrete law over scaled vectors.

    ``rows[i]`` is a pair (values, probs) where values is (n_i, m) and each
    row is a scaled infectivity vector u (so V = u / N with probability
    probs[row]).  Moments are exact.
    """
    m = len(rows)
    values = []
    probs = []
    for i, (vals, ps) in enumerate(rows):
        vals = np.atleast_2d(np.asarray(vals, dtype=float))
        ps = np.asarray(ps, dtype=float)
        if vals.shape[1] != m:
            raise ValueError(f"row {i}: value vectors must have length m={m}")
        if vals.shape[0] != ps.shape[0]:
            raise ValueError(f"row {i}: values and probs must have matching length")
        if np.any(vals < 0) or np.any(ps < 0) or abs(ps.sum() - 1.0) > 1e-12:
            raise ValueError(f"row {i}: need nonnegative values and probs summing to 1")
        values.append(vals)
        probs.append(ps)

    mu = np.stack([p @ v for v, p in zip(values, probs)])
    lam = np.stack([((v - mean) * p[:, None]).T @ (v - mean) for v, p, mean in zip(values, probs, mu)])

    # a type whose rows of positive probability are one vector draws nothing
    support = [vals[ps > 0] for vals, ps in zip(values, probs)]
    fixed = [drawn[:1] if (drawn == drawn[0]).all() else None for drawn in support]

    def u_sampler(i: int, rng: np.random.Generator, n: int) -> np.ndarray:
        if fixed[i] is not None:
            return fixed[i].repeat(n, axis=0)
        return values[i][rng.choice(values[i].shape[0], size=n, p=probs[i])]

    def u_mgf(i: int, theta: np.ndarray) -> float:
        return float(np.exp(values[i] @ theta) @ probs[i])

    return InfectivityKernel(m=m, mu=mu, lam=lam, u_sampler=u_sampler, u_mgf=u_mgf,
                             max_scaled=max(float(v.max(initial=0.0)) for v in values))

"""Populations and infectivity kernels.

The model's probabilistic inputs live here.  A population is a split of N
initial susceptibles into m types (deterministic rounding or multinomial
allocation) plus initial-infective counts.  An infectivity kernel is, per
infector type i, the law of the vector V_i whose k-th entry is the
probability of contacting any given type-k susceptible.  Kernels also
declare their scaled moment structure:

    mu[i, k]     = lim N * E[V_{i,k}]          (mean scaled infectivity)
    lam[i, j, k] = lim N^2 * cov(V_{i,j}, V_{i,k})

and the scaled limit law U_i = lim N * V_i consumed by the branching
module (E[U_{i,k}] = mu[i, k]; a type-k child count is Poisson(pi_k *
U_{i,k})).

Kernels are immutable; every sampling call takes an explicit
numpy Generator, so concurrent use with disjoint streams is safe.

Type indices are 0-based throughout the Python API.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Allocation",
    "PopulationSpec",
    "ResolvedPopulation",
    "InfectivityKernel",
    "MomentSummary",
    "sample_infectivity",
    "estimate_moments",
    "moments_from_u_sampler",
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
    ``zeta`` (zeta_k = a_k / (N pi_k)).  If both are supplied, ``a`` wins and
    zeta is recomputed from it.
    """

    m: int
    pi: np.ndarray
    N: int
    a: Optional[np.ndarray] = None
    zeta: Optional[np.ndarray] = None
    allocation: Allocation = Allocation.DETERMINISTIC

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
        if self.a is None and self.zeta is None:
            object.__setattr__(self, "a", np.zeros(self.m, dtype=np.int64))
        if self.a is not None:
            a = np.asarray(self.a, dtype=np.int64)
            if a.shape != (self.m,) or np.any(a < 0):
                raise ValueError("a must be a nonnegative integer vector of length m")
            object.__setattr__(self, "a", a)
            # a takes precedence; zeta is recomputed to stay consistent
            object.__setattr__(self, "zeta", a / (self.N * pi))
        else:
            zeta = np.asarray(self.zeta, dtype=float)
            if zeta.shape != (self.m,) or np.any(zeta < 0):
                raise ValueError("zeta must be a nonnegative vector of length m")
            object.__setattr__(self, "zeta", zeta)
            object.__setattr__(self, "a", np.rint(zeta * self.N * pi).astype(np.int64))
        if not isinstance(self.allocation, Allocation):
            object.__setattr__(self, "allocation", Allocation(self.allocation))


@dataclass(frozen=True)
class ResolvedPopulation:
    """Concrete per-type counts for one realization."""

    n_susceptible: np.ndarray  # (m,) int
    n_infective: np.ndarray  # (m,) int

    @property
    def total_susceptible(self) -> int:
        return int(self.n_susceptible.sum())


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


def resolve_population(spec: PopulationSpec, rng: Optional[np.random.Generator] = None) -> ResolvedPopulation:
    """Turn a PopulationSpec into concrete counts.

    Deterministic allocation is a pure function of the spec (largest-remainder
    rounding).  Multinomial allocation draws (N_1..N_m) ~ Multinomial(N, pi)
    from ``rng``.  Initial-infective counts come straight from ``spec.a``.
    """
    if spec.allocation is Allocation.DETERMINISTIC:
        n_susc = _largest_remainder_split(spec.N, spec.pi)
    else:
        if rng is None:
            raise ValueError("random multinomial allocation needs an rng")
        n_susc = rng.multinomial(spec.N, spec.pi).astype(np.int64)
    return ResolvedPopulation(n_susceptible=n_susc, n_infective=spec.a.copy())


# ---------------------------------------------------------------------------
# Infectivity kernels
# ---------------------------------------------------------------------------

# sampler(infector_type, N, rng, size) -> (m,) or (size, m) array of V values
SamplerFn = Callable[[int, int, np.random.Generator, Optional[int]], np.ndarray]
# u_sampler(infector_type, rng, size) -> (m,) or (size, m) array of scaled limits
USamplerFn = Callable[[int, np.random.Generator, Optional[int]], np.ndarray]
# mgf(infector_type, theta) -> E[exp(theta . U_i)] for theta <= 0
UMgfFn = Callable[[int, np.ndarray], float]


@dataclass(frozen=True)
class InfectivityKernel:
    """Per-type infectivity law plus its scaled moment summary.

    ``deterministic`` marks kernels whose V is a fixed vector given the
    infector type and N (no randomness); the simulator exploits this to
    avoid per-infective sampling.
    """

    m: int
    mu: np.ndarray  # (m, m)
    lam: np.ndarray  # (m, m, m); lam[i] is the covariance matrix of U_i
    sampler: SamplerFn = field(repr=False)
    u_sampler: USamplerFn = field(repr=False)
    u_mgf: Optional[UMgfFn] = field(default=None, repr=False)
    deterministic: bool = False
    moment_summary: Optional["MomentSummary"] = None

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

    def sample(self, infector_type: int, N: int, rng: np.random.Generator,
               size: Optional[int] = None) -> np.ndarray:
        return sample_infectivity(self, infector_type, N, rng, size)

    def sample_u(self, infector_type: int, rng: np.random.Generator,
                 size: Optional[int] = None) -> np.ndarray:
        if not 0 <= infector_type < self.m:
            raise ValueError(f"infector type must be in [0, {self.m}), got {infector_type}")
        return self.u_sampler(infector_type, rng, size)


def sample_infectivity(kernel: InfectivityKernel, infector_type: int, N: int,
                       rng: np.random.Generator, size: Optional[int] = None) -> np.ndarray:
    """Draw infectivity vectors V for one infector type at population scale N.

    Returns a single (m,) vector, or a (size, m) batch of i.i.d. draws when
    ``size`` is given.  Components within one draw may be dependent (shared
    latent variables such as a lifetime), but distinct draws are independent.
    """
    if not 0 <= infector_type < kernel.m:
        raise ValueError(f"infector type must be in [0, {kernel.m}), got {infector_type}")
    if N < 1:
        raise ValueError(f"population scale must be >= 1, got {N}")
    v = kernel.sampler(infector_type, N, rng, size)
    return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class MomentSummary:
    """Scaled moments (mu, lam) with provenance and, when estimated, standard errors."""

    mu: np.ndarray  # (m, m)
    lam: np.ndarray  # (m, m, m)
    estimated_from_samples: bool
    sample_count: int
    mu_se: Optional[np.ndarray] = None
    lam_se: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.estimated_from_samples:
            if self.mu_se is None or self.lam_se is None:
                raise ValueError("estimated summaries must carry standard errors")
            if not (np.all(np.isfinite(self.mu_se)) and np.all(np.isfinite(self.lam_se))):
                raise ValueError("standard errors must be finite")


def _moment_block(scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean/covariance estimates with standard errors for one (n, m) sample block."""
    n = scaled.shape[0]
    mean = scaled.mean(axis=0)
    mean_se = scaled.std(axis=0, ddof=1) / np.sqrt(n)
    centered = scaled - mean
    cov = centered.T @ centered / (n - 1)
    # delta-method SE of each covariance entry, plus an O(cov/n) floor: for
    # degenerate fourth moments (e.g. Bernoulli(1/2) weights) the estimator's
    # finite-sample bias dominates its vanishing sampling noise
    prod = centered[:, :, None] * centered[:, None, :]
    cov_se = np.sqrt((prod.std(axis=0, ddof=1) / np.sqrt(n)) ** 2 + (cov / n) ** 2)
    return mean, mean_se, cov, cov_se


def moments_from_u_sampler(u_sampler: USamplerFn, m: int, samples: int,
                           rng: np.random.Generator) -> MomentSummary:
    """Estimate (mu, lam) directly from the scaled limit law."""
    mu = np.empty((m, m))
    mu_se = np.empty((m, m))
    lam = np.empty((m, m, m))
    lam_se = np.empty((m, m, m))
    for i in range(m):
        mu[i], mu_se[i], lam[i], lam_se[i] = _moment_block(u_sampler(i, rng, samples))
    return MomentSummary(mu=mu, lam=lam, estimated_from_samples=True,
                         sample_count=samples, mu_se=mu_se, lam_se=lam_se)


def estimate_moments(kernel: InfectivityKernel, N: int, samples: int = 100_000,
                     rng: Optional[np.random.Generator] = None) -> MomentSummary:
    """Monte Carlo estimate of N*E[V] and N^2*cov(V) per infector type.

    Fallback for kernels without closed-form moments; always records the
    standard error of every estimated entry so downstream tolerances can
    scale with it.  Degenerate (zero-variance) kernels are fine and simply
    report zero lam with zero standard error.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    return moments_from_u_sampler(lambda i, rng, size: N * kernel.sample(i, N, rng, size),
                                  kernel.m, samples, rng)


# ---------------------------------------------------------------------------
# Built-in non-graph kernels
# ---------------------------------------------------------------------------


def constant_kernel(scaled: np.ndarray) -> InfectivityKernel:
    """Kernel with deterministic infectivity V_{i,k} = scaled[i,k] / N.

    ``scaled`` is the m x m matrix of scaled means; it equals mu exactly and
    the covariance structure is identically zero.
    """
    scaled = np.atleast_2d(np.asarray(scaled, dtype=float))
    m = scaled.shape[0]
    if scaled.shape != (m, m) or np.any(scaled < 0):
        raise ValueError("scaled infectivity must be a nonnegative square matrix")

    def sampler(i: int, N: int, rng: np.random.Generator, size: Optional[int]) -> np.ndarray:
        row = scaled[i] / N
        if np.any(row > 1):
            raise ValueError(f"scaled infectivity {scaled[i].max()} exceeds population scale {N}")
        if size is None:
            return row.copy()
        return np.broadcast_to(row, (size, m)).copy()

    def u_sampler(i: int, rng: np.random.Generator, size: Optional[int]) -> np.ndarray:
        if size is None:
            return scaled[i].copy()
        return np.broadcast_to(scaled[i], (size, m)).copy()

    def u_mgf(i: int, theta: np.ndarray) -> float:
        return float(np.exp(theta @ scaled[i]))

    return InfectivityKernel(m=m, mu=scaled.copy(), lam=np.zeros((m, m, m)),
                             sampler=sampler, u_sampler=u_sampler, u_mgf=u_mgf,
                             deterministic=True)


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

    mu = np.stack([probs[i] @ values[i] for i in range(m)])
    lam = np.zeros((m, m, m))
    for i in range(m):
        centered = values[i] - mu[i]
        lam[i] = (centered * probs[i][:, None]).T @ centered

    deterministic = all(v.shape[0] == 1 for v in values)

    def sampler(i: int, N: int, rng: np.random.Generator, size: Optional[int]) -> np.ndarray:
        if values[i].max(initial=0.0) > N:
            raise ValueError(f"scaled infectivity {values[i].max()} exceeds population scale {N}")
        u = u_sampler(i, rng, size)
        return u / N

    def u_sampler(i: int, rng: np.random.Generator, size: Optional[int]) -> np.ndarray:
        if values[i].shape[0] == 1:
            if size is None:
                return values[i][0].copy()
            return np.broadcast_to(values[i][0], (size, m)).copy()
        n = 1 if size is None else size
        idx = rng.choice(values[i].shape[0], size=n, p=probs[i])
        out = values[i][idx]
        return out[0] if size is None else out

    def u_mgf(i: int, theta: np.ndarray) -> float:
        return float(np.exp(values[i] @ theta) @ probs[i])

    return InfectivityKernel(m=m, mu=mu, lam=lam, sampler=sampler,
                             u_sampler=u_sampler, u_mgf=u_mgf,
                             deterministic=deterministic)

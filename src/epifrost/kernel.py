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

from .distributions import run_sums

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
        object.__setattr__(self, "m", int(whole_numbers("m", self.m, low=1)))
        object.__setattr__(self, "N", int(whole_numbers("N", self.N, low=1)))
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.shape != (self.m,):
            raise ValueError(f"pi must have shape ({self.m},), got {pi.shape}")
        check_type_distribution(pi)
        a = self.a
        if a is None and self.zeta is not None:  # a takes precedence over zeta
            zeta = np.asarray(self.zeta, dtype=float)
            if zeta.shape != (self.m,) or not ((0 <= zeta) & (zeta < math.inf)).all():
                raise ValueError("zeta must be a finite nonnegative vector of length m")
            a = np.rint(zeta * self.N * pi)
        a = whole_numbers("a", np.zeros(self.m) if a is None else a, shape=(self.m,))  # a copy
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "zeta", a / (self.N * pi))
        if not isinstance(self.allocation, Allocation):
            object.__setattr__(self, "allocation", Allocation(self.allocation))
        self.a.setflags(write=False)
        if self.allocation is Allocation.DETERMINISTIC:
            n_susc = _largest_remainder_split(self.N, pi)
            n_susc.setflags(write=False)
            object.__setattr__(self, "_split", ResolvedPopulation(n_susc, self.a))


def check_type_distribution(pi: np.ndarray) -> None:
    """Refuse type proportions unless strictly positive and summing to 1."""
    if not abs(pi.sum() - 1.0) <= 1e-12:  # so a NaN or infinite entry fails too
        raise ValueError(f"pi must sum to 1 within 1e-12, got sum={pi.sum()!r}")
    if (pi <= 0).any():
        raise ValueError("all type proportions must be strictly positive")


def whole_numbers(name: str, value, low: int = 0, shape: tuple = ()) -> np.ndarray:
    """Counts read from outside as an int64 array of ``shape``, refused unless each
    is a whole number in [low, 2**63): 3 and 1e4 pass; True, 2.5 and "7" do not."""
    entries = np.asarray(value, dtype=object)
    if entries.shape != shape or not all(
            (type(x) in (int, float) or isinstance(x, (np.integer, np.floating)))
            and low <= x < 2**63 and float(x).is_integer() for x in entries.flat):
        what = f"an array of shape {shape} of whole numbers" if shape else "a whole number"
        raise ValueError(f"{name} must be {what} in [{low}, 2**63), got {value!r}")
    return entries.astype(np.int64)


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

# (np.random.Generator is quoted so that importing the library leaves
# numpy.random unloaded until something draws)
# sampler(infector_type, N, rng, n) -> (n, m) array of V values
SamplerFn = Callable[[int, int, "np.random.Generator", int], np.ndarray]
# u_sampler(infector_type, rng, n) -> (n, m) array of scaled limits
USamplerFn = Callable[[int, "np.random.Generator", int], np.ndarray]
# mgf(infector_type, theta) -> E[exp(theta . U_i)] for theta <= 0
UMgfFn = Callable[[int, np.ndarray], float]
# fresh() -> the generator for the next vector draw call
FreshFn = Callable[[], "np.random.Generator"]
# u_sum(fresh, active) -> (lines, m): row l one draw of the summed U of active[l, i]
# i.i.d. copies of U_i for every type i, each numpy call on a generator of its
# own from fresh(); only for kernels with V = 1 - exp(-U/N)
USumFn = Callable[[FreshFn, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class InfectivityKernel:
    """Per-type law of U (``u_sampler``) plus its scaled moments and the
    generating function ``u_mgf(i, theta)`` = E[exp(theta . U_i)] for theta <= 0.

    V is U/N unless ``sampler`` draws it at finite N.  ``deterministic`` is
    derived: lam = 0 makes U, and so V, a fixed vector given the infector
    type and N; ``sample`` and ``escape`` then draw nothing.
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
    # a deterministic kernel's rows log(1 - V) (-mu for N=None) per N, and which hold -inf
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        lam = np.asarray(self.lam, dtype=float)
        if mu.shape != (self.m, self.m):
            raise ValueError(f"mu must be {self.m}x{self.m}, got {mu.shape}")
        if lam.shape != (self.m, self.m, self.m):
            raise ValueError(f"lam must be ({self.m},{self.m},{self.m}), got {lam.shape}")
        if not 0 <= mu.min() <= mu.max() < math.inf:  # NaN fails too
            raise ValueError("mu must be finite and nonnegative")
        deterministic = not lam.any()  # NaN and inf count as nonzero
        if not deterministic:  # a zero lam is finite, symmetric and PSD
            if not np.abs(lam).max() < math.inf:
                raise ValueError("lam must be finite")
            lam_t = lam.transpose(0, 2, 1)  # every type in one pass; the first bad one is named
            asymmetric = (np.abs(lam - lam_t) > 1e-9 + 1e-5 * np.abs(lam_t)).any(axis=(1, 2))
            for i in np.flatnonzero(asymmetric | (np.linalg.eigvalsh((lam + lam_t) / 2)[:, 0] < -1e-9))[:1]:
                raise ValueError(f"lam[{i}] must be {'symmetric' if asymmetric[i] else 'positive semidefinite'}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "deterministic", deterministic)

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

    def escape(self, active: np.ndarray, N: Optional[int], fresh: FreshFn) -> np.ndarray:
        """(lines, m): row l is the sum of log(1 - V) over one draw for each of
        line l's infectives, active[l, i] of type i, the log-probability that a
        susceptible escapes them all; ``N=None`` gives its N -> inf limit of N
        times that sum, -sum(U).  Kernels with ``u_sum`` return
        -u_sum(fresh, active)/N.  The others add up one term per type, in type
        order, each on a generator of its own from ``fresh()`` (a deterministic
        kernel's at finite N only): a deterministic kernel draws nothing,
        active[:, i] * log(1 - V_i) or -active[:, i] * mu[i], its rows log(1 - V)
        computed once per N; any other draws active[:, i].sum() values of V
        (``sample``) or U (``u_sampler``) line by line and adds up each line's
        run in calls of bounded size (``run_sums``).  The array returned is new.
        """
        active = np.asarray(active)
        if active.ndim != 2 or active.shape[1] != self.m:
            raise ValueError(f"active must count {self.m} infector types per line, got {active.shape}")
        if self.u_sum is not None and not self.deterministic:  # u / -N is -u / N bit for bit
            return self.u_sum(fresh, active) / (-1 if N is None else -N)
        if self.deterministic:
            # one call per type at finite N, cached or not, so later calls keep their numbers
            rngs = [] if N is None else [fresh() for _ in range(self.m)]
            if N not in self._rows:
                with np.errstate(divide="ignore"):  # V = 1 gives -inf
                    rows = -self.mu if N is None else np.stack(
                        [np.log1p(-self.sample(i, N, rng)) for i, rng in enumerate(rngs)])
                self._rows[N] = rows, np.isneginf(rows).any(axis=1)
            out = None  # summed in type order, from the first term on
            for counts, row, certain in zip(active.T, *self._rows[N]):
                # where a type has no infectives its term is 0, not 0 * -inf = nan (V = 1)
                term = (np.multiply(counts[:, None], row, out=np.zeros(active.shape),
                                    where=counts[:, None] > 0) if certain else counts[:, None] * row)
                out = term if out is None else np.add(out, term, out=out)
            return out
        out = np.zeros(active.shape)
        for i, counts in enumerate(active.T):
            rng = fresh()
            with np.errstate(divide="ignore"):  # V = 1 gives -inf: certain infection
                out += run_sums(lambda size: -self.u_sampler(i, rng, size) if N is None
                                else np.log1p(-self.sample(i, N, rng, size=size)), counts, (self.m,))
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
    if scaled.shape != (m, m) or not ((0 <= scaled) & (scaled < math.inf)).all():
        raise ValueError("mu, the scaled infectivity, must be a finite nonnegative square matrix")
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
        if not (((0 <= vals) & (vals < math.inf)).all() and (ps >= 0).all()
                and abs(ps.sum() - 1.0) <= 1e-12):  # each test refuses NaN as well
            raise ValueError(f"row {i}: need finite nonnegative values and probs summing to 1")
        values.append(vals)
        probs.append(ps)

    mu = np.stack([p @ v for v, p in zip(values, probs)])
    spread = [v - mean for v, mean in zip(values, mu)]
    lam = np.stack([(d * p[:, None]).T @ d for d, p in zip(spread, probs)])

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

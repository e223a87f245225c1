"""Multitype branching approximation of early epidemic behaviour.

A type-k individual reproduces by drawing its scaled infectivity limit
U_k once and then, conditionally independently, a Poisson(pi_j * U_{k,j})
number of type-j children.  The per-type generating functions are

    h_k(s) = E[ prod_j exp((s_j - 1) pi_j U_{k,j}) ],

the kernel's exact generating function of U_k at (s - 1) pi.  The
extinction probability q is the minimal root of q = h(q) in [0, 1]^m, and
with a_i initial ancestors of type i a major outbreak happens with
probability 1 - prod_i q_i^{a_i}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .deterministic import at_most_critical, compute_R, monotone_newton
from .kernel import InfectivityKernel

__all__ = [
    "OffspringLaw",
    "TotalProgeny",
    "ExtinctionSolution",
    "offspring_law_from_kernel",
    "sample_offspring",
    "simulate_total_progeny",
    "extinction_probability",
    "major_outbreak_probability",
]


@dataclass(frozen=True)
class OffspringLaw:
    """Mixed-Poisson offspring law of the approximating branching process:
    a view of an infectivity kernel and the type proportions pi.

    ``pgf(k, s)`` evaluates h_k(s) through the kernel's exact generating
    function.  ``mu`` is the matrix of scaled means E[U_{k,j}] (the
    offspring mean matrix is mu @ diag(pi)).
    """

    kernel: InfectivityKernel
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float))

    @property
    def m(self) -> int:
        return self.kernel.m

    @property
    def mu(self) -> np.ndarray:
        return self.kernel.mu

    def sample_u(self, parent_type: int, rng: np.random.Generator,
                 size: Optional[int] = None) -> np.ndarray:
        return self.kernel.sample_u(parent_type, rng, size)

    def pgf(self, k: int, s: np.ndarray) -> float:
        return self.kernel.u_mgf(k, (np.asarray(s, dtype=float) - 1.0) * self.pi)

    @property
    def offspring_mean_matrix(self) -> np.ndarray:
        return self.mu * self.pi[None, :]


def offspring_law_from_kernel(kernel: InfectivityKernel, pi: np.ndarray) -> OffspringLaw:
    """Derive the branching offspring law from an infectivity kernel."""
    return OffspringLaw(kernel=kernel, pi=pi)


def sample_offspring(law: OffspringLaw, parent_type: int,
                     rng: np.random.Generator) -> np.ndarray:
    """One family: draw U once, then per-type Poisson counts."""
    u = law.sample_u(parent_type, rng)
    return rng.poisson(law.pi * u)


@dataclass(frozen=True)
class TotalProgeny:
    """Outcome of one branching realization.

    ``counts`` excludes the initial ancestors.  ``exceeded`` marks runs whose
    total births passed the cap; at desk scale that is the infinite-progeny
    event.
    """

    counts: np.ndarray
    exceeded: bool

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def simulate_total_progeny(law: OffspringLaw, a: np.ndarray, cap: int,
                           rng: np.random.Generator) -> TotalProgeny:
    """Breadth-first simulation of total progeny from ancestors ``a``."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    a = np.asarray(a, dtype=np.int64)
    active = a.copy()
    total = np.zeros(law.m, dtype=np.int64)
    while active.any():
        new = np.zeros(law.m, dtype=np.int64)
        for k in np.nonzero(active)[0]:
            n_parents = int(active[k])
            u = law.sample_u(int(k), rng, size=n_parents)  # (n_parents, m)
            rates = u * law.pi[None, :]
            new += rng.poisson(rates).sum(axis=0, dtype=np.int64)
        total += new
        if total.sum() > cap:
            return TotalProgeny(counts=total, exceeded=True)
        active = new
    return TotalProgeny(counts=total, exceeded=False)


@dataclass(frozen=True)
class ExtinctionSolution:
    q: np.ndarray
    iterations: int  # Newton or Picard steps
    residual: float
    mc_samples: int = 0  # always 0: h is exact for every kernel
    major_outbreak_prob: Optional[float] = None
    # linearized bound on |q - root of h|
    error_bound: float = 0.0


def extinction_probability(law: OffspringLaw, tol: float = 1e-12,
                           max_iter: int = 1_000_000,
                           a: Optional[np.ndarray] = None) -> ExtinctionSolution:
    """Minimal root of q = h(q) by safeguarded Newton from q = 0
    (``deterministic.monotone_newton``); every step is monotone nondecreasing.

    The Jacobian is a backward difference: h is convex, so it never
    overstates the slope.  Laws with ``deterministic.at_most_critical(R)``,
    where ``solve_tau`` gives tau = 0, short-circuit to q = 1 (exact for
    R <= 1 by standard branching theory).
    """
    if at_most_critical(compute_R(law.mu, law.pi)):
        sol = ExtinctionSolution(q=np.ones(law.m), iterations=0, residual=0.0)
        return _with_major_prob(sol, a)

    def h(s: np.ndarray) -> np.ndarray:
        return np.array([law.pgf(k, s) for k in range(law.m)])

    def h_and_jacobian(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hs = h(s)
        back = s - np.sqrt(np.finfo(float).eps) * np.eye(law.m)  # row j: step back in s_j
        return hs, np.stack([(hs - h(b)) / (s[j] - b[j]) for j, b in enumerate(back)], axis=1)

    q, it, residual, bound = monotone_newton(h_and_jacobian, np.zeros(law.m), 1, 1.0,
                                             tol, max_iter, "extinction-probability")
    sol = ExtinctionSolution(q=np.clip(q, 0.0, 1.0), iterations=it, residual=residual,
                             error_bound=bound)
    return _with_major_prob(sol, a)


def _with_major_prob(sol: ExtinctionSolution, a: Optional[np.ndarray]) -> ExtinctionSolution:
    if a is None:
        return sol
    return replace(sol, major_outbreak_prob=major_outbreak_probability(sol, a))


def major_outbreak_probability(solution: ExtinctionSolution, a: np.ndarray) -> float:
    """Probability of a major outbreak from initial counts a: 1 - prod q_i^{a_i}."""
    a = np.asarray(a, dtype=float)
    return float(1.0 - np.prod(solution.q ** a))

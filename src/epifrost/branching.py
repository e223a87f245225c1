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
    "TotalProgeny",
    "ExtinctionSolution",
    "simulate_total_progeny",
    "extinction_probability",
    "major_outbreak_probability",
]


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


def simulate_total_progeny(kernel: InfectivityKernel, pi: np.ndarray, a: np.ndarray,
                           cap: int, rng: np.random.Generator) -> TotalProgeny:
    """Breadth-first simulation of total progeny from ancestors ``a``: each
    parent draws U once, then Poisson(pi_j U_j) children of each type j."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    pi = np.asarray(pi, dtype=float)
    active = np.array(a, dtype=np.int64)
    total = np.zeros(kernel.m, dtype=np.int64)
    while active.any():
        new = np.zeros(kernel.m, dtype=np.int64)
        for k in np.nonzero(active)[0]:
            n_parents = int(active[k])
            u = kernel.sample_u(int(k), rng, size=n_parents)  # (n_parents, m)
            rates = u * pi[None, :]
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


def extinction_probability(kernel: InfectivityKernel, pi: np.ndarray, tol: float = 1e-12,
                           max_iter: int = 1_000_000,
                           a: Optional[np.ndarray] = None) -> ExtinctionSolution:
    """Minimal root of q = h(q) by safeguarded Newton from q = 0
    (``deterministic.monotone_newton``); every step is monotone nondecreasing.

    The Jacobian is a backward difference: h is convex, so it never
    overstates the slope.  Kernels with ``deterministic.at_most_critical(R)``,
    where ``solve_tau`` gives tau = 0, short-circuit to q = 1 (exact for
    R <= 1 by standard branching theory).
    """
    m = kernel.m
    pi = np.asarray(pi, dtype=float)
    if at_most_critical(compute_R(kernel.mu, pi)):
        sol = ExtinctionSolution(q=np.ones(m), iterations=0, residual=0.0)
        return _with_major_prob(sol, a)

    def h(s: np.ndarray) -> np.ndarray:
        theta = (s - 1.0) * pi
        return np.array([kernel.u_mgf(k, theta) for k in range(m)])

    def h_and_jacobian(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hs = h(s)
        back = s - np.sqrt(np.finfo(float).eps) * np.eye(m)  # row j: step back in s_j
        return hs, np.stack([(hs - h(b)) / (s[j] - b[j]) for j, b in enumerate(back)], axis=1)

    q, it, residual, bound = monotone_newton(h_and_jacobian, np.zeros(m), 1, 1.0,
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

"""Multitype branching approximation of early epidemic behaviour.

A type-k individual reproduces by drawing its scaled infectivity limit
U_k once and then, conditionally independently, a Poisson(pi_j * U_{k,j})
number of type-j children.  The per-type generating functions are

    h_k(s) = E[ prod_j exp((s_j - 1) pi_j U_{k,j}) ],

the extinction probability q is the minimal root of q = h(q) in [0, 1]^m,
and with a_i initial ancestors of type i a major outbreak happens with
probability 1 - prod_i q_i^{a_i}.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .deterministic import compute_R, monotone_newton
from .kernel import InfectivityKernel, USamplerFn

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
    """Mixed-Poisson offspring law of the approximating branching process.

    ``pgf``, when present, evaluates h_k(s) in closed form; otherwise the
    extinction solver estimates it by Monte Carlo.  ``mu`` is the matrix of
    scaled means E[U_{k,j}] (the offspring mean matrix is mu @ diag(pi)).
    """

    m: int
    pi: np.ndarray
    u_sampler: USamplerFn
    mu: np.ndarray
    pgf: Optional[Callable[[int, np.ndarray], float]] = None

    def sample_u(self, parent_type: int, rng: np.random.Generator,
                 size: Optional[int] = None) -> np.ndarray:
        if not 0 <= parent_type < self.m:
            raise ValueError(f"parent type must be in [0, {self.m}), got {parent_type}")
        return self.u_sampler(parent_type, rng, size)

    @property
    def offspring_mean_matrix(self) -> np.ndarray:
        return self.mu * self.pi[None, :]


def offspring_law_from_kernel(kernel: InfectivityKernel, pi: np.ndarray) -> OffspringLaw:
    """Derive the branching offspring law from an infectivity kernel."""
    pi = np.asarray(pi, dtype=float)
    pgf = None
    if kernel.u_mgf is not None:
        mgf = kernel.u_mgf

        def pgf(k: int, s: np.ndarray) -> float:
            return mgf(k, (np.asarray(s, dtype=float) - 1.0) * pi)

    return OffspringLaw(m=kernel.m, pi=pi, u_sampler=kernel.u_sampler,
                        mu=kernel.mu, pgf=pgf)


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
    mc_samples: int  # 0 when the generating function was evaluated in closed form
    major_outbreak_prob: Optional[float] = None
    # linearized bound on |q - root of the (frozen) h|; Monte Carlo error not included
    error_bound: float = 0.0


def extinction_probability(law: OffspringLaw, tol: float = 1e-12,
                           max_iter: int = 1_000_000, mc_samples: int = 100_000,
                           rng: Optional[np.random.Generator] = None,
                           a: Optional[np.ndarray] = None) -> ExtinctionSolution:
    """Minimal root of q = h(q) by safeguarded Newton from q = 0
    (``deterministic.monotone_newton``); every step is monotone nondecreasing.

    With a closed-form generating function the Jacobian is a backward
    difference: h is convex, so it never overstates the slope.  Otherwise h
    and its exact Jacobian are estimated over a frozen set of
    ``mc_samples`` draws of U per type, reused across every step; the
    estimate stays convex and monotone in q.  Subcritical and critical laws
    (R <= 1) short-circuit to q = 1, which standard branching theory
    guarantees.
    """
    R = compute_R(law.mu, law.pi)
    if R <= 1.0:
        sol = ExtinctionSolution(q=np.ones(law.m), iterations=0, residual=0.0, mc_samples=0)
        return _with_major_prob(sol, a)

    if law.pgf is not None:
        def h(s: np.ndarray) -> np.ndarray:
            return np.array([law.pgf(k, s) for k in range(law.m)])

        def h_and_jacobian(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            hs = h(s)
            back = s - np.sqrt(np.finfo(float).eps) * np.eye(law.m)  # row j: step back in s_j
            return hs, np.stack([(hs - h(b)) / (s[j] - b[j]) for j, b in enumerate(back)], axis=1)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        frozen = [law.sample_u(k, rng, size=mc_samples) for k in range(law.m)]

        def h_and_jacobian(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            weights = (s - 1.0) * law.pi
            terms = [np.exp(u @ weights) for u in frozen]
            jac = np.stack([e @ u / mc_samples for e, u in zip(terms, frozen)]) * law.pi
            return np.array([np.mean(e) for e in terms]), jac

    q, it, residual, bound = monotone_newton(h_and_jacobian, np.zeros(law.m), 1, 1.0,
                                             tol, max_iter, "extinction-probability")
    sol = ExtinctionSolution(q=np.clip(q, 0.0, 1.0), iterations=it, residual=residual,
                             mc_samples=mc_samples if law.pgf is None else 0, error_bound=bound)
    return _with_major_prob(sol, a)


def _with_major_prob(sol: ExtinctionSolution, a: Optional[np.ndarray]) -> ExtinctionSolution:
    if a is None:
        return sol
    return replace(sol, major_outbreak_prob=major_outbreak_probability(sol, a))


def major_outbreak_probability(solution: ExtinctionSolution, a: np.ndarray) -> float:
    """Probability of a major outbreak from initial counts a: 1 - prod q_i^{a_i}."""
    a = np.asarray(a, dtype=float)
    return float(1.0 - np.prod(solution.q ** a))

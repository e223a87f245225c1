"""Multitype branching approximation of early epidemic behaviour.

A type-k individual reproduces by drawing its scaled infectivity limit
U_k once and then, conditionally independently, a Poisson(pi_j * U_{k,j})
number of type-j children.  The per-type generating functions are

    h_k(s) = E[ prod_j exp((s_j - 1) pi_j U_{k,j}) ],

the kernel's exact generating function of U_k at (s - 1) pi.  The
extinction probability q is the minimal root of q = h(q) in [0, 1]^m, and
with a_i initial ancestors of type i a major outbreak happens with
probability 1 - prod_i q_i^{a_i}.

Total progeny runs n lines at once, generation-synchronously: given its
parents' summed U, a line's type-j children are one Poisson(pi_j * sum U_j)
draw.  That sum is the epidemic's escape term in its N -> inf limit
(``InfectivityKernel.escape`` with N=None), drawn as the epidemic draws it:
nothing for a deterministic kernel, the sum laws of ``u_sum`` (one pooled
call for the gamma family), and otherwise every parent's U, in runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .deterministic import at_most_critical, compute_R, monotone_newton
from .kernel import InfectivityKernel

__all__ = [
    "TotalProgeny",
    "ExtinctionSolution",
    "simulate_progeny_lines",
    "simulate_total_progeny",
    "extinction_probability",
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


def simulate_progeny_lines(kernel: InfectivityKernel, pi: np.ndarray, a: np.ndarray, cap: int,
                           n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(n, m) births (ancestors excluded) of ``n`` lines from ancestors ``a``, and (n,)
    flags for lines stopped because their births passed ``cap``.  Every draw, the
    parents' summed U by ``kernel.escape(active, None, ...)`` and the children,
    comes from ``rng``."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    pi = _checked_pi(kernel.m, pi, a)
    counts = np.zeros((n, kernel.m), dtype=np.int64)
    live = np.arange(n)
    active = np.tile(np.asarray(a, dtype=np.int64), (n, 1))
    while live.size:
        load = -kernel.escape(active, None, lambda: rng)
        active = rng.poisson(load * pi)
        counts[live] += active
        keep = (counts[live].sum(axis=1) <= cap) & active.any(axis=1)
        live, active = live[keep], active[keep]
    return counts, counts.sum(axis=1) > cap


def _checked_pi(m: int, pi: np.ndarray, a: Optional[np.ndarray]) -> np.ndarray:
    """``pi`` as floats, once ``pi`` and ``a`` (unless None) have shape (m,), ``a`` >= 0."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (m,) or a is not None and (np.shape(a) != (m,) or np.any(np.asarray(a) < 0)):
        raise ValueError(f"need pi and a nonnegative a of shape ({m},), got pi={pi!r}, a={a!r}")
    return pi


def simulate_total_progeny(kernel: InfectivityKernel, pi: np.ndarray, a: np.ndarray,
                           cap: int, rng: np.random.Generator) -> TotalProgeny:
    """One line of ``simulate_progeny_lines``."""
    counts, exceeded = simulate_progeny_lines(kernel, pi, a, cap, 1, rng)
    return TotalProgeny(counts=counts[0], exceeded=bool(exceeded[0]))


@dataclass(frozen=True)
class ExtinctionSolution:
    q: np.ndarray
    major_outbreak_prob: Optional[float]  # 1 - prod q_i^{a_i}; None without ancestors a
    iterations: int  # Newton or Picard steps
    residual: float
    # linearized bound on |q - root of h|
    error_bound: float
    mc_samples: int = 0  # always 0: h is exact for every kernel


def extinction_probability(kernel: InfectivityKernel, pi: np.ndarray, tol: float = 1e-12,
                           max_iter: int = 1_000_000,
                           a: Optional[np.ndarray] = None) -> ExtinctionSolution:
    """Minimal root of q = h(q) by safeguarded Newton from q = 0
    (``deterministic.monotone_newton``); every step is monotone nondecreasing.

    The Jacobian is a backward difference: h is convex, so it never
    overstates the slope.  Kernels with ``deterministic.at_most_critical(R)``,
    where ``solve_tau`` gives tau = 0, short-circuit to q = 1 (exact for
    R <= 1 by standard branching theory).  Given ancestors ``a``, the result
    carries the major-outbreak probability 1 - prod q_i^{a_i}.
    """
    m = kernel.m
    pi = _checked_pi(m, pi, a)
    back = np.sqrt(np.finfo(float).eps) * np.eye(m)  # row j: a step back in s_j

    def h(s: np.ndarray) -> np.ndarray:
        theta = (s - 1.0) * pi
        return np.array([kernel.u_mgf(k, theta) for k in range(m)])

    def h_and_jacobian(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hs = h(s)
        jac = np.empty((m, m))
        for j, b in enumerate(s - back):
            jac[:, j] = (hs - h(b)) / (s[j] - b[j])
        return hs, jac

    if at_most_critical(compute_R(kernel.mu, pi)):
        q, it, residual, bound = np.ones(m), 0, 0.0, 0.0
    else:
        q, it, residual, bound = monotone_newton(h_and_jacobian, np.zeros(m), 1, 1.0,
                                                 tol, max_iter, "extinction-probability")
        q = np.clip(q, 0.0, 1.0)
    major = None if a is None else float(1.0 - np.prod(q ** np.asarray(a, dtype=float)))
    return ExtinctionSolution(q=q, major_outbreak_prob=major, iterations=it, residual=residual,
                              error_bound=bound)

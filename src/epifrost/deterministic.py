"""Deterministic limit of the epidemic: attack rate, survivors, threshold.

The limiting per-type infection probability under exposure level t is

    r_i(t) = 1 - exp(-sum_k t_k pi_k mu[k, i]),

the attack rate tau is the largest fixed point of tau = r(tau + zeta), the
survivor fraction is sigma = 1 - tau, and the threshold parameter R is the
Perron-Frobenius eigenvalue of M Pi (M the matrix of scaled mean
infectivities, Pi = diag(pi)).  Major outbreaks are possible from small
seeds if and only if R > 1.

All functions here are pure; concurrent use is safe.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "Regime",
    "DeterministicSolution",
    "limit_infection_probability",
    "solve_tau",
    "compute_R",
    "check_irreducibility",
]

CRITICAL_TOL = 1e-9  # |R - 1| below this is labelled critical
# relative rounding error of one map evaluation (dot products, exp, means of <= 2^20 draws)
ROUNDING_FLOOR = 32 * float(np.finfo(float).eps)
ULP_SLACK = 4 * float(np.finfo(float).eps)  # on F(c) - c, relative to max(|c|, 1)


class Regime(str, enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class DeterministicSolution:
    tau: np.ndarray
    sigma: np.ndarray
    R: float
    iterations: int  # Newton or Picard steps
    residual: float
    regime: Regime
    # linearized bound on |tau - fixed point|; its gain grows like 1/(R - 1) near R = 1
    error_bound: float
    # True when the fixed point may not be unique: reducible mean matrix
    # combined with a seed vector that leaves some types unseeded.
    nonuniqueness_risk: bool = False


def limit_infection_probability(t: np.ndarray, mu: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """Evaluate r(t), the limiting probability that a type-i individual is
    infected when exposed to t_k * N * pi_k infectives of each type k."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("exposure levels must be nonnegative")
    return -np.expm1(-(t * pi) @ mu)


def at_most_critical(R: float) -> bool:
    """Subcritical or critical: tau = 0 and q = 1; both solvers short-circuit on it."""
    return R <= 1.0 + CRITICAL_TOL


def monotone_newton(map_and_jacobian: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
                    x0: np.ndarray, direction: int, bound: float, tol: float, max_iter: int,
                    what: str) -> tuple[np.ndarray, int, float, float]:
    """Safeguarded Newton for a monotone fixed point x = F(x) from x0, moving
    in ``direction`` (+1 up, -1 down) towards ``bound``; ``map_and_jacobian``
    returns (F(x), F'(x)).  Newton converges monotonically from above the
    largest root of a concave map and from below the minimal root of a convex
    one (Etessami & Yannakakis 2009; Esparza, Kiefer & Luttenberger 2010).
    The Newton candidate c is taken only if it lies between the Picard step
    F(x) and ``bound`` and stays on the starting side (F(c) <= c going down,
    F(c) >= c going up; while the Picard step moves more than ``tol``, to
    within ``ULP_SLACK`` * max(|c|, 1)), else the Picard step, so the same
    root is selected whatever the Jacobian's accuracy.  Stops once no
    coordinate moves more than ``tol``; returns (x, steps, residual, error
    bound) with the bound ||(I - J)^-1||_inf * (residual + rounding floor),
    inf for singular I - J.
    Raises RuntimeError if a Picard step would leave the starting side and
    ConvergenceError carrying the last iterate after max_iter steps.
    """
    x = np.asarray(x0, dtype=float)
    eye = np.eye(len(x))
    # the tests below on differences d, resolved once for the direction:
    # direction * d >= c is ahead(d, direction * c), and < is back (negation is exact)
    ahead, back = (np.greater_equal, np.less) if direction > 0 else (np.less_equal, np.greater)
    fx, jac = map_and_jacobian(x)
    residual = float(abs(step := fx - x).max())  # step: the Picard step
    for it in range(1, max_iter + 1):
        if back(step, direction * -1e-15).any():
            raise RuntimeError(f"{what} iteration lost monotonicity")
        nxt, at_nxt = fx, None
        with np.errstate(all="ignore"):
            try:
                cand = x - np.linalg.solve(eye - jac, -step)  # -step is x - fx, exactly
            except np.linalg.LinAlgError:
                cand = fx
            # a NaN or infinite candidate fails one of these against finite fx and bound
            inside = (ahead(cand - fx, 0.0) & ahead(bound - cand, 0.0)).all()
        if inside:
            at_cand = map_and_jacobian(cand)
            # F(c) - c a few ulps on the wrong side is rounding noise at the root;
            # once a Picard step moves <= tol it ends the loop, and needs no slack
            slack = 0.0 if residual <= tol else -direction * ULP_SLACK * np.maximum(abs(cand), 1.0)
            if ahead(at_cand[0] - cand, slack).all():
                nxt, at_nxt = cand, at_cand
        delta = float(abs(nxt - x).max())
        x = nxt
        fx, jac = at_nxt if at_nxt is not None else map_and_jacobian(x)
        residual = float(abs(step := fx - x).max())
        if delta <= tol:
            try:
                gain = float(abs(np.linalg.inv(eye - jac)).sum(axis=1).max())
            except np.linalg.LinAlgError:
                gain = float("inf")
            floor = ROUNDING_FLOOR * max(float(abs(fx).max()), float(abs(x).max()))
            return x, it, residual, gain * (residual + floor)
    raise ConvergenceError(f"{what} iteration did not converge", x, residual)


def solve_tau(mu: np.ndarray, pi: np.ndarray, zeta: np.ndarray,
              tol: float = 1e-12, max_iter: int = 1_000_000) -> DeterministicSolution:
    """Solve the attack-rate fixed point tau = r(tau + zeta).

    ``monotone_newton`` from tau = 1, with the exact Jacobian
    J[i, k] = exp(-s_i) pi_k mu[k, i], s = ((tau + zeta) * pi) @ mu: every
    step is nonincreasing, which selects the largest fixed point; with no
    seed (zeta = 0) that is the nonzero attack rate whenever R > 1.  With
    zeta = 0 and ``at_most_critical(R)``, tau = 0 is returned immediately.

    Raises ConvergenceError carrying the last iterate if max_iter is hit.
    """
    mu = np.asarray(mu, dtype=float)
    pi = np.asarray(pi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    R = compute_R(mu, pi)  # raises first on a negative mu
    if (zeta < 0).any():
        raise ValueError("zeta must be nonnegative")
    m = len(pi)

    regime = (Regime.CRITICAL if abs(R - 1.0) <= CRITICAL_TOL
              else Regime.SUPERCRITICAL if R > 1.0 else Regime.SUBCRITICAL)
    risk = not check_irreducibility(mu, pi) and bool((zeta == 0).any())

    rate = (mu * pi[:, None]).T  # rate[i, k] = pi_k mu[k, i]

    def attack_map(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = rate @ (t + zeta)
        return -np.expm1(-s), np.exp(-s)[:, None] * rate

    if (zeta == 0).all() and at_most_critical(R):
        tau, it, residual, bound = np.zeros(m), 0, 0.0, 0.0
    else:
        tau, it, residual, bound = monotone_newton(attack_map, np.ones(m), -1, 0.0,
                                                   tol, max_iter, "attack-rate")
    return DeterministicSolution(tau=tau, sigma=1.0 - tau, R=R, iterations=it,
                                 residual=residual, regime=regime, error_bound=bound,
                                 nonuniqueness_risk=risk)


def compute_R(mu: np.ndarray, pi: np.ndarray) -> float:
    """Spectral radius of M Pi from the dense eigenvalues of mu @ diag(pi)."""
    mu = np.asarray(mu, dtype=float)
    pi = np.asarray(pi, dtype=float)
    if (mu < 0).any():
        raise ValueError("mu must be nonnegative")
    return float(abs(np.linalg.eigvals(mu * pi[None, :])).max())


def check_irreducibility(mu: np.ndarray, pi: np.ndarray) -> bool:
    """True iff the directed type graph (edge k -> i when mu[k, i] > 0) is
    strongly connected.  Since pi > 0, this is the irreducibility of the
    transposed mean matrix scaled by Pi, which is what the uniqueness theory
    for the fixed point needs."""
    reach = np.eye(len(mu), dtype=bool) | (np.asarray(mu, dtype=float) > 0)
    for _ in range(len(mu).bit_length()):  # paths of length up to 2^k after k squarings
        reach = reach @ reach
    return bool(reach.all())

"""Independent oracles used by the test suite.

Everything here is deliberately implemented without touching the package's
own solvers: scalar fixed points go through brentq, spectral radii through
dense eigendecompositions, small final-size distributions through exact
chain enumeration, and the dynamic-graph mean through a trajectory-level
simulation of the partnership process.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom

# Values frozen from these oracles (see test modules for the assertions
# that re-derive them).
TAU_MU2 = 0.79681213002002  # nonzero root of tau = 1 - exp(-2 tau)
Q_MU2 = 0.20318786997997995  # root of q = exp(2(q - 1)) in (0, 1)
VAR_CONST_MU2 = 0.45944172300703756  # sigma(1-sigma)/(1-2 sigma)^2 at sigma = 1 - TAU_MU2
SIGMA_MU1_ZETA01 = 0.6168168317917053  # sigma = exp(-(1.1 - sigma))
TAU_MU15 = 0.5828116438658114  # nonzero root of tau = 1 - exp(-1.5 tau)
Q_POISSON15 = 0.4171883561341888  # root of q = exp(1.5(q - 1))
VAR_GSE_MEAN2 = 0.8328536633179652  # scalar Xi / U^2 for U ~ Exp(mean 2)
MU_DYN_UNIT = 0.7161661791908469  # dynamic graph, rho+ = rho- = beta = 1, Q = 1
R_NU_HALF_N50 = 0.639603283141982  # 1 - (1 - 2/50)^25


def scalar_tau(mu: float, zeta: float = 0.0) -> float:
    """Largest root of tau = 1 - exp(-mu (tau + zeta)) in [0, 1]."""
    f = lambda t: t - 1.0 + np.exp(-mu * (t + zeta))
    if zeta == 0.0:
        if mu <= 1.0:
            return 0.0
        return brentq(f, 1e-9, 1.0, xtol=1e-15)
    return brentq(f, -1e-15, 1.0, xtol=1e-15)


def scalar_tau_near_critical(mu: float) -> float:
    """Nonzero root of tau = 1 - exp(-mu tau) for mu > 1, found as the root of
    (1 - exp(-mu tau)) / tau - 1, whose slope stays near -mu^2/2 as mu -> 1
    while tau - r(tau) flattens to slope 1 - mu."""
    return brentq(lambda t: -np.expm1(-mu * t) / t - 1.0, 1e-300, 1.0, xtol=1e-300)


def scalar_extinction_poisson(c: float) -> float:
    """Minimal root of q = exp(c (q - 1)) in [0, 1] (Poisson(c) offspring)."""
    if c <= 1.0:
        return 1.0
    return brentq(lambda q: q - np.exp(c * (q - 1.0)), 0.0, 1.0 - 1e-12, xtol=1e-15)


def dense_spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=float)))))


def reed_frost_pmf(n_susceptible: int, n_infective: int, v: float) -> np.ndarray:
    """Exact single-type final-size pmf for constant per-pair probability v.

    Enumerates the chain over states (susceptibles, current infectives):
    each remaining susceptible escapes a generation of i infectives with
    probability (1 - v)^i, so new cases are Binomial(s, 1 - (1 - v)^i).
    Entry t of the result is P(final size = t).
    """
    pmf = np.zeros(n_susceptible + 1)
    # state probabilities indexed by (s remaining, i active)
    states = {(n_susceptible, n_infective): 1.0}
    while states:
        nxt: dict[tuple[int, int], float] = {}
        for (s, i), p in states.items():
            if i == 0:
                pmf[n_susceptible - s] += p
                continue
            escape = (1.0 - v) ** i
            for new in range(s + 1):
                p_new = binom.pmf(new, s, 1.0 - escape)
                if p_new > 0:
                    nxt[(s - new, new)] = nxt.get((s - new, new), 0.0) + p * p_new
        states = nxt
    return pmf


def dynamic_edge_mean_mc(rho_plus: float, rho_minus: float, beta: float,
                         q_sampler, N: int, samples: int,
                         rng: np.random.Generator) -> tuple[float, float]:
    """Trajectory-level estimate of N * E[V] for one dynamic-graph pair.

    Simulates the alternating on/off partnership process over an infectious
    period [0, Q]: the pair starts acquainted with the equilibrium
    probability rho+/(rho+ + N rho-), on-periods last Exp(rho-), off-periods
    Exp(rho+/N).  Given total acquainted time s, an infectious contact fires
    with probability 1 - exp(-beta s); we average that probability directly.
    Returns (scaled mean estimate, its standard error).
    """
    alpha_eq = rho_plus / (rho_plus + N * rho_minus)
    off_rate = rho_plus / N
    values = np.empty(samples)
    for r in range(samples):
        q = float(q_sampler(rng))
        t = 0.0
        on_time = 0.0
        on = rng.random() < alpha_eq
        while t < q:
            duration = rng.exponential(1.0 / rho_minus) if on else rng.exponential(1.0 / off_rate)
            end = min(t + duration, q)
            if on:
                on_time += end - t
            t = end
            on = not on
        values[r] = -np.expm1(-beta * on_time)
    return N * values.mean(), N * values.std(ddof=1) / np.sqrt(samples)

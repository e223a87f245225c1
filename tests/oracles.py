"""Independent oracles used by the test suite.

Everything here is deliberately implemented without touching the package's
own solvers: scalar fixed points go through brentq, spectral radii through
dense eigendecompositions, small final-size distributions through exact
chain enumeration, branching total progeny through Dwass's identity, kernel
moments through Monte Carlo over the kernel's own sampler, the dynamic-graph
mean through a trajectory-level simulation of the partnership process, and
the final-size counting process through the literal per-individual indicator
construction (one contact coin per infective-susceptible pair, drawn from the
kernel's own sampler).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import integrate, special
from scipy.optimize import brentq, root
from scipy.stats import binom

from epifrost import Allocation, InfectivityKernel, PopulationSpec, resolve_population

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


def estimate_moments(kernel: InfectivityKernel, N: int, samples: int = 100_000,
                     rng: np.random.Generator | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Monte Carlo estimate of N*E[V] and N^2*cov(V) per infector type from
    the kernel's own sampler, as (mu, mu_se, lam, lam_se).

    Each entry carries a standard error: the mean's plain SE, and for the
    covariance the delta-method SE plus an O(cov/n) floor, since for
    degenerate fourth moments (e.g. Bernoulli(1/2) weights) the estimator's
    finite-sample bias dominates its vanishing sampling noise.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if rng is None:
        rng = np.random.default_rng(0)
    m = kernel.m
    mu, mu_se = np.empty((m, m)), np.empty((m, m))
    lam, lam_se = np.empty((m, m, m)), np.empty((m, m, m))
    for i in range(m):
        scaled = N * kernel.sample(i, N, rng, size=samples)
        mu[i] = scaled.mean(axis=0)
        mu_se[i] = scaled.std(axis=0, ddof=1) / np.sqrt(samples)
        centered = scaled - mu[i]
        lam[i] = centered.T @ centered / (samples - 1)
        prod = centered[:, :, None] * centered[:, None, :]
        lam_se[i] = np.sqrt((prod.std(axis=0, ddof=1) / np.sqrt(samples)) ** 2
                            + (lam[i] / samples) ** 2)
    return mu, mu_se, lam, lam_se


def beta_mgf_by_quadrature(a: float, b: float, t: float) -> float:
    """E[exp(tX)] for X ~ Beta(a, b) by adaptive quadrature, no Kummer function
    involved.  [0, 1] is split at c = min(0.5, 40/|t|), so that e^(tx) falls by
    at most e^-40 on [0, c]; on each piece weight="alg" folds the singular
    factor at its own end into the rule (x^(a-1) on [0, c], (1-x)^(b-1) on
    [c, 1]) and the other factor stays in the smooth integrand."""
    c = min(0.5, 40.0 / abs(t)) if t else 0.5
    opts = dict(weight="alg", epsabs=0.0, epsrel=2e-14, limit=200)
    left, _ = integrate.quad(lambda x: math.exp(t * x) * (1.0 - x) ** (b - 1.0), 0.0, c,
                             wvar=(a - 1.0, 0.0), **opts)
    right, _ = integrate.quad(lambda x: math.exp(t * x) * x ** (a - 1.0), c, 1.0,
                              wvar=(0.0, b - 1.0), **opts)
    return (left + right) / special.beta(a, b)


def minimal_root(h, m: int) -> np.ndarray:
    """Root of q = h(q) in [0, 1]^m by scipy's hybrid solver from q = 0, solved
    for y = 1 - q so that the trivial root q = 1 shows as y = 0 (refused)."""
    y = root(lambda y: y - 1.0 + h(1.0 - y), np.ones(m), tol=1e-15).x
    assert np.all(y > 1e-6), f"landed on the trivial root: 1 - q = {y}"
    return 1.0 - y


def dense_spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(a, dtype=float)))))


def total_progeny_pmf(offspring_pmf: Sequence[float], upto: int) -> np.ndarray:
    """P(B = b) for b = 0..upto, where B is the number of births (ancestor
    excluded) of a one-ancestor Galton-Watson line with the given offspring pmf.

    Dwass's hitting-time identity (J. Appl. Prob. 6, 1969): the total size
    T = B + 1 has P(T = t) = P(S_t = t - 1) / t, where S_t is the sum of t
    offspring counts.  Convolution powers truncated at upto are exact there,
    since every count is nonnegative.
    """
    p = np.zeros(upto + 1)
    head = np.asarray(offspring_pmf, dtype=float)[:upto + 1]
    p[:len(head)] = head
    pmf = np.empty(upto + 1)
    power = p  # pmf of S_{b+1} on 0..upto
    for b in range(upto + 1):
        pmf[b] = power[b] / (b + 1)
        power = np.convolve(power, p)[:upto + 1]
    return pmf


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


def exponential_hazard_pmf(kernel: InfectivityKernel, n_susceptible: int, n_infective: int,
                           N: int) -> np.ndarray:
    """Exact single-type final-size pmf for a kernel with V = 1 - exp(-U/N).

    Enumerates the chain over (susceptibles S, current infectives n): given
    the n infectives' summed U, new cases are Binomial(S, 1 - exp(-sum U/N)),
    so expanding (1 - e^-x)^k binomially gives
    P(k | S, n) = C(S, k) sum_j C(k, j) (-1)^j M(-(S - k + j)/N)^n
    with M(t) = E[exp(t U)] from the kernel's own generating function.
    Entry t of the result is P(final size = t).
    """
    mgf = lambda t: kernel.u_mgf(0, np.array([t]))
    pmf = np.zeros(n_susceptible + 1)
    states = {(n_susceptible, n_infective): 1.0}
    while states:
        nxt: dict[tuple[int, int], float] = {}
        for (s, n), p in states.items():
            if n == 0:
                pmf[n_susceptible - s] += p
                continue
            for k in range(s + 1):
                p_k = math.comb(s, k) * sum(math.comb(k, j) * (-1) ** j * mgf(-(s - k + j) / N) ** n
                                            for j in range(k + 1))
                nxt[(s - k, k)] = nxt.get((s - k, k), 0.0) + p * p_k
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


def counting_indicators(spec: PopulationSpec, kernel: InfectivityKernel,
                        exposure_levels: Sequence[np.ndarray], realizations: int,
                        rng: np.random.Generator) -> list[list[np.ndarray]]:
    """Materialize the per-individual infection indicators of the counting
    process X(t) for a batch of realizations (deterministic population split).

    Returns ``chi`` with ``chi[level][i]`` a (realizations, N_i) boolean array
    over the type-i initial susceptibles: whether one of the first
    floor(t_k * N * pi_k) infectives of some type k hits them.  Every infective
    draws V from the kernel's own sampler and one contact coin per susceptible;
    all levels share these draws, so nested exposure levels give nested
    infection sets.
    """
    if spec.allocation is not Allocation.DETERMINISTIC:
        raise ValueError("the counting construction takes a deterministic population split")
    n_susceptible = resolve_population(spec).n_susceptible
    counts = np.floor(np.array(exposure_levels, dtype=float) * spec.N * spec.pi).astype(np.int64)
    if np.any(counts > spec.a + n_susceptible):
        raise ValueError(f"exposure levels {exposure_levels} ask for more infectives than the "
                         f"{spec.a + n_susceptible} available")
    contacts = []  # contacts[k][i]: (realizations, L_k, N_i) coins of type-k infectives
    for k, L_k in enumerate(counts.max(axis=0)):
        v = kernel.sample(k, spec.N, rng, size=realizations * L_k).reshape(realizations, L_k, spec.m)
        contacts.append([rng.random((realizations, L_k, n)) < v[:, :, i, None]
                         for i, n in enumerate(n_susceptible)])
    return [[np.logical_or.reduce([contacts[k][i][:, :c[k]].any(axis=1) for k in range(spec.m)])
             for i in range(spec.m)] for c in counts]


def evaluate_counting_process(spec: PopulationSpec, kernel: InfectivityKernel,
                              exposure_levels: Sequence[np.ndarray], realizations: int,
                              rng: np.random.Generator) -> np.ndarray:
    """X(t) as a (levels, realizations, m) array: the type-i infections per
    realization at each exposure level, from ``counting_indicators``."""
    chi = counting_indicators(spec, kernel, exposure_levels, realizations, rng)
    return np.array([[level[i].sum(axis=1) for i in range(spec.m)] for level in chi]).transpose(0, 2, 1)

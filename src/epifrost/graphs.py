"""Random-graph and mobility front-ends compiled into infectivity kernels.

Each builder maps a structured model onto the generic kernel contract, the
law of the scaled infectivity U, with V = U/N unless the model says otherwise.
Four kinds share one linear law, U_i = sum_j X_ij b_i[:, j] with independent
scalar X_ij (``_linear_kernel``): the static graph, the mixed graph and, with
V = 1 - exp(-U/N), the mover and random-type models.

  * static Bernoulli graph: edge between a type-i and type-j vertex with
    probability alpha_ij / N, contact probability W along each edge, so
    V_{i,j} = alpha_ij W_{i,j} / N: b_i = alpha_i with one W per infective,
    b_i = diag(alpha_i) with one W per edge;
  * mixed Bernoulli graph: per-individual connectivity D with finite
    support theta and P(D = theta_j) = pi_j, acquaintance probability
    proportional to D_k D_l, one W per infective: the shared-W static
    graph with alpha = theta theta^T, types allocated at random;
  * dynamic Bernoulli graph: partnerships form at rate rho_plus/N and
    dissolve at rate rho_minus, contacts fire at rate beta while partnered
    and infectious (lifetime Q_i), yielding the closed-form per-partner
    infection probability ``_dynamic_scaled_u`` below;
  * mover model: an infective from group i spends I^i_j time units in group
    j and contacts group-k individuals at rate b[i][k,j]/N there: X_ij = I^i_j;
  * random-type model: an individual picks its infective type at random
    from pi on infection, independent of the infector; b_i is all ones.

The graph itself is never materialized: edge independence lets the graph
and epidemic be constructed in unison, which is exactly what the kernel's
draws of U encode.  Prescribed-degree and scale-free graphs are out of scope
(they break edge independence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .deterministic import check_irreducibility
from .distributions import ScalarDist
from .kernel import Allocation, FreshFn, InfectivityKernel

__all__ = [
    "StaticGraphSpec",
    "MixedGraphSpec",
    "DynamicGraphSpec",
    "BallClancy93Spec",
    "static_bernoulli_kernel",
    "mixed_bernoulli_kernel",
    "dynamic_bernoulli_kernel",
    "ball_clancy93_kernel",
    "ball_clancy95_model",
]


# ---------------------------------------------------------------------------
# Static multitype Bernoulli graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StaticGraphSpec:
    """Edge intensities alpha (symmetric, irreducible pattern) and the
    per-edge contact probability law W.

    ``w_mode`` controls dependence within one infective's row: "independent"
    draws a fresh W per target type, "shared" reuses a single draw.
    """

    alpha: np.ndarray
    w: ScalarDist
    w_mode: str = "independent"

    def __post_init__(self):
        alpha = np.atleast_2d(np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "alpha", alpha)
        m = alpha.shape[0]
        if alpha.shape != (m, m) or np.any(alpha < 0):
            raise ValueError("alpha must be a nonnegative square matrix")
        if not np.allclose(alpha, alpha.T, atol=1e-12):
            raise ValueError("alpha must be symmetric (acquaintance is undirected)")
        if not check_irreducibility(alpha, np.full(m, 1.0 / m)):
            raise ValueError("alpha's nonzero pattern must be irreducible (connected graph)")
        if self.w_mode not in ("independent", "shared"):
            raise ValueError(f"w_mode must be 'independent' or 'shared', got {self.w_mode!r}")
        if self.w.support_max > 1.0:
            raise ValueError("W is a probability; its support must lie in [0, 1]")


def static_bernoulli_kernel(spec: StaticGraphSpec) -> InfectivityKernel:
    """Compile a static Bernoulli graph into a kernel: V_{i,j} = alpha_ij W / N."""
    return _graph_kernel(spec.alpha, spec.w, shared=spec.w_mode == "shared")


def _graph_kernel(alpha: np.ndarray, w: ScalarDist, shared: bool) -> InfectivityKernel:
    """V_{i,j} = alpha_ij W_{i,j} / N (alpha / N <= 1): the linear law with one W per
    infective if ``shared``, else with b_i = diag(alpha_i) and one W per edge."""
    m = alpha.shape[0]
    if shared:
        return _linear_kernel(alpha[:, :, None], [[w]] * m, hazard=False,
                              max_scaled=float(alpha.max()))
    kernel = _linear_kernel(alpha[:, :, None] * np.eye(m), [[w] * m] * m, hazard=False,
                            max_scaled=float(alpha.max()))
    # a batch's W in one row-major call, not one call per column: rows are prefixes
    return replace(kernel, u_sampler=lambda i, rng, n: w.sample(rng, (n, m)) * alpha[i])


# ---------------------------------------------------------------------------
# Mixed Bernoulli graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixedGraphSpec:
    """Finite-support connectivity D (values theta, probabilities pi) and a
    scalar contact law W, independent of D."""

    theta: np.ndarray
    pi: np.ndarray
    w: ScalarDist

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "pi", pi)
        if theta.ndim != 1 or np.any(theta < 0):
            raise ValueError("theta must be a nonnegative vector")
        if pi.shape != theta.shape or np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("pi must be a strictly positive probability vector matching theta")
        if self.w.support_max > 1.0:
            raise ValueError("W is a probability; its support must lie in [0, 1]")


def mixed_bernoulli_kernel(spec: MixedGraphSpec) -> tuple[InfectivityKernel, Allocation]:
    """Compile a mixed Bernoulli graph: V_{i,j} = theta_i theta_j W / N with a
    single W per infective, the static graph with alpha = theta theta^T and
    shared W.

    Types are degree classes drawn independently per individual, so the
    population must use random multinomial allocation; the forced mode is
    returned alongside the kernel.
    """
    kernel = _graph_kernel(np.outer(spec.theta, spec.theta), spec.w, shared=True)
    return kernel, Allocation.RANDOM_MULTINOMIAL


# ---------------------------------------------------------------------------
# Dynamic Bernoulli graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicGraphSpec:
    """Partnership formation/dissolution rates, contact rates, and per-type
    infectious lifetimes for the dynamic Bernoulli graph in equilibrium."""

    rho_plus: np.ndarray
    rho_minus: np.ndarray
    beta: np.ndarray
    q: Sequence[ScalarDist]

    def __post_init__(self):
        rp = np.atleast_2d(np.asarray(self.rho_plus, dtype=float))
        rm = np.atleast_2d(np.asarray(self.rho_minus, dtype=float))
        beta = np.atleast_2d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "rho_plus", rp)
        object.__setattr__(self, "rho_minus", rm)
        object.__setattr__(self, "beta", beta)
        m = rp.shape[0]
        if rp.shape != (m, m) or rm.shape != (m, m) or beta.shape != (m, m):
            raise ValueError("rho_plus, rho_minus and beta must be square matrices of equal size")
        if np.any(rp <= 0) or np.any(rm <= 0):
            raise ValueError("partnership rates must be strictly positive entrywise")
        if np.any(beta < 0):
            raise ValueError("contact rates must be nonnegative")
        if len(self.q) != m:
            raise ValueError(f"need one lifetime law per type, got {len(self.q)} for m={m}")


def _dynamic_scaled_u(spec: DynamicGraphSpec, i: int, q_values: np.ndarray,
                      N: Optional[int] = None) -> np.ndarray:
    """Scaled per-partner infection weight, rows of types j, given lifetimes q.

    First term: initially acquainted partners, weighted by N times the
    equilibrium edge probability rho_plus / (rho_plus + N rho_minus), or by
    its limit rho_plus / rho_minus for ``N=None``; second term: partnerships
    formed during the infectious period.  Returns shape (len(q_values), m).
    """
    rp = spec.rho_plus[i]
    rm = spec.rho_minus[i]
    beta = spec.beta[i]
    decay = beta + rm
    frac = np.divide(beta, decay, out=np.zeros_like(beta), where=decay > 0)
    q = np.asarray(q_values, dtype=float)[:, None]
    ramp = -np.expm1(-decay[None, :] * q)
    acquainted = rp / rm if N is None else N * rp / (rp + N * rm)
    initial = acquainted[None, :] * frac[None, :] * ramp
    secondary = rp[None, :] * frac[None, :] * (q - ramp / decay[None, :])
    return initial + secondary


def dynamic_bernoulli_kernel(spec: DynamicGraphSpec) -> InfectivityKernel:
    """Compile a dynamic Bernoulli graph kernel.

    Each infective of type i draws its lifetime Q_i once; the row of
    infection probabilities is then the deterministic function of Q_i
    derived from the equilibrium partnership process (components dependent
    through the shared lifetime), ``_dynamic_scaled_u`` at N over N.  With
    d = beta + rho_minus, c = rho_plus beta / d and g = beta / (rho_minus d)
    the limit weight is u_j(q) = c_j (q + g_j (1 - e^{-d_j q})), so the
    moments are exact in the lifetime's generating function M
    (``_dynamic_moments``).  The generating function of U is
    E[exp(theta . u(Q_i))], taken by the lifetime's ``expect``.
    """
    m = spec.rho_plus.shape[0]

    def u_sampler(i: int, rng: np.random.Generator, n: int) -> np.ndarray:
        return _dynamic_scaled_u(spec, i, spec.q[i].sample(rng, n))

    def sampler(i: int, N: int, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.clip(_dynamic_scaled_u(spec, i, spec.q[i].sample(rng, n), N) / N, 0.0, 1.0)

    moments = [_dynamic_moments(spec, i) for i in range(m)]
    mu = np.stack([mean for mean, _ in moments])
    lam = np.stack([cov for _, cov in moments])

    def u_mgf(i: int, theta: np.ndarray) -> float:
        return float(spec.q[i].expect(lambda q: np.exp(_dynamic_scaled_u(spec, i, q) @ theta)))

    return InfectivityKernel(m=m, mu=mu, lam=lam, u_sampler=u_sampler, u_mgf=u_mgf,
                             sampler=sampler)


def _dynamic_moments(spec: DynamicGraphSpec, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact E[U_i] and cov(U_i) for u_j(q) = c_j (q + g_j (1 - e^{-d_j q})).

    With M the lifetime's generating function and C_j = cov(q, e^{-d_j q}) =
    M'(-d_j) - E[q] M(-d_j):  E[u_j] = c_j (E[q] + g_j (1 - M(-d_j))) and
    cov(u_j, u_k) = c_j c_k (var q - g_j C_j - g_k C_k
                             + g_j g_k (M(-d_j - d_k) - M(-d_j) M(-d_k))).
    """
    q = spec.q[i]
    beta, rm = spec.beta[i], spec.rho_minus[i]
    d = beta + rm  # > 0: rho_minus is strictly positive
    c = spec.rho_plus[i] * beta / d
    g = beta / (rm * d)
    mgf = np.array([q.mgf(-x) for x in d])
    gc = g * (np.array([q.mgf_prime(-x) for x in d]) - q.mean * mgf)
    joint = np.array([[q.mgf(-x - y) for y in d] for x in d]) - np.outer(mgf, mgf)
    mean = c * (q.mean + g * (1.0 - mgf))
    if q.is_constant:  # the terms below cancel exactly, but not in floating point
        return mean, np.zeros((len(d), len(d)))
    cov = q.var - gc[:, None] - gc[None, :] + np.outer(g, g) * joint
    return mean, np.outer(c, c) * cov


# ---------------------------------------------------------------------------
# Linear-law kernels: the mover model (per-origin group sojourns) and the
# random-type model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallClancy93Spec:
    """Contact-rate matrices by origin plus the sojourn-time laws.

    ``b[i]`` has entry [k, j] = rate of contacting a given group-k
    individual while an origin-i infective is in group j; ``sojourn[i][j]``
    is the law of the time I^i_j it spends in group j, independent across j.
    """

    b: np.ndarray  # (m, m, m): b[i] = B_i
    sojourn: Sequence[Sequence[ScalarDist]]

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim == 2:
            b = b[None, :, :]
        object.__setattr__(self, "b", b)
        m = b.shape[0]
        if b.shape != (m, m, m) or np.any(b < 0):
            raise ValueError("b must be m nonnegative m x m matrices")
        if len(self.sojourn) != m or any(len(row) != m for row in self.sojourn):
            raise ValueError(f"sojourn must be an {m} x {m} table of scalar laws")


def ball_clancy93_kernel(spec: BallClancy93Spec) -> InfectivityKernel:
    """Compile the mover model: V_{i,k} = 1 - exp(-(1/N) sum_j b[i][k,j] I^i_j)."""
    return _linear_kernel(spec.b, spec.sojourn, hazard=True)


def _linear_kernel(b: np.ndarray, laws: Sequence[Sequence[ScalarDist]], hazard: bool,
                   max_scaled: float = math.inf) -> InfectivityKernel:
    """The kernel of U_i = sum_j X_ij b[i][:, j], X_ij ~ laws[i][j] independent:
    mu[i] = b[i] E[X_i], lam[i] = b[i] diag(var X_i) b[i]^T and E[exp(theta . U_i)]
    = prod_j M_ij(theta . b[i][:, j]).  With ``hazard``, V = 1 - exp(-U/N), and
    ``u_sum`` draws a line's summed X_ij from that sum's law, one call per column j.
    """
    m = b.shape[0]
    means = np.array([[x.mean for x in row] for row in laws])
    variances = np.array([[x.var for x in row] for row in laws])
    mu = np.einsum("ikj,ij->ik", b, means)
    lam = np.einsum("ijl,il,ikl->ijk", b, variances, b)
    columns = [list(zip(laws[i], b[i].T[:, :, None])) for i in range(m)]  # X_ij, (m, 1) b[i][:, j]

    def u_sampler(i: int, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.stack([x.sample(rng, n) for x in laws[i]], axis=1) @ b[i].T

    def u_mgf(i: int, theta: np.ndarray) -> float:
        return float(math.prod(x.mgf(float(t)) for x, t in zip(laws[i], b[i].T @ theta)))

    if not hazard:
        return InfectivityKernel(m=m, mu=mu, lam=lam, u_sampler=u_sampler, u_mgf=u_mgf,
                                 max_scaled=max_scaled)

    def u_sum(i: int, fresh: FreshFn, counts: np.ndarray) -> np.ndarray:
        # term by term, so a row does not depend on the other rows (a matmul's rounding
        # can depend on how many it has), from the first term on (0 + t is t); built
        # as (m, lines) so that each product runs along the lines, then transposed
        (x, column), *rest = columns[i]
        u = column * x.sample_sum(fresh(), counts)
        for x, column in rest:
            u += column * x.sample_sum(fresh(), counts)
        return u.T

    def sampler(i: int, N: int, rng: np.random.Generator, n: int) -> np.ndarray:
        return -np.expm1(-u_sampler(i, rng, n) / N)

    return InfectivityKernel(m=m, mu=mu, lam=lam, u_sampler=u_sampler, u_mgf=u_mgf,
                             sampler=sampler, u_sum=u_sum, max_scaled=max_scaled)


def ball_clancy95_model(base: Sequence[ScalarDist],
                        pi: np.ndarray) -> tuple[InfectivityKernel, Allocation]:
    """Random-type model: an infective of type i contacts every individual
    with the same probability 1 - exp(-u_i / N), u_i drawn from base[i]
    (the linear law with b_i all ones).

    Since an individual's type is assigned at random from pi irrespective of
    its infector, this maps onto random multinomial allocation; the forced
    mode is returned alongside the kernel.
    """
    pi = np.asarray(pi, dtype=float)
    m = len(pi)
    if len(base) != m:
        raise ValueError(f"need one scalar infectivity law per type, got {len(base)} for m={m}")
    if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
        raise ValueError("pi must be a strictly positive probability vector")
    kernel = _linear_kernel(np.ones((m, m, 1)), [[x] for x in base], hazard=True)
    return kernel, Allocation.RANDOM_MULTINOMIAL

"""Independent references for the benchmark's output checks.

Nothing here calls the library under test.  Every quantity is rebuilt from
the raw JSON config with numpy/scipy: scalar fixed points by brentq, vector
fixed points by scipy's root finder, the threshold parameter by a dense
eigendecomposition, and the scaled limit law U_i of each kernel kind through
its moment generating function (closed form, Kummer's function for Beta laws,
or quadrature over the lifetime for the dynamic graph).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy import integrate, optimize, special


def dense_R(mu: np.ndarray, pi: np.ndarray) -> float:
    """Perron root of mu @ diag(pi) from all eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(mu) * np.asarray(pi)[None, :]))))


def attack_map(t: np.ndarray, mu: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """r_i(t) = 1 - exp(-sum_k t_k pi_k mu[k, i])."""
    return -np.expm1(-(np.asarray(t) * pi) @ mu)


def scalar_tau(mu: float, zeta: float) -> float:
    """Root of tau = 1 - exp(-mu (tau + zeta)) for zeta > 0 (it is unique)."""
    return optimize.brentq(lambda t: t - 1.0 + math.exp(-mu * (t + zeta)), 0.0, 1.0, xtol=1e-15)


def scalar_q(mu: float) -> float:
    """Minimal root of q = exp(mu (q - 1)), bracketed left of the maximum of q - h(q)."""
    if mu <= 1.0:
        return 1.0
    peak = 1.0 - math.log(mu) / mu
    return optimize.brentq(lambda q: q - math.exp(mu * (q - 1.0)), 0.0, peak, xtol=1e-15)


def _scalar_mgf(law: dict) -> Callable[[float], float]:
    kind = law["dist"]
    if kind == "constant":
        return lambda t: math.exp(t * law["value"])
    if kind == "exponential":
        return lambda t: 1.0 / (1.0 - law["mean"] * t)
    if kind == "gamma":
        return lambda t: (1.0 - law["scale"] * t) ** (-law["shape"])
    if kind == "beta":
        return lambda t: float(special.hyp1f1(law["a"], law["a"] + law["b"], t))
    raise ValueError(f"no reference for scalar law {kind!r}")


def _scalar_mean(law: dict) -> float:
    kind = law["dist"]
    if kind == "constant":
        return law["value"]
    if kind == "exponential":
        return law["mean"]
    if kind == "gamma":
        return law["shape"] * law["scale"]
    if kind == "beta":
        return law["a"] / (law["a"] + law["b"])
    raise ValueError(f"no reference for scalar law {kind!r}")


def _scalar_density(law: dict) -> Callable[[float], float]:
    if law["dist"] == "exponential":
        return lambda x: math.exp(-x / law["mean"]) / law["mean"]
    raise ValueError(f"no reference density for scalar law {law['dist']!r}")


class ULaw:
    """E[exp(theta . U_i)] and E[U_i] for one kernel config, theta <= 0."""

    def __init__(self, kernel: dict, m: int):
        self.kernel = kernel
        self.m = m

    def mgf(self, i: int, theta: np.ndarray) -> float:
        k = self.kernel
        kind = k["kind"]
        if kind == "constant":
            return math.exp(float(theta @ np.asarray(k["mu"])[i]))
        if kind == "ball_clancy93":
            b = np.asarray(k["b"])[i]  # b[k, l]: rate towards group k while in group l
            return math.prod(_scalar_mgf(k["sojourn"][i][l])(float(theta @ b[:, l]))
                             for l in range(self.m))
        if kind == "ball_clancy95":
            return _scalar_mgf(k["u"][i])(float(theta.sum()))
        if kind == "static_graph":
            alpha = np.asarray(k["alpha"])[i]
            mgf = _scalar_mgf(k["w"])
            if k.get("w_mode", "independent") == "shared":
                return mgf(float(theta @ alpha))
            return math.prod(mgf(float(t * a)) for t, a in zip(theta, alpha))
        if kind == "mixed_bernoulli":
            th = np.asarray(k["theta"])
            return _scalar_mgf(k["w"])(float(th[i] * (theta @ th)))
        if kind == "dynamic_graph":
            return self._dynamic_expect(i, lambda u: math.exp(float(theta @ u)))
        raise ValueError(f"no reference for kernel kind {kind!r}")

    def mean(self, i: int) -> np.ndarray:
        k = self.kernel
        kind = k["kind"]
        if kind == "constant":
            return np.asarray(k["mu"], dtype=float)[i]
        if kind == "ball_clancy93":
            means = np.array([_scalar_mean(law) for law in k["sojourn"][i]])
            return np.asarray(k["b"], dtype=float)[i] @ means
        if kind == "ball_clancy95":
            return np.full(self.m, _scalar_mean(k["u"][i]))
        if kind == "static_graph":
            return np.asarray(k["alpha"], dtype=float)[i] * _scalar_mean(k["w"])
        if kind == "mixed_bernoulli":
            th = np.asarray(k["theta"], dtype=float)
            return th[i] * th * _scalar_mean(k["w"])
        if kind == "dynamic_graph":
            return np.array([self._dynamic_expect(i, lambda u, j=j: float(u[j]))
                             for j in range(self.m)])
        raise ValueError(f"no reference for kernel kind {kind!r}")

    def second_moment(self, i: int, j: int) -> float:
        if self.kernel["kind"] != "dynamic_graph":
            raise ValueError("second moments are only needed for Monte Carlo moment estimates")
        return self._dynamic_expect(i, lambda u: float(u[j]) ** 2)

    def _dynamic_u(self, i: int, q: float) -> np.ndarray:
        """Per-partner scaled infection weight of a type-i infective living q time units.

        Partners present at infection (edge probability rho_plus / (N rho_minus))
        transmit before the partnership ends or the infective dies; partners
        acquired during the infectious period (rate rho_plus / N) likewise.
        """
        k = self.kernel
        rp = np.asarray(k["rho_plus"], dtype=float)[i]
        rm = np.asarray(k["rho_minus"], dtype=float)[i]
        beta = np.asarray(k["beta"], dtype=float)[i]
        decay = beta + rm  # a partnership ends by transmission or by separation
        share = beta / decay  # ... and this is the chance it ends by transmission
        ended = 1.0 - np.exp(-decay * q)
        # partners held at infection, then partners formed at rate rho_plus
        # while infectious, each weighted by the chance to transmit before q
        return rp / rm * share * ended + rp * share * (q - ended / decay)

    def _dynamic_expect(self, i: int, f: Callable[[np.ndarray], float]) -> float:
        density = _scalar_density(self.kernel["q"][i] if isinstance(self.kernel["q"], list)
                                  else self.kernel["q"])
        value, _ = integrate.quad(lambda q: f(self._dynamic_u(i, q)) * density(q),
                                  0.0, math.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
        return value


def pgf(law: ULaw, s: np.ndarray, pi: np.ndarray, doubled: bool = False) -> np.ndarray:
    """h_i(s) = E[exp(sum_j (s_j - 1) pi_j U_ij)]; with ``doubled`` the second
    moment E[exp(2 sum_j ...)] used for Monte Carlo standard errors."""
    theta = (np.asarray(s, dtype=float) - 1.0) * pi * (2.0 if doubled else 1.0)
    return np.array([law.mgf(i, theta) for i in range(law.m)])


def _nontrivial_root(F: Callable[[np.ndarray], np.ndarray], x0: np.ndarray) -> np.ndarray:
    """Root of F by scipy's hybrid Powell method from x0, checked to be a root."""
    x = optimize.root(F, x0, method="hybr", tol=1e-13).x
    residual = float(np.max(np.abs(F(x))))
    if residual > 1e-12:
        raise RuntimeError(f"reference root finder stopped at residual {residual:.3g}")
    return x


def attack_rate(mu: np.ndarray, pi: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Largest root of tau = r(tau + zeta), started from tau = 1 (for R > 1 or zeta > 0)."""
    tau = _nontrivial_root(lambda t: t - attack_map(t + zeta, mu, pi), np.ones(len(pi)))
    if np.min(tau) <= 0.0:
        raise RuntimeError(f"reference attack rate {tau} is the trivial root")
    return tau


def extinction_root(law: ULaw, pi: np.ndarray) -> np.ndarray:
    """Minimal root of q = h(q), started from q = 0 (for R > 1)."""
    q = _nontrivial_root(lambda s: s - pgf(law, s, pi), np.zeros(law.m))
    if np.max(q) >= 1.0 or np.min(q) < 0.0:
        raise RuntimeError(f"reference extinction probability {q} is not a minimal root")
    return q


def extinction_gain(law: ULaw, pi: np.ndarray, q: np.ndarray, step: float = 1e-6) -> float:
    """||(I - h'(q))^-1||_inf: how far an error in h moves the root q = h(q)."""
    jac = np.empty((law.m, law.m))
    for j in range(law.m):
        dq = np.zeros(law.m)
        dq[j] = step
        jac[:, j] = (pgf(law, q + dq, pi) - pgf(law, q - dq, pi)) / (2.0 * step)
    return float(np.linalg.norm(np.linalg.inv(np.eye(law.m) - jac), np.inf))

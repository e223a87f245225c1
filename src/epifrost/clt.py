"""Gaussian asymptotics of the final size in a major outbreak.

Building blocks, with Sigma = diag(sigma), sqrt(Pi) = diag(sqrt(pi)):

    Xi  = (I - Sigma) Sigma
          + Sigma sqrt(Pi) { sum_k (tau_k + zeta_k) pi_k Lam_k } sqrt(Pi) Sigma
    U   = I - sqrt(pi_i pi_j) mu[i, j] sigma_j        (entrywise)
    Ups = sqrt(Pi)^-1 (I - Sigma) (Pi - pi^T pi) (I - Sigma) sqrt(Pi)^-1

The scaled final-size fluctuation (T/N*pi - tau) * sqrt(N pi) is
asymptotically N(0, (U^T)^-1 Xi U^-1) under deterministic type allocation,
with Xi replaced by Xi + Ups when types are allocated at random.

Mardia's p-values need only two tails, both in ``math``: the chi-squared
tail at a whole number of degrees of freedom (a Poisson tail, plus erfc for
an odd count) and the normal tail (erfc).

Orientation note: mu[i, j] runs from infector type i to target type j.  The
attack-rate map uses the transpose (sum over infector types); U uses mu as
stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InsufficientDataError, SingularMatrixError
from .kernel import Allocation

if TYPE_CHECKING:
    from .simulator import Ensemble

__all__ = [
    "AsymptoticSummary",
    "GaussianCheckReport",
    "compute_xi",
    "compute_u",
    "asymptotic_covariance",
    "mardia_test",
    "gaussian_check",
]

DET_TOL = 1e-12  # |det U| at or below this is singular: R is near 1
MIN_MAJOR = 500  # fewest major-outbreak records the Gaussian check runs on


@dataclass(frozen=True)
class AsymptoticSummary:
    sigma_diag: np.ndarray
    xi: np.ndarray
    u_matrix: np.ndarray
    upsilon: np.ndarray
    asym_cov: np.ndarray
    allocation: Allocation
    cond_u: float


def compute_xi(sigma: np.ndarray, tau: np.ndarray, zeta: np.ndarray,
               pi: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Fluctuation covariance of the embedded counting process at tau + zeta."""
    sigma = np.asarray(sigma, dtype=float)
    pi = np.asarray(pi, dtype=float)
    weights = (np.asarray(tau, dtype=float) + np.asarray(zeta, dtype=float)) * pi
    mixing = np.einsum("k,kij->ij", weights, np.asarray(lam, dtype=float))
    sqrt_pi = np.sqrt(pi)
    core = sqrt_pi[:, None] * mixing * sqrt_pi[None, :]
    xi = np.diag((1.0 - sigma) * sigma) + sigma[:, None] * core * sigma[None, :]
    return (xi + xi.T) / 2.0


def compute_u(sigma: np.ndarray, mu: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The matrix transporting counting-process fluctuations to final-size
    coordinates: u_ij = delta_ij - sqrt(pi_i pi_j) mu_ij sigma_j.

    Invertibility holds in theory away from criticality; a numerically
    vanishing determinant (near-critical R) raises SingularMatrixError with
    the determinant estimate attached.
    """
    sigma = np.asarray(sigma, dtype=float)
    pi = np.asarray(pi, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sqrt_pi = np.sqrt(pi)
    m = len(pi)
    u = np.eye(m) - sqrt_pi[:, None] * sqrt_pi[None, :] * mu * sigma[None, :]
    det = float(np.linalg.det(u))
    if abs(det) <= DET_TOL:
        raise SingularMatrixError(
            "final-size transport matrix is numerically singular (threshold parameter near 1?)",
            det,
        )
    return u


def asymptotic_covariance(mu: np.ndarray, lam: np.ndarray, pi: np.ndarray,
                          tau: np.ndarray, zeta: np.ndarray,
                          allocation: Allocation = Allocation.DETERMINISTIC) -> AsymptoticSummary:
    """Assemble Sigma, Xi, U, Upsilon and the asymptotic final-size covariance."""
    pi = np.asarray(pi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    sigma = 1.0 - tau
    allocation = Allocation(allocation)

    xi = compute_xi(sigma, tau, zeta, pi, lam)
    u = compute_u(sigma, mu, pi)
    if allocation is Allocation.RANDOM_MULTINOMIAL:
        alloc_cov = np.diag(pi) - np.outer(pi, pi)
        inv_sqrt_pi = 1.0 / np.sqrt(pi)
        upsilon = (inv_sqrt_pi[:, None] * (1.0 - sigma)[:, None]
                   * alloc_cov
                   * (1.0 - sigma)[None, :] * inv_sqrt_pi[None, :])
    else:
        upsilon = np.zeros_like(xi)

    u_inv = np.linalg.inv(u)
    cov = u_inv.T @ (xi + upsilon) @ u_inv
    return AsymptoticSummary(
        sigma_diag=np.diag(sigma),
        xi=xi,
        u_matrix=u,
        upsilon=upsilon,
        asym_cov=(cov + cov.T) / 2.0,
        allocation=allocation,
        cond_u=float(np.linalg.cond(u)),
    )


def mardia_test(y: np.ndarray) -> tuple[float, float, float, float]:
    """Mardia's multivariate skewness and kurtosis statistics.

    Returns (b1, p_skew, b2, p_kurt).  The skewness statistic n*b1/6 is
    chi-squared with m(m+1)(m+2)/6 degrees of freedom; the standardized
    kurtosis is asymptotically standard normal (two-sided p-value).
    """
    y = np.asarray(y, dtype=float)
    n, m = y.shape
    centered = y - y.mean(axis=0)
    cov = centered.T @ centered / n
    root = np.linalg.cholesky(np.linalg.inv(cov))
    z = centered @ root  # whitened: sample covariance = I

    # b1 = mean over pairs of (z_r . z_s)^3, computed via the third-moment tensor
    third = np.einsum("ra,rb,rc->abc", z, z, z) / n
    b1 = float((third ** 2).sum())
    p_skew = _chi2_tail(m * (m + 1) * (m + 2) // 6, n * b1 / 6.0)

    b2 = float(np.mean((z ** 2).sum(axis=1) ** 2))
    z_kurt = (b2 - m * (m + 2)) / np.sqrt(8.0 * m * (m + 2) / n)
    p_kurt = math.erfc(abs(z_kurt) / math.sqrt(2.0))
    return b1, p_skew, b2, p_kurt


def _chi2_tail(df: int, x: float) -> float:
    """P(chi^2_df > x) for a whole df >= 1: the regularized upper incomplete gamma
    Q(df/2, x/2), which with y = x/2 is the sum of y^k e^-y / k! over k < df/2 for
    an even df, and erfc(sqrt y) plus the sum of y^k e^-y / Gamma(k + 1) over
    k = 1/2, 3/2, ... < df/2 for an odd one.  Each term is taken in log space."""
    y = x / 2.0
    if y <= 0.0:
        return 1.0
    half = df % 2 / 2.0
    log_y = math.log(y)
    terms = [math.exp((k + half) * log_y - y - math.lgamma(k + half + 1.0)) for k in range(df // 2)]
    return math.fsum([math.erfc(math.sqrt(y)) if df % 2 else 0.0, *terms])


@dataclass(frozen=True)
class GaussianCheckReport:
    n_major: int
    sample_mean: np.ndarray
    mean_se: np.ndarray
    sample_cov: np.ndarray
    mardia_skew_p: float
    mardia_kurtosis_p: float


def gaussian_check(ensemble: Ensemble, tau: np.ndarray, n_population: int,
                   pi: np.ndarray) -> GaussianCheckReport:
    """Compare the empirical law of the scaled major-outbreak final size with
    its Gaussian limit.

    Forms Y_r = (T_r / (N pi) - tau) * sqrt(N pi) over the major-class
    replicates, then reports the sample mean (should shrink to 0), the sample
    covariance (the caller compares it with ``AsymptoticSummary.asym_cov``),
    and Mardia normality p-values.
    """
    pi = np.asarray(pi, dtype=float)
    tau = np.asarray(tau, dtype=float)
    major = ensemble.major
    n = int(major.sum())
    if n < MIN_MAJOR:
        raise InsufficientDataError(f"need at least {MIN_MAJOR} major-outbreak records, got {n}")
    scale = np.sqrt(n_population * pi)
    t_bar = ensemble.t_inf[major] / (n_population * pi)[None, :]
    y = (t_bar - tau[None, :]) * scale[None, :]

    sample_cov = np.cov(y, rowvar=False).reshape(len(pi), len(pi))
    mean_se = np.sqrt(np.diag(sample_cov) / n)
    _, p_skew, _, p_kurt = mardia_test(y)
    return GaussianCheckReport(
        n_major=n,
        sample_mean=y.mean(axis=0),
        mean_se=mean_se,
        sample_cov=sample_cov,
        mardia_skew_p=p_skew,
        mardia_kurtosis_p=p_kurt,
    )

"""Gaussian fluctuations of the final size in a major outbreak.

Runs two single-type models at the same threshold parameter R = 2:

  * deterministic infectivity (classic Reed-Frost), and
  * exponentially distributed scaled infectivity (the general stochastic
    epidemic), which adds an infectivity-variance term to the limit
    covariance and halves the major-outbreak probability.

For each, the standardized fluctuation sqrt(N) (T/N - tau) over major
outbreaks is compared against the predicted asymptotic variance, and a
normality check (multivariate skewness/kurtosis) is reported.
"""

import zlib

import numpy as np

import epifrost as ef

N = 10_000
REPLICATES = 4_000
pi = np.array([1.0])

models = {
    "constant infectivity": ef.constant_kernel([[2.0]]),
    "exponential infectivity": ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]])),
}

for name, kernel in models.items():
    spec = ef.PopulationSpec(m=1, pi=pi, N=N, a=[1])
    solution = ef.solve_tau(kernel.mu, pi, np.zeros(1))
    summary = ef.asymptotic_covariance(kernel.mu, kernel.lam, pi,
                                       solution.tau, np.zeros(1))
    extinction = ef.extinction_probability(kernel, pi, a=spec.a)

    ensemble = ef.run_ensemble(spec, kernel, REPLICATES, seed=zlib.crc32(name.encode()))
    report = ef.gaussian_check(ensemble, solution.tau, N, pi)

    print(f"--- {name} ---")
    print(f"  R = {solution.R:.3f}, tau = {solution.tau[0]:.5f}, "
          f"P(major) = {extinction.major_outbreak_prob:.4f}")
    print(f"  predicted var of sqrt(N)(T/N - tau): {summary.asym_cov[0, 0]:.5f}")
    print(f"  sample var over {report.n_major} major outbreaks: "
          f"{report.sample_cov[0, 0]:.5f} "
          f"(rel err {abs(report.sample_cov[0, 0] / summary.asym_cov[0, 0] - 1):.2%})")
    print(f"  sample mean {report.sample_mean[0]:+.4f} (SE {report.mean_se[0]:.4f})")
    print(f"  normality p-values: skewness {report.mardia_skew_p:.3f}, "
          f"kurtosis {report.mardia_kurtosis_p:.3f}")
    print()

"""Why random type allocation inflates the final-size covariance.

In the mixed Bernoulli graph each individual draws its connectivity class
independently, so the per-type population counts fluctuate around N*pi.
That extra randomness feeds into the final size: the asymptotic covariance
picks up a correction term on top of the deterministic-allocation formula.

This demo computes both covariance matrices for an asymmetric two-type
mixed graph and shows that the empirical major-outbreak covariance sits on
the corrected prediction, not the uncorrected one.
"""

import numpy as np

import epifrost as ef

N = 10_000
REPLICATES = 8_000
pi = np.array([0.5, 0.5])

kernel, allocation = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
    theta=[1.0, 2.0], pi=pi, w=ef.ScalarDist.constant(1.0)))
spec = ef.PopulationSpec(m=2, pi=pi, N=N, a=[1, 1], allocation=allocation)

solution = ef.solve_tau(kernel.mu, pi, np.zeros(2))
corrected = ef.asymptotic_covariance(kernel.mu, kernel.lam, pi, solution.tau,
                                     np.zeros(2), allocation=allocation)
uncorrected = ef.asymptotic_covariance(kernel.mu, kernel.lam, pi, solution.tau,
                                       np.zeros(2))

print("attack rates by type:", np.round(solution.tau, 4))
print("allocation correction term:\n", np.round(corrected.upsilon, 4))
print("covariance without correction:\n", np.round(uncorrected.asym_cov, 4))
print("covariance with correction:\n", np.round(corrected.asym_cov, 4))

ensemble = ef.run_ensemble(spec, kernel, REPLICATES, seed=4040)
majors = ensemble.t_inf[ensemble.major]
scale = np.sqrt(N * pi)
y = (majors / (N * pi) - solution.tau) * scale
empirical = np.cov(y, rowvar=False)

print(f"\nempirical covariance over {len(majors)} major outbreaks:\n",
      np.round(empirical, 4))
print("Frobenius distance to corrected prediction:  ",
      round(float(np.linalg.norm(empirical - corrected.asym_cov)), 4))
print("Frobenius distance to uncorrected prediction:",
      round(float(np.linalg.norm(empirical - uncorrected.asym_cov)), 4))

"""Threshold behaviour of the single-type epidemic.

Sweeps the scaled mean infectivity across the critical value 1 and compares,
at each point, the theoretical attack rate and major-outbreak probability
with a simulated ensemble.  Below the threshold every outbreak stays small;
above it a macroscopic fraction of the population is infected with the
probability predicted by the branching approximation.
"""

import numpy as np

import epifrost as ef

N = 5_000
REPLICATES = 2_000

print(f"population N={N}, one initial infective, {REPLICATES} replicates per point")
print(f"{'mu':>5} {'R':>5} {'tau':>8} {'P(major)':>9} {'sim major':>10} {'sim mean|major':>14}")

for mu in (0.6, 0.9, 1.2, 1.5, 2.0, 3.0):
    kernel = ef.constant_kernel([[mu]])
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=N, a=[1])

    solution = ef.solve_tau(kernel.mu, spec.pi, np.zeros(1))
    extinction = ef.extinction_probability(kernel, spec.pi, a=spec.a)

    ensemble = ef.run_ensemble(spec, kernel, REPLICATES, seed=int(mu * 1000))
    stats = ef.estimate_outbreak_statistics(ensemble)
    major_mean = (f"{stats.major_mean_fraction[0]:.4f}"
                  if stats.major_mean_fraction is not None else "-")

    print(f"{mu:5.2f} {solution.R:5.2f} {solution.tau[0]:8.4f} "
          f"{extinction.major_outbreak_prob:9.4f} {stats.major_fraction:10.4f} "
          f"{major_mean:>14}")

print()
print("note how tau and P(major) coincide for this kernel: with deterministic")
print("infectivity both solve the same scalar fixed point. A kernel with")
print("random infectivity separates them; see demo 02.")

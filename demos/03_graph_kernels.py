"""Random-graph epidemics compiled into infectivity kernels.

Builds each graph-style model, prints its scaled moment structure and
threshold parameter, and runs a quick ensemble.  None of these materialize
a graph: edge independence lets the epidemic and the graph be revealed
together, so each model reduces to a per-infective infectivity vector.
"""

import numpy as np

import epifrost as ef

N = 3_000
REPLICATES = 1_000


def describe(name, kernel, pi, spec, seed):
    R = ef.compute_R(kernel.mu, pi)
    ensemble = ef.run_ensemble(spec, kernel, REPLICATES, seed=seed)
    stats = ef.estimate_outbreak_statistics(ensemble)
    print(f"--- {name} ---")
    print(f"  mu =\n{np.array_str(kernel.mu, precision=4)}")
    print(f"  R = {R:.4f}   simulated major fraction = {stats.major_fraction:.4f}")
    print()


# static two-type Bernoulli graph: more edges within type 0, Bernoulli contacts
static = ef.static_bernoulli_kernel(ef.StaticGraphSpec(
    alpha=np.array([[6.0, 1.0], [1.0, 3.0]]), w=ef.ScalarDist.bernoulli(0.6)))
pi = np.array([0.5, 0.5])
describe("static Bernoulli graph", static, pi,
         ef.PopulationSpec(m=2, pi=pi, N=N, a=[1, 0]), seed=1)

# mixed Bernoulli graph: heavy-tailed-ish degree mix, forced random allocation
mixed, allocation = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
    theta=[0.8, 2.5], pi=[0.7, 0.3], w=ef.ScalarDist.beta(2.0, 1.0)))
pi = np.array([0.7, 0.3])
describe("mixed Bernoulli graph (random allocation)", mixed, pi,
         ef.PopulationSpec(m=2, pi=pi, N=N, a=[1, 1], allocation=allocation), seed=2)

# dynamic Bernoulli graph: partnerships churn while an exponential lifetime runs
dynamic = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
    rho_plus=[[3.0]], rho_minus=[[0.5]], beta=[[1.5]],
    q=[ef.ScalarDist.exponential(1.0)]))
pi = np.array([1.0])
describe("dynamic Bernoulli graph", dynamic, pi,
         ef.PopulationSpec(m=1, pi=pi, N=N, a=[1]), seed=3)

# mover model: infectives split their infectious period across two groups
mover = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
    b=np.array([[[3.0, 1.0], [0.5, 2.0]], [[2.0, 0.5], [1.0, 3.0]]]),
    sojourn=[[ef.ScalarDist.exponential(0.6), ef.ScalarDist.exponential(0.4)],
             [ef.ScalarDist.exponential(0.3), ef.ScalarDist.exponential(0.7)]]))
pi = np.array([0.5, 0.5])
describe("mover model", mover, pi,
         ef.PopulationSpec(m=2, pi=pi, N=N, a=[1, 0]), seed=4)

# random-type model: each new infective draws its type afresh
random_type, allocation = ef.ball_clancy95_model(
    [ef.ScalarDist.constant(1.0), ef.ScalarDist.exponential(3.0)], pi=np.array([0.6, 0.4]))
pi = np.array([0.6, 0.4])
describe("random-type model", random_type, pi,
         ef.PopulationSpec(m=2, pi=pi, N=N, a=[1, 0], allocation=allocation), seed=5)

from pathlib import Path

import numpy as np
import pytest

import epifrost as ef
from epifrost.branching import OffspringLaw
from epifrost.config import load_config

from scipy.optimize import root

from oracles import Q_MU2, scalar_extinction_poisson, scalar_tau_near_critical


def _constant_law(scaled, pi):
    return ef.offspring_law_from_kernel(ef.constant_kernel(scaled), np.asarray(pi))


def test_sample_offspring_zero_law():
    law = _constant_law([[0.0]], [1.0])
    rng = np.random.default_rng(0)
    assert all(ef.sample_offspring(law, 0, rng)[0] == 0 for _ in range(100))


def test_sample_offspring_poisson_zero_probability():
    # constant U = 0.5, pi = 1: no offspring with probability e^{-0.5}
    law = _constant_law([[0.5]], [1.0])
    rng = np.random.default_rng(1)
    draws = np.array([ef.sample_offspring(law, 0, rng)[0] for _ in range(40_000)])
    p0 = (draws == 0).mean()
    se = np.sqrt(p0 * (1 - p0) / len(draws))
    assert abs(p0 - np.exp(-0.5)) < 4 * se


def test_sample_offspring_zero_rate_component():
    law = _constant_law([[2.0, 0.0], [0.0, 0.0]], [0.5, 0.5])
    rng = np.random.default_rng(2)
    draws = np.stack([ef.sample_offspring(law, 0, rng) for _ in range(2000)])
    assert np.all(draws[:, 1] == 0)
    assert abs(draws[:, 0].mean() - 1.0) < 0.1  # Poisson(0.5 * 2)


def test_total_progeny_zero_law():
    law = _constant_law([[0.0]], [1.0])
    result = ef.simulate_total_progeny(law, np.array([1]), cap=100,
                                       rng=np.random.default_rng(0))
    assert not result.exceeded
    assert result.total == 0


def test_total_progeny_exceeded_probability():
    # supercritical Poisson(2): escape probability 1 - q with q = exp(2(q-1))
    law = _constant_law([[2.0]], [1.0])
    runs = 10_000
    exceeded = 0
    for r in range(runs):
        out = ef.simulate_total_progeny(law, np.array([1]), cap=10_000,
                                        rng=ef.replicate_rng(77, r))
        exceeded += out.exceeded
    assert abs(exceeded / runs - (1 - Q_MU2)) < 0.02


def test_total_progeny_subcritical_mean():
    # E[Z] = m/(1-m) = 1 for offspring mean 0.5
    law = _constant_law([[0.5]], [1.0])
    totals = [ef.simulate_total_progeny(law, np.array([1]), cap=100_000,
                                        rng=ef.replicate_rng(8, r)).total
              for r in range(40_000)]
    totals = np.array(totals, dtype=float)
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean() - 1.0) < 4 * se


def test_extinction_subcritical_is_one():
    for scaled in ([[0.5]], [[1.0]]):
        sol = ef.extinction_probability(_constant_law(scaled, [1.0]))
        assert np.all(sol.q == 1.0)
        assert sol.iterations == 0


def test_extinction_scalar_poisson2():
    sol = ef.extinction_probability(_constant_law([[2.0]], [1.0]))
    assert scalar_extinction_poisson(2.0) == pytest.approx(Q_MU2, abs=1e-12)
    assert sol.q[0] == pytest.approx(Q_MU2, abs=1e-10)
    assert sol.residual <= 1e-12
    assert sol.mc_samples == 0  # closed form


def test_extinction_exponential_mixture_closed_form():
    # U ~ Exp(mean 2): h(s) = 1/(1 + 2(1-s)), so q solves 2q^2 - 3q + 1 = 0
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    law = ef.offspring_law_from_kernel(kernel, np.array([1.0]))
    assert law.pgf is not None
    assert law.pgf(0, np.array([0.25])) == pytest.approx(1 / (3 - 2 * 0.25), abs=1e-12)
    sol = ef.extinction_probability(law)
    assert sol.q[0] == pytest.approx(0.5, abs=1e-10)


def test_extinction_monte_carlo_path():
    # the same exponential law forced through the frozen-sample route
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    law = OffspringLaw(m=1, pi=np.array([1.0]), u_sampler=kernel.u_sampler,
                       mu=kernel.mu, pgf=None)
    sol = ef.extinction_probability(law, mc_samples=200_000,
                                    rng=np.random.default_rng(4))
    assert sol.mc_samples == 200_000
    assert sol.q[0] == pytest.approx(0.5, abs=0.01)
    assert sol.residual <= 1e-12


def test_pgf_normalization_at_one():
    pi = np.array([0.3, 0.7])
    kernels = [
        ef.constant_kernel([[1.0, 2.0], [0.5, 0.0]]),
        ef.static_bernoulli_kernel(ef.StaticGraphSpec(
            alpha=np.array([[3.0, 1.0], [1.0, 2.0]]), w=ef.ScalarDist.bernoulli(0.4))),
        ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
            theta=[1.0, 2.0], pi=[0.3, 0.7], w=ef.ScalarDist.uniform(0.0, 1.0)))[0],
    ]
    ones = np.ones(2)
    for kernel in kernels:
        law = ef.offspring_law_from_kernel(kernel, pi)
        for k in range(2):
            assert law.pgf(k, ones) == pytest.approx(1.0, abs=1e-12)
    # Monte Carlo route: h(1) is an average of exp(0) = 1 exactly
    scalar_kernel = ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))])
    mc_law = OffspringLaw(m=1, pi=np.array([1.0]), u_sampler=scalar_kernel.u_sampler,
                          mu=scalar_kernel.mu, pgf=None)
    frozen = mc_law.sample_u(0, np.random.default_rng(0), size=100)
    assert np.mean(np.exp(frozen @ np.zeros(1))) == 1.0


def test_offspring_mean_matches_threshold_matrix():
    # ties the branching law to R: sampled offspring means match mu * diag(pi)
    kernel = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
        theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.uniform(0.0, 1.0)))[0]
    pi = np.array([0.5, 0.5])
    law = ef.offspring_law_from_kernel(kernel, pi)
    rng = np.random.default_rng(12)
    n = 100_000
    for k in range(2):
        counts = rng.poisson(law.sample_u(k, rng, size=n) * pi[None, :])
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - law.offspring_mean_matrix[k]) <= 4 * se)


def test_major_outbreak_probability_examples():
    one = ef.ExtinctionSolution(q=np.array([1.0]), iterations=0, residual=0.0, mc_samples=0)
    assert ef.major_outbreak_probability(one, np.array([5])) == 0.0
    sol = ef.ExtinctionSolution(q=np.array([0.2032]), iterations=1, residual=0.0, mc_samples=0)
    assert ef.major_outbreak_probability(sol, np.array([2])) == pytest.approx(1 - 0.2032 ** 2)
    two = ef.ExtinctionSolution(q=np.array([0.5, 1.0]), iterations=1, residual=0.0, mc_samples=0)
    assert ef.major_outbreak_probability(two, np.array([1, 5])) == pytest.approx(0.5)


def test_extinction_solution_carries_major_prob():
    sol = ef.extinction_probability(_constant_law([[2.0]], [1.0]), a=np.array([2]))
    assert sol.major_outbreak_prob == pytest.approx(1 - Q_MU2 ** 2, abs=1e-9)


def test_major_fraction_consistent_with_extinction(const_mu2_ensemble):
    # simulated major-outbreak fraction vs 1 - q, within 3 binomial SEs
    spec, kernel, ensemble = const_mu2_ensemble
    law = ef.offspring_law_from_kernel(kernel, spec.pi)
    p_theory = ef.extinction_probability(law, a=spec.a).major_outbreak_prob
    frac = np.mean(ensemble.major)
    se = np.sqrt(p_theory * (1 - p_theory) / len(ensemble))
    assert abs(frac - p_theory) <= 3 * se


def test_extinction_iteration_budget_error():
    from epifrost.errors import ConvergenceError

    with pytest.raises(ConvergenceError) as exc_info:
        ef.extinction_probability(_constant_law([[2.0]], [1.0]), max_iter=2)
    assert exc_info.value.last_iterate.shape == (1,)
    assert exc_info.value.residual > 0


@pytest.mark.parametrize("excess", [1e-2, 1e-4, 1e-6])
def test_extinction_near_critical_scalar(excess):
    sol = ef.extinction_probability(_constant_law([[1.0 + excess]], [1.0]))
    # 1 - q solves the attack-rate equation for a constant kernel
    ref = 1.0 - scalar_tau_near_critical(1.0 + excess)
    assert sol.iterations <= 50
    assert abs(sol.q[0] - ref) <= sol.error_bound
    assert sol.error_bound <= 1e-2 * (1.0 - ref)


def test_extinction_inside_critical_band_matches_solve_tau():
    # R = 1 + 5e-10 lies inside the band solve_tau labels critical (tau = 0),
    # so the extinction solver must agree: q = 1, no major outbreaks
    mu = np.array([[1.0 + 5e-10]])
    assert ef.solve_tau(mu, np.array([1.0]), np.zeros(1)).tau[0] == 0.0
    sol = ef.extinction_probability(_constant_law(mu, [1.0]), a=np.array([1]))
    assert sol.q[0] == 1.0
    assert sol.major_outbreak_prob == 0.0
    assert sol.iterations == 0


def test_extinction_error_bound_is_a_plain_float():
    assert type(ef.extinction_probability(_constant_law([[2.0]], [1.0])).error_bound) is float


def test_extinction_near_critical_two_type():
    base = np.array([[1.0, 2.0], [0.5, 1.5]])
    pi = np.array([0.4, 0.6])
    mu = base * (1.0 + 1e-5) / ef.compute_R(base, pi)
    sol = ef.extinction_probability(_constant_law(mu, pi))
    assert sol.iterations <= 50
    # Poisson offspring: y = 1 - q solves y = 1 - exp(-(mu * pi) @ y), which
    # expm1 evaluates without the cancellation of h(q) near q = 1
    rate = mu * pi[None, :]
    y = root(lambda y: y + np.expm1(-rate @ np.abs(y)), np.ones(2), tol=1e-15).x
    assert np.all(y > 0)
    assert np.max(np.abs(sol.q - (1.0 - y))) <= sol.error_bound
    assert sol.error_bound <= 1e-2 * np.min(y)


def test_extinction_monte_carlo_newton_matches_plain_iteration():
    kernel = ef.static_bernoulli_kernel(ef.StaticGraphSpec(
        alpha=np.array([[8.0, 3.0], [3.0, 6.0]]), w=ef.ScalarDist.beta(2.0, 3.0)))
    pi = np.array([0.3, 0.7])
    law = OffspringLaw(m=2, pi=pi, u_sampler=kernel.u_sampler, mu=kernel.mu, pgf=None)
    sol = ef.extinction_probability(law, mc_samples=20_000, rng=np.random.default_rng(9))
    assert np.all(sol.q < 1.0)

    # plain monotone iteration from 0 on the same frozen draws
    rng = np.random.default_rng(9)
    frozen = [law.sample_u(k, rng, size=20_000) for k in range(2)]
    q = np.zeros(2)
    for _ in range(100_000):
        nxt = np.array([np.mean(np.exp(u @ ((q - 1.0) * pi))) for u in frozen])
        done = np.max(np.abs(nxt - q)) <= 1e-15
        q = nxt
        if done:
            break
    assert np.max(np.abs(sol.q - q)) <= 1e-12
    assert np.max(np.abs(sol.q - q)) <= sol.error_bound
    assert sol.iterations < 20


def test_extinction_accepts_newton_steps_within_rounding_of_the_root():
    # on this config F(c) - c at the Newton candidate is rounding noise of
    # either sign; refusing it left linear Picard steps (15 in all)
    configs = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    config = load_config(configs / "theory_mixed_bernoulli.json")
    law = ef.offspring_law_from_kernel(config.kernel, config.population.pi)
    sol = ef.extinction_probability(law)
    assert sol.iterations <= 8
    # q of the strict-sign rule, to the last digit
    assert np.max(np.abs(sol.q - [0.8071238194374796, 0.5958197474862392])) <= sol.error_bound
    assert 0.0 <= sol.residual <= 1e-15

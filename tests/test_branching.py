import json
from pathlib import Path

import numpy as np
import pytest

import epifrost as ef
from epifrost.config import load_config
from epifrost.graphs import _dynamic_scaled_u

from scipy import integrate, stats
from scipy.stats import chisquare, poisson
from scipy.optimize import root

from oracles import (Q_MU2, minimal_root, scalar_extinction_poisson, scalar_tau_near_critical,
                     total_progeny_pmf)


def test_total_progeny_zero_law():
    kernel = ef.constant_kernel([[0.0]])
    result = ef.simulate_total_progeny(kernel, [1.0], np.array([1]), cap=100,
                                       rng=np.random.default_rng(0))
    assert not result.exceeded
    assert result.total == 0


def test_total_progeny_zero_law_repeated_draws():
    # no ancestor has a child: 100 independent lines, and one line of 100 ancestors
    kernel = ef.constant_kernel([[0.0]])
    rng = np.random.default_rng(0)
    counts, exceeded = ef.simulate_progeny_lines(kernel, [1.0], np.array([1]), 1, 100, rng)
    assert not exceeded.any() and not counts.any()
    result = ef.simulate_total_progeny(kernel, [1.0], np.array([100]), cap=100, rng=rng)
    assert not result.exceeded
    assert result.total == 0


def test_branching_rejects_pi_and_a_of_the_wrong_shape():
    # a two-type kernel takes pi and a of shape (2,), with a nonnegative
    kernel = ef.constant_kernel([[1.5, 0.5], [0.5, 1.5]])
    rng = np.random.default_rng(0)
    for pi, a in (([1.0], [1, 0]), ([0.5, 0.5], [1]), ([0.5, 0.5], [1, -1]), ([0.5, 0.5], [[1, 0]])):
        with pytest.raises(ValueError, match="shape"):
            ef.simulate_progeny_lines(kernel, pi, np.array(a), 10, 5, rng)
        with pytest.raises(ValueError, match="shape"):
            ef.extinction_probability(kernel, pi, a=np.array(a))
    with pytest.raises(ValueError, match="shape"):
        ef.extinction_probability(kernel, [1.0])


def test_total_progeny_poisson_zero_probability():
    # constant U = 0.5, pi = 1: no offspring with probability e^{-0.5}
    kernel = ef.constant_kernel([[0.5]])
    counts, _ = ef.simulate_progeny_lines(kernel, [1.0], np.array([1]), 1, 40_000,
                                          np.random.default_rng(1))
    draws = counts.sum(axis=1)
    p0 = (draws == 0).mean()
    se = np.sqrt(p0 * (1 - p0) / len(draws))
    assert abs(p0 - np.exp(-0.5)) < 4 * se


def test_total_progeny_zero_rate_component():
    # a type-0 line has Poisson(0.5 * 1) type-0 children and never a type-1 child
    kernel = ef.constant_kernel([[1.0, 0.0], [0.0, 0.0]])
    counts, exceeded = ef.simulate_progeny_lines(kernel, [0.5, 0.5], np.array([1, 0]), 10_000,
                                                 2000, np.random.default_rng(2))
    assert not exceeded.any()
    assert np.all(counts[:, 1] == 0)
    assert abs(counts[:, 0].mean() - 1.0) < 4 * counts[:, 0].std(ddof=1) / np.sqrt(len(counts))


def test_total_progeny_exceeded_probability():
    # supercritical Poisson(2): escape probability 1 - q with q = exp(2(q-1))
    kernel = ef.constant_kernel([[2.0]])
    _, exceeded = ef.simulate_progeny_lines(kernel, [1.0], np.array([1]), 10_000, 10_000,
                                            ef.replicate_rng(77, 0))
    assert abs(exceeded.mean() - (1 - Q_MU2)) < 0.02


def test_total_progeny_subcritical_mean():
    # E[Z] = m/(1-m) = 1 for offspring mean 0.5
    kernel = ef.constant_kernel([[0.5]])
    counts, _ = ef.simulate_progeny_lines(kernel, [1.0], np.array([1]), 100_000, 40_000,
                                          ef.replicate_rng(8, 0))
    totals = counts.sum(axis=1).astype(float)
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean() - 1.0) < 4 * se


UPTO = 10
# (kernel, offspring pmf on 0..UPTO): Poisson(1.5), a two-atom U (the
# segment-sum path) with the same mean, a mixed Poisson, and U ~ Exp(mean 1.5)
# (the summed-U path), whose Poisson(U) offspring are geometric with p = 1/2.5
DWASS_CASES = {
    "constant": (ef.constant_kernel([[1.5]]), poisson.pmf(np.arange(UPTO + 1), 1.5)),
    "two_atom": (ef.table_kernel([(np.array([[0.5], [2.5]]), np.array([0.5, 0.5]))]),
                 0.5 * poisson.pmf(np.arange(UPTO + 1), 0.5)
                 + 0.5 * poisson.pmf(np.arange(UPTO + 1), 2.5)),
    "gse": (ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[1.5]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]])),
        stats.geom.pmf(np.arange(UPTO + 1), 1 / 2.5, loc=-1)),
}


def _chi_square_against_dwass(totals, exceeded, offspring_pmf):
    # bins 0..UPTO plus one for every line whose births passed the cap (UPTO)
    assert np.all(exceeded == (totals > UPTO))
    observed = np.bincount(np.minimum(totals, UPTO + 1), minlength=UPTO + 2)
    pmf = total_progeny_pmf(offspring_pmf, UPTO)
    expected = len(totals) * np.append(pmf, 1.0 - pmf.sum())
    return chisquare(observed, expected).pvalue


@pytest.mark.parametrize("case", sorted(DWASS_CASES))
def test_progeny_lines_match_dwass_pmf(case):
    kernel, offspring_pmf = DWASS_CASES[case]
    counts, exceeded = ef.simulate_progeny_lines(kernel, [1.0], np.array([1]), UPTO, 100_000,
                                                 np.random.default_rng(31))
    assert counts.shape == (100_000, 1)
    assert _chi_square_against_dwass(counts[:, 0], exceeded, offspring_pmf) > 1e-3


def test_single_line_view_matches_dwass_pmf():
    kernel, offspring_pmf = DWASS_CASES["constant"]
    rng = np.random.default_rng(32)
    runs = [ef.simulate_total_progeny(kernel, [1.0], np.array([1]), UPTO, rng)
            for _ in range(20_000)]
    totals = np.array([run.total for run in runs])
    exceeded = np.array([run.exceeded for run in runs])
    assert _chi_square_against_dwass(totals, exceeded, offspring_pmf) > 1e-3


def test_multitype_mean_progeny_matches_next_generation_matrix():
    # subcritical two-type U: E[births] = a (I - M)^-1 - a with M[k, j] = mu[k, j] pi_j,
    # for the batched lines and the one-line view, with two atoms per row (the
    # per-draw path) and for a mover with exponential sojourns (the summed-U path)
    table = ef.table_kernel([
        (np.array([[0.2, 0.9], [1.0, 0.1]]), np.array([0.5, 0.5])),
        (np.array([[0.0, 1.2], [0.8, 0.0]]), np.array([0.5, 0.5])),
    ])
    mover = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[0.6, 0.2], [0.3, 0.5]], [[0.4, 0.1], [0.2, 0.7]]]),
        sojourn=[[ef.ScalarDist.exponential(1.0), ef.ScalarDist.exponential(0.5)],
                 [ef.ScalarDist.exponential(0.5), ef.ScalarDist.exponential(1.2)]]))
    pi = np.array([0.4, 0.6])
    a = np.array([2, 1])
    for kernel in (table, mover):
        M = kernel.mu * pi[None, :]
        expected = a @ np.linalg.inv(np.eye(2) - M) - a
        counts, exceeded = ef.simulate_progeny_lines(kernel, pi, a, 10**6, 40_000,
                                                     np.random.default_rng(33))
        rng = np.random.default_rng(34)
        runs = [ef.simulate_total_progeny(kernel, pi, a, 10**6, rng) for _ in range(5_000)]
        single = np.stack([run.counts for run in runs])
        assert not exceeded.any() and not any(run.exceeded for run in runs)
        for sample in (counts, single):
            se = sample.std(axis=0, ddof=1) / np.sqrt(len(sample))
            assert np.all(np.abs(sample.mean(axis=0) - expected) <= 4 * se)


def test_extinction_subcritical_is_one():
    for scaled in ([[0.5]], [[1.0]]):
        sol = ef.extinction_probability(ef.constant_kernel(scaled), [1.0])
        assert np.all(sol.q == 1.0)
        assert sol.iterations == 0


def test_extinction_scalar_poisson2():
    sol = ef.extinction_probability(ef.constant_kernel([[2.0]]), [1.0])
    assert scalar_extinction_poisson(2.0) == pytest.approx(Q_MU2, abs=1e-12)
    assert sol.q[0] == pytest.approx(Q_MU2, abs=1e-10)
    assert sol.residual <= 1e-12
    assert sol.mc_samples == 0  # closed form


def test_extinction_exponential_mixture_closed_form():
    # U ~ Exp(mean 2): h(s) = 1/(1 + 2(1-s)), so q solves 2q^2 - 3q + 1 = 0
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    # h(s) = E[exp((s - 1) U)]
    assert kernel.u_mgf(0, np.array([0.25 - 1.0])) == pytest.approx(1 / (3 - 2 * 0.25), abs=1e-12)
    sol = ef.extinction_probability(kernel, np.array([1.0]))
    assert sol.q[0] == pytest.approx(0.5, abs=1e-10)


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
        for k in range(2):
            assert kernel.u_mgf(k, (ones - 1.0) * pi) == pytest.approx(1.0, abs=1e-12)


def test_offspring_mean_matches_threshold_matrix():
    # ties the branching law to R: sampled offspring means match mu * diag(pi)
    kernel = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
        theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.uniform(0.0, 1.0)))[0]
    pi = np.array([0.5, 0.5])
    rng = np.random.default_rng(12)
    n = 100_000
    for k in range(2):
        counts = rng.poisson(kernel.u_sampler(k, rng, n) * pi[None, :])
        mean = counts.mean(axis=0)
        se = counts.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(mean - kernel.mu[k] * pi) <= 4 * se)


def test_major_outbreak_probability_examples():
    one = ef.ExtinctionSolution(q=np.array([1.0]), iterations=0, residual=0.0, mc_samples=0)
    assert ef.major_outbreak_probability(one, np.array([5])) == 0.0
    sol = ef.ExtinctionSolution(q=np.array([0.2032]), iterations=1, residual=0.0, mc_samples=0)
    assert ef.major_outbreak_probability(sol, np.array([2])) == pytest.approx(1 - 0.2032 ** 2)
    two = ef.ExtinctionSolution(q=np.array([0.5, 1.0]), iterations=1, residual=0.0, mc_samples=0)
    assert ef.major_outbreak_probability(two, np.array([1, 5])) == pytest.approx(0.5)


def test_extinction_solution_carries_major_prob():
    sol = ef.extinction_probability(ef.constant_kernel([[2.0]]), [1.0], a=np.array([2]))
    assert sol.major_outbreak_prob == pytest.approx(1 - Q_MU2 ** 2, abs=1e-9)


def test_major_fraction_consistent_with_extinction(const_mu2_ensemble):
    # simulated major-outbreak fraction vs 1 - q, within 3 binomial SEs
    spec, kernel, ensemble = const_mu2_ensemble
    p_theory = ef.extinction_probability(kernel, spec.pi, a=spec.a).major_outbreak_prob
    frac = np.mean(ensemble.major)
    se = np.sqrt(p_theory * (1 - p_theory) / len(ensemble))
    assert abs(frac - p_theory) <= 3 * se


def test_extinction_iteration_budget_error():
    from epifrost.errors import ConvergenceError

    with pytest.raises(ConvergenceError) as exc_info:
        ef.extinction_probability(ef.constant_kernel([[2.0]]), [1.0], max_iter=2)
    assert exc_info.value.last_iterate.shape == (1,)
    assert exc_info.value.residual > 0


@pytest.mark.parametrize("excess", [1e-2, 1e-4, 1e-6])
def test_extinction_near_critical_scalar(excess):
    sol = ef.extinction_probability(ef.constant_kernel([[1.0 + excess]]), [1.0])
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
    sol = ef.extinction_probability(ef.constant_kernel(mu), [1.0], a=np.array([1]))
    assert sol.q[0] == 1.0
    assert sol.major_outbreak_prob == 0.0
    assert sol.iterations == 0


def test_extinction_error_bound_is_a_plain_float():
    assert type(ef.extinction_probability(ef.constant_kernel([[2.0]]), [1.0]).error_bound) is float


def test_extinction_near_critical_two_type():
    base = np.array([[1.0, 2.0], [0.5, 1.5]])
    pi = np.array([0.4, 0.6])
    mu = base * (1.0 + 1e-5) / ef.compute_R(base, pi)
    sol = ef.extinction_probability(ef.constant_kernel(mu), pi)
    assert sol.iterations <= 50
    # Poisson offspring: y = 1 - q solves y = 1 - exp(-(mu * pi) @ y), which
    # expm1 evaluates without the cancellation of h(q) near q = 1
    rate = mu * pi[None, :]
    y = root(lambda y: y + np.expm1(-rate @ np.abs(y)), np.ones(2), tol=1e-15).x
    assert np.all(y > 0)
    assert np.max(np.abs(sol.q - (1.0 - y))) <= sol.error_bound
    assert sol.error_bound <= 1e-2 * np.min(y)


def test_extinction_accepts_newton_steps_within_rounding_of_the_root():
    # on this config F(c) - c at the Newton candidate is rounding noise of
    # either sign; refusing it left linear Picard steps (15 in all)
    configs = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
    config = load_config(configs / "theory_mixed_bernoulli.json")
    sol = ef.extinction_probability(config.kernel, config.population.pi)
    assert sol.iterations <= 8
    # q of the strict-sign rule, to the last digit
    assert np.max(np.abs(sol.q - [0.8071238194374796, 0.5958197474862392])) <= sol.error_bound
    assert 0.0 <= sol.residual <= 1e-15


def test_dynamic_graph_extinction_is_exact():
    # the benchmark's dynamic-graph config, exponential lifetimes: h by the
    # lifetimes' tanh-sinh rule against an independent root of h by quad
    path = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "theory_dynamic_graph.json"
    config = load_config(path)
    pi = config.population.pi
    sol = ef.extinction_probability(config.kernel, pi)
    assert sol.mc_samples == 0
    assert sol.residual <= 1e-12

    doc = json.loads(path.read_text())["kernel"]
    spec = ef.DynamicGraphSpec(rho_plus=doc["rho_plus"], rho_minus=doc["rho_minus"],
                               beta=doc["beta"], q=[ef.ScalarDist.from_config(q) for q in doc["q"]])
    lifetimes = [stats.expon(scale=q["mean"]) for q in doc["q"]]

    def h(s):
        theta = (s - 1.0) * pi
        return np.array([integrate.quad(
            lambda x: np.exp(_dynamic_scaled_u(spec, i, np.array([x]))[0] @ theta)
            * lifetimes[i].pdf(x), 0.0, np.inf, epsabs=0.0, epsrel=1e-13, limit=200)[0]
            for i in range(2)])

    assert np.max(np.abs(sol.q - minimal_root(h, 2))) <= sol.error_bound

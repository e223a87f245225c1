import numpy as np
import pytest

import epifrost as ef

from oracles import MU_DYN_UNIT, dense_spectral_radius, dynamic_edge_mean_mc


# ---------------------------------------------------------------------------
# Static Bernoulli graph
# ---------------------------------------------------------------------------


def test_static_degenerate_w_is_homogeneous_reed_frost():
    spec = ef.StaticGraphSpec(alpha=np.full((2, 2), 1.5), w=ef.ScalarDist.constant(1.0))
    kernel = ef.static_bernoulli_kernel(spec)
    assert np.all(kernel.mu == 1.5)
    assert np.all(kernel.lam == 0.0)
    assert kernel.deterministic


def test_static_zero_w_is_zero_kernel():
    spec = ef.StaticGraphSpec(alpha=np.full((2, 2), 1.5), w=ef.ScalarDist.constant(0.0))
    kernel = ef.static_bernoulli_kernel(spec)
    assert np.all(kernel.mu == 0.0)
    assert np.all(kernel.sample(0, 100, np.random.default_rng(0)) == 0.0)


def test_static_bernoulli_w_moments():
    # alpha = 3, W ~ Bernoulli(1/2): mu = 1.5, lambda = 9 * 1/4 = 2.25
    spec = ef.StaticGraphSpec(alpha=np.array([[3.0]]), w=ef.ScalarDist.bernoulli(0.5))
    kernel = ef.static_bernoulli_kernel(spec)
    assert kernel.mu[0, 0] == pytest.approx(1.5)
    assert kernel.lam[0, 0, 0] == pytest.approx(2.25)


def test_static_shared_vs_independent_w():
    alpha = np.array([[2.0, 1.0], [1.0, 3.0]])
    w = ef.ScalarDist.bernoulli(0.3)
    indep = ef.static_bernoulli_kernel(ef.StaticGraphSpec(alpha=alpha, w=w))
    shared = ef.static_bernoulli_kernel(ef.StaticGraphSpec(alpha=alpha, w=w, w_mode="shared"))
    assert np.allclose(np.diagonal(indep.lam, axis1=1, axis2=2),
                       np.diagonal(shared.lam, axis1=1, axis2=2))
    assert indep.lam[0, 0, 1] == 0.0
    assert shared.lam[0, 0, 1] == pytest.approx(alpha[0, 0] * alpha[0, 1] * w.var)


def test_static_rejects_bad_alpha():
    with pytest.raises(ValueError):
        ef.StaticGraphSpec(alpha=np.array([[1.0, 2.0], [0.5, 1.0]]),
                           w=ef.ScalarDist.constant(1.0))  # asymmetric
    with pytest.raises(ValueError):
        ef.StaticGraphSpec(alpha=np.diag([1.0, 1.0]), w=ef.ScalarDist.constant(1.0))  # reducible


# ---------------------------------------------------------------------------
# Mixed Bernoulli graph
# ---------------------------------------------------------------------------


def test_mixed_bernoulli_moments_and_threshold():
    spec = ef.MixedGraphSpec(theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.constant(1.0))
    kernel, allocation = ef.mixed_bernoulli_kernel(spec)
    assert allocation is ef.Allocation.RANDOM_MULTINOMIAL
    assert np.allclose(kernel.mu, [[1.0, 2.0], [2.0, 4.0]])
    assert ef.compute_R(kernel.mu, np.array([0.5, 0.5])) == pytest.approx(2.5, abs=1e-9)


def test_mixed_bernoulli_zero_w_goes_extinct():
    kernel, _ = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
        theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.constant(0.0)))
    law = ef.offspring_law_from_kernel(kernel, np.array([0.5, 0.5]))
    assert np.all(ef.extinction_probability(law).q == 1.0)


def test_mixed_bernoulli_threshold_identity_randomized():
    # R = E[D^2] E[W] for the mixed graph, cross-checked against dense eigenvalues
    rng = np.random.default_rng(13)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        theta = rng.uniform(0.1, 3.0, size=m)
        pi = rng.dirichlet(np.ones(m))
        w_mean = rng.uniform(0.05, 1.0)
        kernel, _ = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
            theta=theta, pi=pi, w=ef.ScalarDist.bernoulli(w_mean)))
        want = float((pi * theta ** 2).sum() * w_mean)
        assert ef.compute_R(kernel.mu, pi) == pytest.approx(want, abs=1e-9)
        assert dense_spectral_radius(kernel.mu * pi[None, :]) == pytest.approx(want, abs=1e-9)


def test_mixed_bernoulli_fictitious_split_collapses():
    # theta = (1, 1) splits identical individuals into two labels; the total
    # final-size variance must match the single-type model in both
    # allocation modes (the correction lives off the total direction)
    w = ef.ScalarDist.bernoulli(0.4)
    pi = np.array([0.5, 0.5])
    # theta = (2, 2) keeps the collapsed model supercritical: mu = 4 E[W] = 1.6
    kernel2, _ = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(theta=[2.0, 2.0], pi=pi, w=w))
    mu1 = np.array([[4.0 * w.mean]])
    lam1 = np.array([[[16.0 * w.var]]])
    sol1 = ef.solve_tau(mu1, np.ones(1), np.zeros(1))
    var1 = ef.asymptotic_covariance(mu1, lam1, np.ones(1), sol1.tau,
                                    np.zeros(1)).asym_cov[0, 0]
    sol2 = ef.solve_tau(kernel2.mu, pi, np.zeros(2))
    assert np.allclose(sol2.tau, sol1.tau[0], atol=1e-10)
    s = np.sqrt(pi)
    for allocation in (ef.Allocation.DETERMINISTIC, ef.Allocation.RANDOM_MULTINOMIAL):
        cov2 = ef.asymptotic_covariance(kernel2.mu, kernel2.lam, pi, sol2.tau,
                                        np.zeros(2), allocation=allocation).asym_cov
        assert s @ cov2 @ s == pytest.approx(var1, abs=1e-9)


# ---------------------------------------------------------------------------
# Dynamic Bernoulli graph
# ---------------------------------------------------------------------------


def test_dynamic_zero_contact_rate_is_zero_kernel():
    kernel = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
        rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[0.0]],
        q=[ef.ScalarDist.constant(1.0)]))
    assert np.all(kernel.mu == 0.0)
    assert np.all(kernel.sample(0, 100, np.random.default_rng(0)) == 0.0)


def test_dynamic_instant_recovery_is_zero_kernel():
    kernel = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
        rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[1.0]],
        q=[ef.ScalarDist.constant(0.0)]))
    assert np.all(kernel.mu == 0.0)


def test_dynamic_unit_example():
    kernel = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
        rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[1.0]],
        q=[ef.ScalarDist.constant(1.0)]))
    half_ramp = 0.5 * (1 - np.exp(-2.0))
    assert half_ramp == pytest.approx(0.43233235838169365, abs=1e-12)
    assert kernel.mu[0, 0] == pytest.approx(half_ramp + 0.5 * (1 - half_ramp), abs=1e-12)
    assert kernel.mu[0, 0] == pytest.approx(MU_DYN_UNIT, abs=1e-12)
    assert kernel.deterministic


def test_dynamic_rejects_nonpositive_rates():
    with pytest.raises(ValueError):
        ef.DynamicGraphSpec(rho_plus=[[0.0]], rho_minus=[[1.0]], beta=[[1.0]],
                            q=[ef.ScalarDist.constant(1.0)])
    with pytest.raises(ValueError):
        ef.DynamicGraphSpec(rho_plus=[[1.0]], rho_minus=[[-1.0]], beta=[[1.0]],
                            q=[ef.ScalarDist.constant(1.0)])


def test_dynamic_mean_matches_trajectory_oracle():
    # simulate the edge on/off process directly and compare N E[V]
    rng = np.random.default_rng(71)
    cases = [
        (1.0, 1.0, 1.0, ef.ScalarDist.constant(1.0)),
        (0.5, 2.0, 3.0, ef.ScalarDist.exponential(1.0)),
    ]
    for rho_plus, rho_minus, beta, q in cases:
        kernel = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
            rho_plus=[[rho_plus]], rho_minus=[[rho_minus]], beta=[[beta]],
            q=[q], moment_samples=200_000))
        est, se = dynamic_edge_mean_mc(rho_plus, rho_minus, beta,
                                       lambda r: q.sample(r, 1)[0],
                                       N=100_000, samples=100_000, rng=rng)
        tol = 3 * se + (3 * kernel.moment_summary.mu_se[0, 0]
                        if kernel.moment_summary is not None else 0.0)
        assert abs(kernel.mu[0, 0] - est) <= tol + 1e-3


def test_dynamic_estimated_moments_carry_standard_errors():
    kernel = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
        rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[1.0]],
        q=[ef.ScalarDist.exponential(1.0)], moment_samples=20_000))
    assert kernel.moment_summary is not None
    assert kernel.moment_summary.estimated_from_samples
    assert kernel.moment_summary.sample_count == 20_000
    assert np.all(np.isfinite(kernel.moment_summary.mu_se))


# ---------------------------------------------------------------------------
# Mover model
# ---------------------------------------------------------------------------


def test_mover_zero_sojourn_is_zero_kernel():
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.constant(0.0)]]))
    assert np.all(kernel.mu == 0.0)


def test_mover_exponential_sojourn_is_gse():
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    assert kernel.mu[0, 0] == pytest.approx(2.0)
    assert kernel.lam[0, 0, 0] == pytest.approx(4.0)
    law = ef.offspring_law_from_kernel(kernel, np.array([1.0]))
    assert ef.extinction_probability(law).q[0] == pytest.approx(0.5, abs=1e-10)


def test_mover_unit_sojourn_is_constant_kernel():
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.constant(1.0)]]))
    assert kernel.deterministic
    assert kernel.mu[0, 0] == pytest.approx(2.0)
    assert np.all(kernel.lam == 0.0)


def test_mover_multigroup_moments():
    b = np.array([[[2.0, 1.0], [0.5, 1.5]], [[1.0, 0.0], [0.0, 2.0]]])
    sojourn = [[ef.ScalarDist.exponential(1.0), ef.ScalarDist.gamma(2.0, 0.5)],
               [ef.ScalarDist.constant(0.5), ef.ScalarDist.exponential(2.0)]]
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(b=b, sojourn=sojourn))
    means = np.array([[1.0, 1.0], [0.5, 2.0]])
    variances = np.array([[1.0, 0.5], [0.0, 4.0]])
    for i in range(2):
        assert np.allclose(kernel.mu[i], b[i] @ means[i])
        assert np.allclose(kernel.lam[i], b[i] @ np.diag(variances[i]) @ b[i].T)


def test_mover_joint_sampler_estimates_moments():
    # perfectly correlated sojourns through a shared total time
    def joint(i, rng, n):
        total = rng.exponential(1.0, n)
        return np.stack([0.7 * total, 0.3 * total], axis=1)

    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([np.eye(2), np.eye(2)]), i_sampler=joint, moment_samples=50_000))
    assert kernel.moment_summary is not None
    assert abs(kernel.mu[0, 0] - 0.7) <= 4 * kernel.moment_summary.mu_se[0, 0]
    # cross covariance 0.7 * 0.3 * var(total) = 0.21
    assert abs(kernel.lam[0, 0, 1] - 0.21) <= 4 * kernel.moment_summary.lam_se[0, 0, 1]


# ---------------------------------------------------------------------------
# Random-type model
# ---------------------------------------------------------------------------


def test_random_type_single_type_reduces_to_base():
    base = ef.ScalarDist.exponential(2.0)
    kernel, allocation = ef.ball_clancy95_model([base], pi=np.array([1.0]))
    assert allocation is ef.Allocation.RANDOM_MULTINOMIAL
    assert kernel.mu[0, 0] == pytest.approx(2.0)
    assert kernel.lam[0, 0, 0] == pytest.approx(4.0)
    law = ef.offspring_law_from_kernel(kernel, np.array([1.0]))
    assert ef.extinction_probability(law).q[0] == pytest.approx(0.5, abs=1e-10)


def test_random_type_identical_types_collapse():
    # two identical labels with random allocation: the total final size has
    # the same law as the single-type model
    base = ef.ScalarDist.constant(2.0)
    kernel2, allocation = ef.ball_clancy95_model([base, base], pi=np.array([0.5, 0.5]))
    spec2 = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=2000, a=[1, 0], allocation=allocation)
    ens2 = ef.run_ensemble(spec2, kernel2, 4000, seed=91)

    kernel1, _ = ef.ball_clancy95_model([base], pi=np.array([1.0]))
    spec1 = ef.PopulationSpec(m=1, pi=[1.0], N=2000, a=[1])
    ens1 = ef.run_ensemble(spec1, kernel1, 4000, seed=92)

    frac2 = np.mean(ens2.major)
    frac1 = np.mean(ens1.major)
    se = np.sqrt(frac1 * (1 - frac1) / 4000)
    assert abs(frac2 - frac1) < 4 * np.sqrt(2) * se

    major2 = ens2.total[ens2.major]
    major1 = ens1.total[ens1.major]
    pooled_se = np.sqrt(major1.var() / len(major1) + major2.var() / len(major2))
    assert abs(major1.mean() - major2.mean()) < 4 * pooled_se


def test_random_type_rejects_degenerate_pi():
    with pytest.raises(ValueError):
        ef.ball_clancy95_model([ef.ScalarDist.constant(1.0), ef.ScalarDist.constant(1.0)],
                               pi=np.array([1.0, 0.0]))

import math

import numpy as np
import pytest
from scipy import integrate, stats

import epifrost as ef
from epifrost.graphs import _dynamic_scaled_u
from epifrost.harness import to_jsonable

from oracles import (MU_DYN_UNIT, beta_mgf_by_quadrature, dense_spectral_radius,
                     dynamic_edge_mean_mc, minimal_root)


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


@pytest.mark.parametrize("w", [ef.ScalarDist.bernoulli(1.0), ef.ScalarDist.bernoulli(0.0),
                               ef.ScalarDist.discrete([0.4], [1.0])])
def test_static_degenerate_w_draws_nothing(w):
    # V is almost surely constant, so sampling it leaves the stream untouched
    kernel = ef.static_bernoulli_kernel(ef.StaticGraphSpec(alpha=np.full((2, 2), 1.5), w=w))
    rng = np.random.Generator(np.random.Philox(7))
    before = to_jsonable(rng.bit_generator.state)
    assert np.all(kernel.sample(0, 100, rng) == 1.5 * w.mean / 100)
    assert np.all(kernel.sample(1, 100, rng, size=5) == 1.5 * w.mean / 100)
    assert to_jsonable(rng.bit_generator.state) == before


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
    assert np.all(ef.extinction_probability(kernel, np.array([0.5, 0.5])).q == 1.0)


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


@pytest.mark.parametrize("graph", ["static", "mixed"])
def test_beta_graph_extinction_is_closed_form(graph):
    # the benchmark's Beta-law graph configs: the Kummer-function pgf's root
    # against an independent root of h built by quadrature over the Beta law
    if graph == "static":
        pi, alpha = np.array([0.5, 0.5]), np.array([[6.0, 2.0], [2.0, 4.5]])
        kernel = ef.static_bernoulli_kernel(ef.StaticGraphSpec(
            alpha=alpha, w=ef.ScalarDist.beta(2.0, 3.0)))

        def h(s):
            return np.array([np.prod([beta_mgf_by_quadrature(2.0, 3.0, (s[j] - 1.0) * pi[j] * alpha[i, j])
                                      for j in range(2)]) for i in range(2)])
    else:
        pi, theta = np.array([0.7, 0.3]), np.array([1.0, 2.5])
        kernel, _ = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
            theta=theta, pi=pi, w=ef.ScalarDist.beta(2.0, 2.0)))

        def h(s):
            return np.array([beta_mgf_by_quadrature(2.0, 2.0, theta[i] * (((s - 1.0) * pi) @ theta))
                             for i in range(2)])
    exact = ef.extinction_probability(kernel, pi)
    assert exact.mc_samples == 0
    assert np.all(exact.q < 1.0) and exact.residual <= 1e-12
    assert np.max(np.abs(exact.q - minimal_root(h, 2))) <= exact.error_bound


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
            q=[q]))
        est, se = dynamic_edge_mean_mc(rho_plus, rho_minus, beta,
                                       lambda r: q.sample(r, 1)[0],
                                       N=100_000, samples=100_000, rng=rng)
        assert abs(kernel.mu[0, 0] - est) <= 3 * se + 1e-3  # mu is exact: no SE of its own


def test_dynamic_moments_are_exact():
    # unit rates, Q ~ Exp(1): d = 2, c = g = 1/2 and M(t) = 1/(1 - t), so
    # mu = (1 + (1 - 1/3)/2)/2 = 2/3 and lam = (1 + 2/9 + (1/5 - 1/9)/4)/4 = 14/45
    kernel = ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
        rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[1.0]],
        q=[ef.ScalarDist.exponential(1.0)]))
    assert kernel.mu[0, 0] == pytest.approx(2 / 3, rel=1e-15)
    assert kernel.lam[0, 0, 0] == pytest.approx(14 / 45, rel=1e-15)
    assert not kernel.deterministic


# theta at which the generating function E[exp(theta . U_i)] is compared
DYNAMIC_THETAS = np.array([[-0.3, -0.6], [-1.0, -0.1], [-2.5, -2.5]])


def _dynamic_reference(spec, i, lifetime):
    """E[U_i], cov(U_i) and E[exp(theta . U_i)] at DYNAMIC_THETAS by
    quadrature (or a sum over atoms) over the lifetime."""
    def u(q):
        return _dynamic_scaled_u(spec, i, np.array([q]))[0]

    if isinstance(lifetime, tuple):  # (values, probs) of a discrete law
        values, probs = lifetime
        rows = np.stack([u(q) for q in values])
        mean = probs @ rows
        return (mean, (rows - mean).T @ ((rows - mean) * probs[:, None]),
                np.exp(DYNAMIC_THETAS @ rows.T) @ probs)

    def expect(f):
        lo, hi = lifetime.support()
        # split at the mean so the fast-decaying start is resolved on its own
        parts = [(lo, lifetime.mean()), (lifetime.mean(), hi)]
        return sum(integrate.quad(lambda q: f(q) * lifetime.pdf(q), a, b, epsabs=1e-15,
                                  epsrel=1e-13, limit=200)[0] for a, b in parts)

    m = spec.rho_plus.shape[0]
    mean = np.array([expect(lambda q, j=j: u(q)[j]) for j in range(m)])
    cov = np.array([[expect(lambda q, j=j, k=k: (u(q)[j] - mean[j]) * (u(q)[k] - mean[k]))
                     for k in range(m)] for j in range(m)])
    return mean, cov, np.array([expect(lambda q, t=t: math.exp(u(q) @ t)) for t in DYNAMIC_THETAS])


DYNAMIC_RATES = dict(rho_plus=[[1.5, 0.8], [0.8, 2.0]], rho_minus=[[1.0, 0.5], [0.5, 2.0]],
                     beta=[[1.5, 1.0], [1.0, 3.0]])


@pytest.mark.parametrize("law, lifetime, rates", [
    (ef.ScalarDist.exponential(1.0), stats.expon(scale=1.0), DYNAMIC_RATES),
    (ef.ScalarDist.gamma(2.5, 0.6), stats.gamma(2.5, scale=0.6), DYNAMIC_RATES),
    (ef.ScalarDist.uniform(0.2, 2.0), stats.uniform(0.2, 1.8), DYNAMIC_RATES),
    (ef.ScalarDist.beta(2.0, 3.0), stats.beta(2.0, 3.0), DYNAMIC_RATES),
    (ef.ScalarDist.discrete([0.5, 1.0, 3.0], [0.2, 0.5, 0.3]),
     (np.array([0.5, 1.0, 3.0]), np.array([0.2, 0.5, 0.3])), DYNAMIC_RATES),
    # fast decay: d E[Q] = 50 and 40, where a 16-point Gauss-Laguerre rule is off by about 1e-3
    (ef.ScalarDist.exponential(1.0), stats.expon(scale=1.0),
     dict(rho_plus=[[1.0, 0.5], [0.5, 1.0]], rho_minus=[[20.0, 15.0], [15.0, 20.0]],
          beta=[[30.0, 25.0], [25.0, 30.0]])),
], ids=["exponential", "gamma", "uniform", "beta", "discrete", "fast-decay"])
def test_dynamic_moments_match_quadrature(law, lifetime, rates):
    spec = ef.DynamicGraphSpec(q=[law, law], **rates)
    kernel = ef.dynamic_bernoulli_kernel(spec)
    for i in range(2):
        mean, cov, mgf = _dynamic_reference(spec, i, lifetime)
        np.testing.assert_allclose(kernel.mu[i], mean, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(kernel.lam[i], cov, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose([kernel.u_mgf(i, t) for t in DYNAMIC_THETAS], mgf,
                                   rtol=1e-12, atol=0)
        assert np.linalg.eigvalsh(kernel.lam[i]).min() >= -1e-14 * kernel.lam[i].max()


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
    assert ef.extinction_probability(kernel, np.array([1.0])).q[0] == pytest.approx(0.5, abs=1e-10)


def test_mover_unit_sojourn_is_constant_kernel():
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.constant(1.0)]]))
    assert kernel.deterministic
    assert kernel.mu[0, 0] == pytest.approx(2.0)
    assert np.all(kernel.lam == 0.0)


def _linear_kinds():
    """Kernels of the linear law U_i = sum_j X_ij b[i][:, j], keyed by kind, each
    with its b and its scalar laws X_ij stated from the model's definition."""
    exp, gamma, const = ef.ScalarDist.exponential, ef.ScalarDist.gamma, ef.ScalarDist.constant
    b = np.array([[[2.0, 1.0], [0.5, 1.5]], [[1.0, 0.0], [0.0, 2.0]]])
    sojourn = [[exp(1.0), gamma(2.0, 0.5)], [const(0.5), exp(2.0)]]
    base = [exp(1.7), ef.ScalarDist.discrete([0.5, 2.5], [0.4, 0.6]),
            ef.ScalarDist.uniform(0.2, 1.4)]
    alpha = np.array([[1.3, 0.7, 0.2], [0.7, 2.1, 0.9], [0.2, 0.9, 0.6]])
    w = ef.ScalarDist.beta(2.0, 5.0)
    theta = np.array([0.8, 1.9, 3.1])
    return {
        "mover": (ef.ball_clancy93_kernel(ef.BallClancy93Spec(b=b, sojourn=sojourn)), b, sojourn),
        "random_type": (ef.ball_clancy95_model(base, pi=[0.2, 0.3, 0.5])[0],
                        np.ones((3, 3, 1)), [[x] for x in base]),
        "static_graph": (ef.static_bernoulli_kernel(ef.StaticGraphSpec(alpha=alpha, w=w)),
                         alpha[:, :, None] * np.eye(3), [[w] * 3] * 3),
        "static_graph_shared": (ef.static_bernoulli_kernel(
            ef.StaticGraphSpec(alpha=alpha, w=w, w_mode="shared")), alpha[:, :, None], [[w]] * 3),
        "mixed_bernoulli": (ef.mixed_bernoulli_kernel(
            ef.MixedGraphSpec(theta=theta, pi=[0.5, 0.3, 0.2], w=w))[0],
            np.outer(theta, theta)[:, :, None], [[w]] * 3),
    }


@pytest.mark.parametrize("name", sorted(_linear_kinds()))
def test_linear_kernel_moments_and_generating_function(name):
    # mu[i] = b[i] E[X_i], lam[i] = b[i] diag(var X_i) b[i]^T and
    # E[exp(theta . U_i)] = prod_j M_ij(theta . b[i][:, j])
    kernel, b, laws = _linear_kinds()[name]
    for i in range(kernel.m):
        means = np.array([x.mean for x in laws[i]])
        variances = np.array([x.var for x in laws[i]])
        np.testing.assert_allclose(kernel.mu[i], b[i] @ means, rtol=1e-15, atol=0)
        np.testing.assert_allclose(kernel.lam[i], b[i] @ np.diag(variances) @ b[i].T,
                                   rtol=1e-15, atol=0)
        for theta in (np.zeros(kernel.m), np.linspace(-2.5, -0.1, kernel.m)):
            expected = math.prod(x.mgf(float(theta @ b[i][:, j])) for j, x in enumerate(laws[i]))
            assert kernel.u_mgf(i, theta) == expected


# ---------------------------------------------------------------------------
# Random-type model
# ---------------------------------------------------------------------------


def test_random_type_single_type_reduces_to_base():
    base = ef.ScalarDist.exponential(2.0)
    kernel, allocation = ef.ball_clancy95_model([base], pi=np.array([1.0]))
    assert allocation is ef.Allocation.RANDOM_MULTINOMIAL
    assert kernel.mu[0, 0] == pytest.approx(2.0)
    assert kernel.lam[0, 0, 0] == pytest.approx(4.0)
    assert ef.extinction_probability(kernel, np.array([1.0])).q[0] == pytest.approx(0.5, abs=1e-10)


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

import zlib

import numpy as np
import pytest

import epifrost as ef
from epifrost.kernel import _largest_remainder_split

from oracles import estimate_moments


def test_constant_kernel_sample():
    kernel = ef.constant_kernel([[2.0]])
    v = kernel.sample(0, 100, np.random.default_rng(0))
    assert v.shape == (1,)
    assert v[0] == pytest.approx(0.02, abs=1e-15)


def test_sample_rejects_bad_type_and_scale():
    kernel = ef.constant_kernel([[2.0]])
    rng = np.random.default_rng(0)
    for infector_type in (-1, 1):
        with pytest.raises(ValueError, match="infector type"):
            kernel.sample(infector_type, 100, rng)
    with pytest.raises(ValueError, match="population scale"):
        kernel.sample(0, 0, rng)


def test_zero_kernel_sample():
    kernel = ef.constant_kernel(np.zeros((3, 3)))
    for i in range(3):
        v = kernel.sample(i, 50, np.random.default_rng(i))
        assert np.all(v == 0.0)


def test_mixed_bernoulli_sample_is_theta_product():
    # theta=(1,2), W=1, N=100: an infective of the second type contacts
    # type-1 individuals with probability 2*1/100 and type-2 with 2*2/100
    spec = ef.MixedGraphSpec(theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.constant(1.0))
    kernel, allocation = ef.mixed_bernoulli_kernel(spec)
    assert allocation is ef.Allocation.RANDOM_MULTINOMIAL
    v = kernel.sample(1, 100, np.random.default_rng(0))
    assert v == pytest.approx([0.02, 0.04], abs=1e-15)


def test_invalid_type_index_rejected():
    kernel = ef.constant_kernel([[1.0]])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        kernel.sample(1, 100, rng)
    with pytest.raises(ValueError):
        kernel.sample(-1, 100, rng)
    with pytest.raises(ValueError):
        kernel.sample_u(5, rng)


def test_sample_batches_are_iid():
    kernel = ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))])
    batch = kernel.sample(0, 10, np.random.default_rng(1), size=4000)
    assert batch.shape == (4000, 1)
    assert set(np.unique(batch)) == {0.1, 0.3}
    assert abs((batch == 0.1).mean() - 0.5) < 0.05


def test_estimate_moments_constant_exact():
    kernel = ef.constant_kernel([[2.0]])
    mu, mu_se, lam, lam_se = estimate_moments(kernel, N=10_000, samples=1000)
    assert mu[0, 0] == pytest.approx(2.0, abs=1e-9)
    assert lam[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.isfinite(mu_se)) and np.all(np.isfinite(lam_se))


def test_estimate_moments_two_point_mixture():
    # V = Q/N with Q in {1, 3} equiprobable: scaled mean 2, scaled variance 1
    kernel = ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))])
    mu, mu_se, lam, lam_se = estimate_moments(kernel, N=100, samples=100_000,
                                              rng=np.random.default_rng(7))
    assert abs(mu[0, 0] - 2.0) < 4 * mu_se[0, 0]
    assert abs(lam[0, 0, 0] - 1.0) < 4 * lam_se[0, 0, 0]


def test_estimate_moments_zero_kernel():
    mu, _, lam, _ = estimate_moments(ef.constant_kernel(np.zeros((2, 2))), N=100, samples=10)
    assert np.all(mu == 0.0)
    assert np.all(lam == 0.0)


def test_declared_moments_match_estimates_within_4se():
    # every built-in kernel with closed-form moments, at 1e5 samples
    kernels = {
        "table": ef.table_kernel([
            (np.array([[0.5, 2.0], [1.5, 0.0]]), np.array([0.3, 0.7])),
            (np.array([[1.0, 1.0]]), np.array([1.0])),
        ]),
        "static": ef.static_bernoulli_kernel(ef.StaticGraphSpec(
            alpha=np.array([[3.0, 1.0], [1.0, 2.0]]), w=ef.ScalarDist.bernoulli(0.5))),
        "mixed": ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
            theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.uniform(0.0, 1.0)))[0],
        "mover": ef.ball_clancy93_kernel(ef.BallClancy93Spec(
            b=np.array([[[2.0, 0.5], [1.0, 1.0]], [[0.0, 1.0], [2.0, 0.0]]]),
            sojourn=[[ef.ScalarDist.exponential(1.0), ef.ScalarDist.gamma(2.0, 0.5)],
                     [ef.ScalarDist.constant(1.0), ef.ScalarDist.exponential(0.5)]])),
    }
    for name, kernel in kernels.items():
        n_scale = 1_000_000
        mu, mu_se, lam, lam_se = estimate_moments(
            kernel, N=n_scale, samples=100_000,
            rng=np.random.default_rng(zlib.crc32(name.encode())))
        # declared moments are infinite-scale limits; kernels with the exact
        # 1 - exp(-u/N) form carry an O(E[u^2]/N) finite-scale offset
        second_moment = np.stack([np.diagonal(kernel.lam[i]) for i in range(kernel.m)])
        second_moment = second_moment + kernel.mu ** 2
        mu_tol = 4 * mu_se + second_moment / (2 * n_scale) + 1e-12
        lam_tol = 4 * lam_se + 100.0 / n_scale
        assert np.all(np.abs(mu - kernel.mu) <= mu_tol), name
        assert np.all(np.abs(lam - kernel.lam) <= lam_tol), name


def test_sampled_v_in_unit_cube_fuzz():
    # 1e5 draws per built-in kernel; every component must stay in [0, 1]
    rng = np.random.default_rng(99)
    kernels = [
        ef.constant_kernel([[2.0]]),
        ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))]),
        ef.static_bernoulli_kernel(ef.StaticGraphSpec(
            alpha=np.array([[3.0, 1.0], [1.0, 2.0]]), w=ef.ScalarDist.beta(2.0, 2.0))),
        ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
            theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.uniform(0.0, 1.0)))[0],
        ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
            rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[1.0]],
            q=[ef.ScalarDist.exponential(1.0)])),
        ef.ball_clancy93_kernel(ef.BallClancy93Spec(
            b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]])),
        ef.ball_clancy95_model([ef.ScalarDist.gamma(2.0, 1.0), ef.ScalarDist.constant(1.5)],
                               pi=[0.4, 0.6])[0],
    ]
    for kernel in kernels:
        per_type = 100_000 // kernel.m
        for i in range(kernel.m):
            v = kernel.sample(i, 100, rng, size=per_type)
            assert v.min() >= 0.0 and v.max() <= 1.0


def test_largest_remainder_split():
    assert _largest_remainder_split(100, np.array([0.5, 0.5])).tolist() == [50, 50]
    # tie on the remainders goes to the lowest index
    assert _largest_remainder_split(3, np.array([0.5, 0.5])).tolist() == [2, 1]
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = rng.integers(1, 6)
        pi = rng.dirichlet(np.ones(m))
        n = int(rng.integers(1, 10_000))
        counts = _largest_remainder_split(n, pi)
        assert counts.sum() == n
        assert np.all(counts >= 0)


def test_resolve_population_deterministic_is_pure():
    spec = ef.PopulationSpec(m=2, pi=[0.3, 0.7], N=1234, a=[1, 0])
    first = ef.resolve_population(spec)
    second = ef.resolve_population(spec)
    assert np.array_equal(first.n_susceptible, second.n_susceptible)
    assert np.array_equal(first.n_infective, second.n_infective)
    assert first.n_susceptible.sum() == 1234


def test_resolve_population_multinomial_concentrates():
    # binomial tail: P(|N_1/N - 0.5| > 0.003) < 1e-3 at N = 1e6
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=1_000_000, a=[1, 1],
                             allocation=ef.Allocation.RANDOM_MULTINOMIAL)
    pop = ef.resolve_population(spec, np.random.default_rng(11))
    assert pop.n_susceptible.sum() == 1_000_000
    assert 0.497 < pop.n_susceptible[0] / 1_000_000 < 0.503


def test_population_spec_validation():
    with pytest.raises(ValueError):
        ef.PopulationSpec(m=2, pi=[0.5, 0.6], N=10)  # sums to 1.1
    with pytest.raises(ValueError):
        ef.PopulationSpec(m=2, pi=[1.0, 0.0], N=10)  # zero proportion
    with pytest.raises(ValueError):
        ef.PopulationSpec(m=1, pi=[1.0], N=10, a=[-1])
    with pytest.raises(ValueError):
        ef.PopulationSpec(m=1, pi=[1.0], N=0)


def test_a_wins_over_zeta():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=100, a=[3], zeta=[0.9])
    assert spec.a.tolist() == [3]
    assert spec.zeta[0] == pytest.approx(0.03)


def test_zeta_converted_to_counts():
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=100, zeta=[0.1, 0.0])
    assert spec.a.tolist() == [5, 0]


def test_kernel_rejects_bad_moment_structure():
    good = np.zeros((1, 1, 1))
    sampler = lambda i, N, rng, size: np.zeros(1)
    u_sampler = lambda i, rng, size: np.zeros(1)
    u_mgf = lambda i, theta: 1.0
    with pytest.raises(ValueError):
        ef.InfectivityKernel(m=1, mu=np.array([[-1.0]]), lam=good,
                             sampler=sampler, u_sampler=u_sampler, u_mgf=u_mgf)
    bad_lam = np.array([[[-0.5]]])
    with pytest.raises(ValueError):
        ef.InfectivityKernel(m=1, mu=np.array([[1.0]]), lam=bad_lam,
                             sampler=sampler, u_sampler=u_sampler, u_mgf=u_mgf)


def test_scaled_values_must_fit_population():
    kernel = ef.constant_kernel([[2.0]])
    with pytest.raises(ValueError):
        kernel.sample(0, 1, np.random.default_rng(0))  # 2/1 > 1


@pytest.mark.parametrize("name", ["mover", "mover_joint", "random_type"])
@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("N", [100, 20_000])
def test_log_escape_sums_the_same_draws(exponential_hazard_kernels, name, n, N):
    # -sum(U)/N from u_sum against the per-draw sum of log(1 - V): same value,
    # and the same number of draws taken from the stream
    _, kernel = exponential_hazard_kernels[name]
    assert kernel.u_sum is not None
    for i in range(kernel.m):
        summed_rng, per_draw_rng = np.random.default_rng(17), np.random.default_rng(17)
        summed = kernel.log_escape(i, n, N, summed_rng)
        per_draw = np.log1p(-kernel.sample(i, N, per_draw_rng, size=n)).sum(axis=0)
        assert summed.shape == (kernel.m,)
        np.testing.assert_allclose(summed, per_draw, rtol=1e-12, atol=0)
        assert summed_rng.bit_generator.state == per_draw_rng.bit_generator.state

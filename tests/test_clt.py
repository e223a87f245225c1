import math

import numpy as np
import pytest
from scipy import special

import epifrost as ef
from epifrost.clt import _chi2_tail
from epifrost.errors import InsufficientDataError, SingularMatrixError

from oracles import Q_MU2, TAU_MU2, VAR_CONST_MU2, evaluate_counting_process


def test_xi_scalar_no_variance():
    sigma = np.array([Q_MU2])  # survivor fraction for mu = 2
    xi = ef.compute_xi(sigma, 1 - sigma, np.zeros(1), np.ones(1), np.zeros((1, 1, 1)))
    assert xi[0, 0] == pytest.approx(Q_MU2 * (1 - Q_MU2), abs=1e-12)


def test_xi_vanishes_without_epidemic():
    xi = ef.compute_xi(np.ones(2), np.zeros(2), np.zeros(2), np.array([0.5, 0.5]),
                       np.zeros((2, 2, 2)))
    assert np.all(xi == 0.0)


def test_xi_scalar_with_variance_matches_formula():
    rng = np.random.default_rng(23)
    for _ in range(20):
        sigma, tau_plus_zeta, lam = rng.uniform(0.05, 0.95), rng.uniform(0, 1.5), rng.uniform(0, 5)
        tau = 1 - sigma
        zeta = tau_plus_zeta - tau
        got = ef.compute_xi(np.array([sigma]), np.array([tau]), np.array([zeta]),
                            np.ones(1), np.array([[[lam]]]))[0, 0]
        want = sigma * (1 - sigma) + sigma ** 2 * tau_plus_zeta * lam
        assert got == pytest.approx(want, abs=1e-12)


# one kernel and pi per escape form: nothing drawn, a sampled V per infective, u_sum
ESCAPE_FORMS = {
    "deterministic": (ef.constant_kernel([[2.0, 0.5], [1.0, 1.5]]), [0.4, 0.6]),
    "sampled": (ef.table_kernel([(np.array([[1.0, 2.0], [3.0, 0.5]]), np.array([0.5, 0.5])),
                                 (np.array([[2.0, 2.0], [0.5, 1.0]]), np.array([0.3, 0.7]))]),
                [0.5, 0.5]),
    "u_sum": (ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0, 0.5], [1.0, 1.0]], [[0.0, 1.0], [2.0, 0.5]]]),
        sojourn=[[ef.ScalarDist.exponential(1.0), ef.ScalarDist.gamma(2.0, 0.5)],
                 [ef.ScalarDist.gamma(3.0, 0.3), ef.ScalarDist.exponential(0.5)]])),
              [0.5, 0.5]),
}


@pytest.mark.parametrize("form, N, t, realizations", [
    ("deterministic", 20_000, [0.6, 0.3], 40_000),
    ("sampled", 4_000, [0.15, 0.1], 8_000),
    ("u_sum", 20_000, [0.5, 0.4], 20_000),
], ids=list(ESCAPE_FORMS))
def test_xi_matches_counting_process_covariance(form, N, t, realizations):
    # X_i(t), the type-i susceptibles (N pi_i of them) that the first
    # floor(t_k N pi_k) infectives of each type k infect, is Binomial given the
    # infectives' summed log(1 - V): one escape call and one binomial draw it
    # for every realization. Its covariance, scaled by sqrt(N pi), is Xi at t.
    kernel, pi = ESCAPE_FORMS[form]
    pi, t = np.array(pi), np.array(t)
    active = np.broadcast_to(np.floor(t * N * pi).astype(np.int64), (realizations, 2))
    rng = ef.replicate_rng(0, 0)
    p_hit = -np.expm1(kernel.escape(active, N, lambda: rng))
    x = rng.binomial(np.round(N * pi).astype(np.int64), p_hit) / np.sqrt(N * pi)
    centered = x - x.mean(axis=0)
    products = centered[:, :, None] * centered[:, None, :]
    se = products.std(axis=0, ddof=1) / np.sqrt(realizations)
    xi = ef.compute_xi(np.exp(-(t * pi) @ kernel.mu), t, np.zeros(2), pi, kernel.lam)
    assert np.all(np.abs(products.mean(axis=0) - xi) < 4 * se)


@pytest.mark.parametrize("form", ESCAPE_FORMS)
def test_u_matches_counting_process_slope(form):
    # X_j(t)/(N pi_j), the infected fraction of the type-j susceptibles at
    # exposure level t, has mean slope pi_i mu[i, j] sigma_j(t) in t_i, with
    # sigma(t) = exp(-(t pi) mu); scaled by sqrt(pi_j / pi_i) that is
    # (I - U)[i, j].  Each slope is the central difference of X over 2 * STEP
    # more type-i infectives around c = rint((tau + zeta) N pi), from nested
    # levels that share their draws, so its SE is the spread of one
    # realization's difference.  Over seeds 0..39 no case fails; sigma taken
    # at 1.1 c, or mu transposed, fails every case on every seed.
    N, STEP, realizations, batch = 300, 6, 2_000, 500
    kernel, pi = ESCAPE_FORMS[form]
    pi = np.array(pi)
    spec = ef.PopulationSpec(m=2, pi=pi, N=N, a=[1, 1])
    center = np.rint((ef.solve_tau(kernel.mu, pi, spec.zeta).tau + spec.zeta) * N * pi)
    # type i's count at c -+ STEP; + 0.5 keeps floor(level * N pi) off a rounding edge
    levels = [(center + sign * STEP * np.eye(2)[i] + 0.5) / (N * pi)
              for i in range(2) for sign in (-1, 1)]
    rng = ef.replicate_rng(0, 0)
    x = np.concatenate([evaluate_counting_process(spec, kernel, levels, batch, rng)
                        for _ in range(realizations // batch)], axis=1)
    # slope[r, i, j] of X_j / (N pi_j) in t_i, where t_i moves by 2 STEP / (N pi_i)
    slope = (x[1::2] - x[0::2]).transpose(1, 0, 2) * pi[:, None] / (2 * STEP * pi[None, :])
    scaled = slope * np.sqrt(pi[None, :] / pi[:, None])
    se = scaled.std(axis=0, ddof=1) / np.sqrt(realizations)
    u = ef.compute_u(np.exp(-(center / N) @ kernel.mu), kernel.mu, pi)
    assert np.all(np.abs(scaled.mean(axis=0) - (np.eye(2) - u)) < 4 * se)


def test_u_scalar_example():
    u = ef.compute_u(np.array([Q_MU2]), np.array([[2.0]]), np.ones(1))
    assert u[0, 0] == pytest.approx(1 - 2 * Q_MU2, abs=1e-12)


def test_u_identity_for_zero_mu():
    u = ef.compute_u(np.full(3, 0.5), np.zeros((3, 3)), np.full(3, 1 / 3))
    assert np.array_equal(u, np.eye(3))


def test_u_symmetric_when_structure_allows():
    # mu symmetric with equal sigmas makes sqrt(pi_i pi_j) mu_ij sigma_j symmetric
    mu = np.array([[1.0, 2.0], [2.0, 1.0]])
    u = ef.compute_u(np.array([0.3, 0.3]), mu, np.array([0.5, 0.5]))
    assert np.allclose(u, u.T)


def test_u_singular_raises_with_det():
    with pytest.raises(SingularMatrixError) as exc_info:
        ef.compute_u(np.array([0.5]), np.array([[2.0]]), np.ones(1))
    assert abs(exc_info.value.det) <= 1e-12


def test_asymptotic_variance_constant_mu2():
    tau = np.array([TAU_MU2])
    summary = ef.asymptotic_covariance(np.array([[2.0]]), np.zeros((1, 1, 1)),
                                       np.ones(1), tau, np.zeros(1))
    assert summary.asym_cov[0, 0] == pytest.approx(VAR_CONST_MU2, abs=1e-9)
    assert np.all(summary.upsilon == 0.0)
    assert summary.cond_u >= 1.0


def test_single_type_random_allocation_is_noop():
    tau = np.array([TAU_MU2])
    det = ef.asymptotic_covariance(np.array([[2.0]]), np.zeros((1, 1, 1)),
                                   np.ones(1), tau, np.zeros(1))
    rand = ef.asymptotic_covariance(np.array([[2.0]]), np.zeros((1, 1, 1)),
                                    np.ones(1), tau, np.zeros(1),
                                    allocation=ef.Allocation.RANDOM_MULTINOMIAL)
    assert np.allclose(det.asym_cov, rand.asym_cov, atol=1e-15)
    assert np.all(rand.upsilon == 0.0)  # pi (1 - pi) = 0 with one type


def test_upsilon_two_type_form():
    # Upsilon = sqrt(Pi)^-1 (I-S) (Pi - pi^T pi) (I-S) sqrt(Pi)^-1 directly
    pi = np.array([0.5, 0.5])
    tau = np.array([0.4, 0.8])
    summary = ef.asymptotic_covariance(np.array([[1.0, 1.0], [1.0, 1.0]]),
                                       np.zeros((2, 2, 2)), pi, tau, np.zeros(2),
                                       allocation=ef.Allocation.RANDOM_MULTINOMIAL)
    alloc_cov = np.diag(pi) - np.outer(pi, pi)
    assert np.allclose(alloc_cov, [[0.25, -0.25], [-0.25, 0.25]])
    expected = (np.diag(1 / np.sqrt(pi)) @ np.diag(tau) @ alloc_cov
                @ np.diag(tau) @ np.diag(1 / np.sqrt(pi)))
    assert np.allclose(summary.upsilon, expected, atol=1e-12)


def _random_instance(rng):
    m = int(rng.integers(1, 4))
    mu = rng.uniform(0.2, 3.0, size=(m, m))
    pi = rng.dirichlet(np.ones(m))
    lam = np.zeros((m, m, m))
    for k in range(m):
        a = rng.normal(size=(m, m))
        lam[k] = a @ a.T  # PSD by construction
    zeta = np.abs(rng.normal(0, 0.05, size=m))
    return mu, pi, lam, zeta


def test_covariance_pieces_are_psd():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 30:
        mu, pi, lam, zeta = _random_instance(rng)
        sol = ef.solve_tau(mu, pi, zeta)
        try:
            summary = ef.asymptotic_covariance(mu, lam, pi, sol.tau, zeta)
            rand = ef.asymptotic_covariance(mu, lam, pi, sol.tau, zeta,
                                            allocation=ef.Allocation.RANDOM_MULTINOMIAL)
        except SingularMatrixError:
            continue  # near-critical draw
        for matrix in (summary.xi, summary.asym_cov, rand.xi + rand.upsilon, rand.asym_cov):
            assert np.allclose(matrix, matrix.T, atol=1e-9)
            assert np.linalg.eigvalsh(matrix).min() >= -1e-9
        # the random-allocation correction only ever inflates the covariance
        inflation = rand.asym_cov - summary.asym_cov
        assert np.linalg.eigvalsh((inflation + inflation.T) / 2).min() >= -1e-9
        checked += 1


def test_single_type_matrix_path_matches_scalar_formula():
    rng = np.random.default_rng(41)
    for _ in range(25):
        mu, lam, zeta = rng.uniform(1.1, 3.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 0.2)
        sol = ef.solve_tau(np.array([[mu]]), np.ones(1), np.array([zeta]))
        sigma = sol.sigma[0]
        tau = sol.tau[0]
        summary = ef.asymptotic_covariance(np.array([[mu]]), np.array([[[lam]]]),
                                           np.ones(1), sol.tau, np.array([zeta]))
        xi = sigma * (1 - sigma) + sigma ** 2 * (tau + zeta) * lam
        want = xi / (1 - mu * sigma) ** 2
        assert summary.asym_cov[0, 0] == pytest.approx(want, abs=1e-12)


def test_vanishing_epidemic_gives_zero_covariance():
    # subcritical with no seed: tau = 0, sigma = 1, no fluctuations at all
    sol = ef.solve_tau(np.array([[0.5]]), np.ones(1), np.zeros(1))
    summary = ef.asymptotic_covariance(np.array([[0.5]]), np.zeros((1, 1, 1)),
                                       np.ones(1), sol.tau, np.zeros(1))
    assert np.all(summary.asym_cov == 0.0)


def test_mardia_detects_normal_and_non_normal():
    rng = np.random.default_rng(6)
    gauss = rng.multivariate_normal([0, 0], [[2.0, 0.5], [0.5, 1.0]], size=4000)
    _, p_skew, _, p_kurt = ef.mardia_test(gauss)
    assert p_skew > 0.001 and p_kurt > 0.001
    skewed = rng.exponential(1.0, size=(4000, 2))
    _, p_skew, _, _ = ef.mardia_test(skewed)
    assert p_skew < 1e-6


def test_chi2_tail_matches_scipy():
    for df in range(1, 221):
        for x in [0.0, 1e-3, 0.5, *np.linspace(0.0, 5.0 * df + 30.0, 41)[1:]]:
            assert _chi2_tail(df, x) == pytest.approx(special.chdtrc(df, x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_mardia_p_values_match_scipy_tails(m):
    # Gaussian, skewed and heavy-tailed samples: p-values from near 1 down to far tails
    rng = np.random.default_rng(40 + m)
    for y in (rng.standard_normal((300, m)), rng.exponential(1.0, (300, m)),
              rng.standard_t(8.0, (1000, m)), rng.standard_normal((50, m)) ** 3):
        n = len(y)
        b1, p_skew, b2, p_kurt = ef.mardia_test(y)
        z_kurt = (b2 - m * (m + 2)) / math.sqrt(8.0 * m * (m + 2) / n)
        assert p_skew == pytest.approx(special.chdtrc(m * (m + 1) * (m + 2) / 6.0, n * b1 / 6.0),
                                       rel=1e-12, abs=0.0)
        assert p_kurt == pytest.approx(2.0 * special.ndtr(-abs(z_kurt)), rel=1e-12, abs=0.0)


def test_gaussian_check_insufficient_data():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=100, a=[1])
    ensemble = ef.run_ensemble(spec, ef.constant_kernel([[0.5]]), 50, seed=3)
    with pytest.raises(InsufficientDataError):
        ef.gaussian_check(ensemble, np.zeros(1), 100, np.ones(1))


def test_gaussian_check_mean_and_var(const_mu2_ensemble):
    spec, kernel, ensemble = const_mu2_ensemble
    sol = ef.solve_tau(kernel.mu, spec.pi, np.zeros(1))
    report = ef.gaussian_check(ensemble, sol.tau, spec.N, spec.pi)
    assert report.n_major >= 500
    # each mean component within 4 sqrt(var/count) of zero
    assert np.all(np.abs(report.sample_mean) <= 4 * report.mean_se)
    assert report.sample_cov[0, 0] == pytest.approx(VAR_CONST_MU2, rel=0.15)

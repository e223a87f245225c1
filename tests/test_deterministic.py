import numpy as np
import pytest

import epifrost as ef
from epifrost.deterministic import monotone_newton
from epifrost.errors import ConvergenceError

from scipy.optimize import root

from oracles import (Q_MU2, SIGMA_MU1_ZETA01, TAU_MU2, dense_spectral_radius, scalar_tau,
                     scalar_tau_near_critical)


def test_limit_infection_probability_examples():
    r = ef.limit_infection_probability
    assert np.all(r(np.zeros(3), np.ones((3, 3)), np.full(3, 1 / 3)) == 0.0)
    out = r(np.array([1.0]), np.array([[2.0]]), np.array([1.0]))
    assert out[0] == pytest.approx(1 - np.exp(-2), abs=1e-12)
    out = r(np.array([1.0, 0.0]), np.eye(2), np.array([0.5, 0.5]))
    assert out == pytest.approx([1 - np.exp(-0.5), 0.0], abs=1e-12)
    with pytest.raises(ValueError):
        r(np.array([-0.1]), np.array([[1.0]]), np.array([1.0]))


def test_solve_tau_supercritical_scalar():
    sol = ef.solve_tau(np.array([[2.0]]), np.array([1.0]), np.zeros(1))
    # frozen oracle value, re-derived from the brentq root finder
    assert scalar_tau(2.0) == pytest.approx(TAU_MU2, abs=1e-12)
    assert sol.tau[0] == pytest.approx(TAU_MU2, abs=1e-10)
    assert sol.sigma[0] == pytest.approx(1 - TAU_MU2, abs=1e-10)
    assert sol.R == pytest.approx(2.0, abs=1e-12)
    assert sol.regime is ef.Regime.SUPERCRITICAL
    assert sol.residual <= 1e-10


def test_solve_tau_with_seed_intensity():
    sol = ef.solve_tau(np.array([[1.0]]), np.array([1.0]), np.array([0.1]))
    assert sol.sigma[0] == pytest.approx(SIGMA_MU1_ZETA01, abs=1e-10)
    assert sol.tau[0] == pytest.approx(1 - SIGMA_MU1_ZETA01, abs=1e-10)


def test_solve_tau_subcritical_is_zero():
    for mu in (0.0, 0.5, 1.0):
        sol = ef.solve_tau(np.array([[mu]]), np.array([1.0]), np.zeros(1))
        assert np.all(sol.tau == 0.0)
        assert sol.residual == 0.0


def test_threshold_dichotomy():
    # tau > 0 exactly when the scaled mean exceeds 1 (no seed)
    for mu in (0.5, 0.9, 1.0, 1.1, 2.0):
        sol = ef.solve_tau(np.array([[mu]]), np.array([1.0]), np.zeros(1))
        if mu > 1.0:
            assert sol.tau[0] > 0.0
        else:
            assert sol.tau[0] == 0.0


def test_solve_tau_multitype_residual_invariant():
    rng = np.random.default_rng(5)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        mu = rng.uniform(0, 3, size=(m, m))
        pi = rng.dirichlet(np.ones(m))
        zeta = rng.uniform(0, 0.2, size=m) * rng.integers(0, 2)
        sol = ef.solve_tau(mu, pi, zeta)
        r = ef.limit_infection_probability(sol.tau + zeta, mu, pi)
        assert np.max(np.abs(sol.tau - r)) <= 1e-10
        assert np.allclose(sol.sigma, 1 - sol.tau)
        # unseeded supercritical irreducible systems infect a positive
        # fraction of every type
        if np.all(zeta == 0) and sol.R > 1.0 and ef.check_irreducibility(mu, pi):
            assert np.all(sol.tau > 0.0)


def test_solve_tau_convergence_error_carries_iterate():
    with pytest.raises(ConvergenceError) as exc_info:
        ef.solve_tau(np.array([[2.0]]), np.array([1.0]), np.zeros(1), max_iter=3)
    err = exc_info.value
    assert err.last_iterate.shape == (1,)
    assert err.residual > 0


def test_compute_r_zero_matrix():
    assert ef.compute_R(np.zeros((3, 3)), np.full(3, 1 / 3)) == 0.0


def test_compute_r_two_type_example():
    mu = np.array([[1.0, 2.0], [2.0, 1.0]])
    pi = np.array([0.5, 0.5])
    # M Pi = [[0.5, 1], [1, 0.5]] has spectral radius 1.5
    assert ef.compute_R(mu, pi) == pytest.approx(1.5, abs=1e-9)


def test_compute_r_mixed_bernoulli_is_second_moment():
    # theta in {1, 2} equiprobable, W = 1: R equals E[D^2] = 2.5
    mu = np.array([[1.0, 2.0], [2.0, 4.0]])
    pi = np.array([0.5, 0.5])
    assert ef.compute_R(mu, pi) == pytest.approx(2.5, abs=1e-9)


def test_compute_r_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = int(rng.integers(2, 4))
        mu = rng.uniform(0, 4, size=(m, m))
        mu[rng.random((m, m)) < 0.3] = 0.0
        pi = rng.dirichlet(np.ones(m))
        want = dense_spectral_radius(mu * pi[None, :])
        assert ef.compute_R(mu, pi) == pytest.approx(want, abs=1e-8)


def test_compute_r_nilpotent_pattern():
    mu = np.array([[0.0, 5.0], [0.0, 0.0]])
    assert ef.compute_R(mu, np.array([0.5, 0.5])) == 0.0


def test_compute_r_periodic_pattern_falls_back():
    # eigenvalues +-2 of equal modulus: the radius needs no dominant eigenvalue
    mu = np.array([[0.0, 8.0], [2.0, 0.0]])
    pi = np.array([0.5, 0.5])
    assert ef.compute_R(mu, pi) == pytest.approx(dense_spectral_radius(mu * pi[None, :]), abs=1e-8)
    assert ef.compute_R(mu, pi) == pytest.approx(2.0, abs=1e-12)


def test_check_irreducibility():
    pi = np.array([0.5, 0.5])
    assert ef.check_irreducibility(np.array([[1.0, 2.0], [2.0, 1.0]]), pi)
    assert not ef.check_irreducibility(np.diag([4.0, 0.0]), pi)
    assert ef.check_irreducibility(np.array([[2.0]]), np.array([1.0]))


def test_reducible_solution_is_flagged():
    sol = ef.solve_tau(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([0.5, 0.5]),
                       np.array([0.1, 0.0]))
    assert sol.nonuniqueness_risk
    sol = ef.solve_tau(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([0.5, 0.5]),
                       np.zeros(2))
    assert not sol.nonuniqueness_risk


def test_constant_kernel_extinction_matches_attack_rate():
    # zero infectivity variance: 1 - q and tau solve the same scalar equation
    kernel = ef.constant_kernel([[2.0]])
    pi = np.array([1.0])
    sol = ef.solve_tau(kernel.mu, pi, np.zeros(1))
    ext = ef.extinction_probability(kernel, pi)
    assert abs((1 - ext.q[0]) - sol.tau[0]) <= 1e-9
    assert ext.q[0] == pytest.approx(Q_MU2, abs=1e-10)


@pytest.mark.parametrize("excess", [1e-2, 1e-4, 1e-6])
def test_solve_tau_near_critical_scalar(excess):
    sol = ef.solve_tau(np.array([[1.0 + excess]]), np.array([1.0]), np.zeros(1))
    ref = scalar_tau_near_critical(1.0 + excess)
    assert sol.iterations <= 50
    assert abs(sol.tau[0] - ref) <= sol.error_bound
    # the bound is informative: far below the attack rate itself
    assert sol.error_bound <= 1e-6 * ref


def test_solve_tau_error_bound_is_a_plain_float():
    sol = ef.solve_tau(np.array([[2.0]]), np.array([1.0]), np.zeros(1))
    assert type(sol.error_bound) is float


def test_solve_tau_near_critical_two_type():
    base = np.array([[1.0, 2.0], [0.5, 1.5]])
    pi = np.array([0.4, 0.6])
    mu = base * (1.0 + 1e-5) / ef.compute_R(base, pi)
    sol = ef.solve_tau(mu, pi, np.zeros(2))
    assert sol.R == pytest.approx(1.0 + 1e-5, abs=1e-12)
    assert sol.iterations <= 50
    ref = root(lambda t: t - ef.limit_infection_probability(np.abs(t), mu, pi),
               np.ones(2), tol=1e-15).x
    assert np.all(ref > 0)
    assert np.max(np.abs(sol.tau - ref)) <= sol.error_bound
    assert sol.error_bound <= 1e-6 * np.max(sol.tau)


def test_solve_tau_reducible_seeded_picks_largest_root():
    # type 1 infects type 0 but not the other way round, and only type 0 is
    # seeded: type 1's own equation has the roots 0 and the scalar attack
    # rate of 0.5 * 3, and the largest fixed point takes the positive one
    rng = np.random.default_rng(31)
    mu = np.array([[rng.uniform(0.2, 0.8), 0.0], [rng.uniform(0.5, 2.0), 3.0]])
    pi = np.array([0.5, 0.5])
    zeta = np.array([0.05, 0.0])
    sol = ef.solve_tau(mu, pi, zeta)
    assert sol.nonuniqueness_risk
    assert sol.tau[1] == pytest.approx(scalar_tau(1.5), abs=1e-12)
    r = ef.limit_infection_probability(sol.tau + zeta, mu, pi)
    assert np.max(np.abs(sol.tau - r)) <= 1e-12


# an affine monotone map F(x) = A x + c with its fixed point at (0.45, 0.575),
# approached from below (from 0, bound 10) or from above (from 1, bound 0)
NEWTON_A = np.array([[0.3, 0.2], [0.1, 0.4]])
NEWTON_C = np.array([0.2, 0.3])
NEWTON_SIDES = {"up": (0.0, 1, 10.0), "down": (1.0, -1, 0.0)}  # x0, direction, bound


def _newton(jacobian, side="up", map_shift=0.0):
    x0, direction, bound = NEWTON_SIDES[side]
    return monotone_newton(lambda x: (NEWTON_A @ x + NEWTON_C + map_shift, jacobian(x)),
                           np.full(2, x0), direction, bound, 1e-12, 1000, "affine")


@pytest.mark.parametrize("side", NEWTON_SIDES)
def test_monotone_newton_singular_jacobian_takes_picard_steps(side):
    # I - J singular: every step is a Picard step, and the error bound is inf
    x, it, residual, bound = _newton(lambda x: np.eye(2), side)
    assert ([v.hex() for v in x], residual.hex()) == {
        "up": (["0x1.ccccccccc8888p-2", "0x1.2666666664444p-1"], "0x1.1120000000000p-41"),
        "down": (["0x1.ccccccccd0889p-2", "0x1.2666666668444p-1"], "0x1.dde0000000000p-42"),
    }[side]
    assert (it, bound) == (39, float("inf"))


@pytest.mark.parametrize("side", NEWTON_SIDES)
def test_monotone_newton_refuses_a_nan_candidate(side):
    # a NaN Jacobian at x0 gives a NaN candidate: the first step is F(x0),
    # then Newton on the affine map lands on the root
    x0 = NEWTON_SIDES[side][0]
    x, it, residual, bound = _newton(
        lambda x: NEWTON_A if (x != x0).any() else np.full((2, 2), np.nan), side)
    assert ([v.hex() for v in x], residual.hex(), bound.hex()) == {
        "up": (["0x1.ccccccccccccdp-2", "0x1.2666666666666p-1"], "0x0.0p+0", "0x1.2666666666666p-47"),
        "down": (["0x1.ccccccccccccdp-2", "0x1.2666666666667p-1"], "0x1.0000000000000p-53",
                 "0x1.2e66666666667p-47"),
    }[side]
    assert it == 3
    assert _newton(lambda x: NEWTON_A, side)[1] == 2  # the exact Jacobian needs no Picard step


@pytest.mark.parametrize("side", NEWTON_SIDES)
def test_monotone_newton_raises_on_a_step_the_wrong_way(side):
    # F(x0) on the far side of x0 from the direction of travel
    with pytest.raises(RuntimeError, match="affine iteration lost monotonicity"):
        _newton(lambda x: NEWTON_A, side, map_shift=-NEWTON_SIDES[side][1])

import dataclasses
import warnings
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
    # the ensemble draws each replicate's split; binomial tail:
    # P(|N_1/N - 0.5| > 0.003) < 1e-3 per replicate at N = 1e6
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=1_000_000, a=[1, 1],
                             allocation=ef.Allocation.RANDOM_MULTINOMIAL)
    with pytest.raises(ValueError, match="the ensemble draws it"):
        ef.resolve_population(spec)
    n_susceptible = ef.run_ensemble(spec, ef.constant_kernel(np.full((2, 2), 0.5)), 3,
                                    seed=11).n_susceptible
    assert np.all(n_susceptible.sum(axis=1) == 1_000_000)
    assert len({tuple(row) for row in n_susceptible}) == 3
    assert np.all((0.497 < n_susceptible[:, 0] / 1_000_000) & (n_susceptible[:, 0] / 1_000_000 < 0.503))


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
    # zeta is the intensity of the seeds that are simulated, a / (N pi)
    for pi, N, zeta, a, simulated in [
        ([0.5, 0.5], 100, [0.1, 0.0], [5, 0], [0.1, 0.0]),
        ([1.0], 10, [0.05], [0], [0.0]),  # rounds to no seed: the solvers must not see one
        ([0.5, 0.5], 1000, [0.0015, 0.0], [1, 0], [0.002, 0.0]),  # one seed: intensity 0.002
    ]:
        spec = ef.PopulationSpec(m=len(pi), pi=pi, N=N, zeta=zeta)
        assert spec.a.tolist() == a
        assert spec.zeta.tolist() == simulated


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


def test_kernel_names_the_first_bad_moment():
    # finiteness before the sign of mu, and the first type whose lam fails
    # either check, symmetric before positive semidefinite
    u_sampler = lambda i, rng, size: np.zeros((size, 3))
    u_mgf = lambda i, theta: 1.0
    asymmetric = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    indefinite = np.diag([1.0, -0.5, 1.0])
    for mu, lam, message in [
        (np.full((3, 3), np.inf), np.zeros((3, 3, 3)), "mu must be finite and nonnegative"),
        (np.full((3, 3), np.nan), np.zeros((3, 3, 3)), "mu must be finite and nonnegative"),
        (np.full((3, 3), -1.0), np.zeros((3, 3, 3)), "mu must be finite and nonnegative"),
        (np.ones((3, 3)), np.stack([np.eye(3), np.eye(3) * np.nan, np.eye(3)]), "lam must be finite"),
        (np.ones((3, 3)), np.stack([np.eye(3), asymmetric, indefinite]), r"lam\[1\] must be symmetric"),
        (np.ones((3, 3)), np.stack([np.eye(3), indefinite, asymmetric]),
         r"lam\[1\] must be positive semidefinite"),
    ]:
        with pytest.raises(ValueError, match=message):
            ef.InfectivityKernel(m=3, mu=mu, lam=lam, u_sampler=u_sampler, u_mgf=u_mgf)
    # within np.allclose's tolerance, and eigenvalues of rounding size, pass
    near = np.eye(3) + np.array([[0.0, 1e-10, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0 - 1e-10]])
    ef.InfectivityKernel(m=3, mu=np.ones((3, 3)), lam=np.stack([near] * 3), u_sampler=u_sampler,
                         u_mgf=u_mgf)


def test_deterministic_is_derived_from_lam():
    # zero covariance makes U a fixed vector, however the table lists it
    assert ef.table_kernel([(np.array([[1.0], [1.0]]), np.array([0.5, 0.5]))]).deterministic
    assert not ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))]).deterministic


def test_scaled_values_must_fit_population():
    kernel = ef.constant_kernel([[2.0]])
    with pytest.raises(ValueError):
        kernel.sample(0, 1, np.random.default_rng(0))  # 2/1 > 1


def _one_type_at_a_time_and_all(counts: np.ndarray, m: int) -> list[np.ndarray]:
    """(lines, m) active counts: ``counts`` for each single infector type, then for all."""
    return [np.outer(counts, row) for row in (*np.eye(m, dtype=np.int64), np.ones(m, np.int64))]


@pytest.mark.parametrize("name", ["mover", "mover_joint", "random_type"])
@pytest.mark.parametrize("n", [1, 7, 1000])
@pytest.mark.parametrize("N", [100, 20_000, None])
def test_log_escape_sums_the_same_draws(exponential_hazard_kernels, name, n, N):
    # escape is -u_sum/N (-u_sum for N=None): the draws of the summed U that u_sum
    # takes on the same stream, and no other draw; a line without infectives gives 0
    _, kernel = exponential_hazard_kernels[name]
    assert kernel.u_sum is not None
    counts = np.array([0, n, 0, 3])
    for active in _one_type_at_a_time_and_all(counts, kernel.m):
        escape_rng, sum_rng = np.random.default_rng(17), np.random.default_rng(17)
        escape = kernel.escape(active, N, lambda: escape_rng)
        assert escape.shape == (len(counts), kernel.m)
        u = kernel.u_sum(lambda: sum_rng, active)
        assert np.array_equal(escape, -u if N is None else -u / N)
        assert not escape[counts == 0].any() and (escape[counts > 0] < 0).all()
        assert np.array_equal(escape_rng.bit_generator.random_raw(8),
                              sum_rng.bit_generator.random_raw(8))


def _deterministic_kernels():
    """A zero-covariance instance of every kernel builder, keyed by config kind."""
    const = ef.ScalarDist.constant
    alpha = np.array([[2.0, 1.0], [1.0, 3.0]])
    return {
        "constant": ef.constant_kernel([[1.5, 0.5], [0.2, 2.0]]),
        # identical rows, and a row of probability 0
        "custom_table": ef.table_kernel([
            (np.array([[1.0, 0.5], [1.0, 0.5]]), np.array([0.5, 0.5])),
            (np.array([[0.3, 2.0], [9.0, 9.0]]), np.array([1.0, 0.0]))]),
        "static_graph": ef.static_bernoulli_kernel(ef.StaticGraphSpec(alpha=alpha, w=const(0.5))),
        "static_graph_shared": ef.static_bernoulli_kernel(
            ef.StaticGraphSpec(alpha=alpha, w=const(0.5), w_mode="shared")),
        "mixed_bernoulli": ef.mixed_bernoulli_kernel(
            ef.MixedGraphSpec(theta=[1.0, 2.0], pi=[0.5, 0.5], w=const(1.0)))[0],
        "dynamic_graph": ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
            rho_plus=[[1.5, 0.8], [0.8, 2.0]], rho_minus=np.ones((2, 2)),
            beta=[[1.5, 1.0], [1.0, 1.5]], q=[const(1.0), const(1.5)])),
        "ball_clancy93": ef.ball_clancy93_kernel(ef.BallClancy93Spec(
            b=np.array([[[2.0, 0.1], [0.1, 2.0]]] * 2),
            sojourn=[[const(1.0), const(0.25)], [const(0.25), const(1.0)]])),
        "ball_clancy95": ef.ball_clancy95_model([const(1.8), const(1.2)], pi=[0.6, 0.4])[0],
    }


@pytest.mark.parametrize("name", sorted(_deterministic_kernels()))
def test_deterministic_kernels_draw_nothing(name):
    # lam = 0 makes V a fixed vector: one draw, a batch and a batched escape
    # term all leave the generator where it was
    kernel = _deterministic_kernels()[name]
    assert kernel.deterministic
    for i in range(kernel.m):
        rng, untouched = ef.replicate_rng(12, 0), ef.replicate_rng(12, 0)
        v = kernel.sample(i, 100, rng)
        assert np.array_equal(kernel.sample(i, 100, rng, size=3), np.tile(v, (3, 1)))
        active = np.zeros((2, kernel.m), dtype=np.int64)
        active[1, i] = 2
        escape = kernel.escape(active, 100, lambda: rng)
        assert np.array_equal(escape, [np.zeros(kernel.m), 2 * np.log1p(-v)])
        assert np.array_equal(rng.bit_generator.random_raw(8), untouched.bit_generator.random_raw(8))


def test_certain_infection_escape_term_has_no_nan():
    # V_{0,0} = 1 on a deterministic two-type kernel: a line without type-0
    # infectives gets 0 from type 0, not 0 * log(0) = nan
    kernel = ef.constant_kernel([[50.0, 5.0], [5.0, 5.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        escape = kernel.escape(np.array([[0, 0], [2, 0], [0, 0]]), 50, lambda: ef.replicate_rng(0, 0))
    assert escape.tolist() == [[0.0, 0.0], [-np.inf, 2 * np.log1p(-0.1)], [0.0, 0.0]]


@pytest.mark.parametrize("N", [50, None])
def test_deterministic_escape_rows_are_computed_once_per_scale(N):
    # a deterministic kernel keeps its rows log(1 - V) (-mu at N=None) per N:
    # they equal the per-call formula bit for bit, a V = 1 entry included
    # (max_scaled == N), and every call sums the same terms as that formula,
    # exactly 0 where a line has no infectives, while taking one generator per
    # type at finite N (none at N=None) and sampling V on its first call only
    constant = ef.constant_kernel([[50.0, 5.0, 0.0], [5.0, 5.0, 2.0], [0.5, 0.0, 1.0]])
    sampled = []
    kernel = dataclasses.replace(
        constant, u_sampler=lambda i, rng, n: sampled.append(i) or constant.u_sampler(i, rng, n))
    assert kernel.deterministic and kernel.max_scaled == 50
    with np.errstate(divide="ignore"):
        rows = -kernel.mu if N is None else np.stack([np.log1p(-constant.sample(i, N, None))
                                                      for i in range(3)])
    active = np.array([[0, 0, 0], [2, 0, 0], [0, 3, 1], [1, 1, 1], [0, 0, 0], [4, 0, 7]])
    formula = np.zeros(active.shape)
    for counts, row in zip(active.T, rows):
        with np.errstate(invalid="ignore"):
            term = counts[:, None] * row
        term[counts == 0] = 0.0
        formula += term
    for call in range(3):
        fresh_calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            escape = kernel.escape(active, N, lambda: fresh_calls.append(1) or ef.replicate_rng(0, 0))
        assert len(fresh_calls) == (0 if N is None else 3)
        assert sampled == ([0, 1, 2] if N is not None and call == 0 else [])
        sampled.clear()
        assert kernel._rows[N][0].tobytes() == rows.tobytes()
        assert np.array_equal(escape, formula)
        assert (escape[[0, 4]] == 0).all() and (escape[[1, 2, 3, 5]].min(axis=1) < 0).all()
    assert np.isneginf(rows).any() == (N is not None)


@pytest.mark.parametrize("N", [None, 100])
@pytest.mark.parametrize("form", ["deterministic", "u_sum", "sampled"])
def test_log_escape_refuses_an_infector_type_out_of_range(form, N):
    # counts of one type too few or too many would misread the kernel's rows or
    # fail inside a draw, and a flat vector of counts names no infector types
    kernel = {
        "deterministic": ef.constant_kernel([[1.0, 2.0], [3.0, 4.0]]),
        "u_sum": ef.ball_clancy95_model(
            [ef.ScalarDist.exponential(1.8), ef.ScalarDist.gamma(2.0, 0.9)], pi=[0.6, 0.4])[0],
        "sampled": ef.table_kernel([
            (np.array([[1.0, 0.5], [2.0, 0.0]]), np.array([0.5, 0.5])),
            (np.array([[0.3, 2.0], [1.5, 1.0]]), np.array([0.6, 0.4]))]),
    }[form]
    assert kernel.deterministic == (form == "deterministic")
    assert (kernel.u_sum is not None) == (form == "u_sum")
    for active in (np.ones((1, 1)), np.ones((1, 3)), np.ones((1, 5)), np.ones(2), np.ones((1, 1, 2))):
        with pytest.raises(ValueError, match="infector type"):
            kernel.escape(active.astype(np.int64), N, lambda: ef.replicate_rng(0, 0))


@pytest.mark.parametrize("name", ["custom_table", "static_graph"])
def test_sampled_escape_term_in_runs_matches_one_call(monkeypatch, name):
    # the sampled escape term draws runs of lines in turn from one generator:
    # the same values, and the same generator state, as one call for all lines
    kernel = {
        "custom_table": ef.table_kernel([
            (np.array([[1.0, 0.5], [2.0, 0.0], [0.2, 3.0]]), np.array([0.2, 0.5, 0.3])),
            (np.array([[0.3, 2.0], [1.5, 1.0]]), np.array([0.6, 0.4]))]),
        "static_graph": ef.static_bernoulli_kernel(ef.StaticGraphSpec(
            alpha=[[2.0, 1.0], [1.0, 3.0]], w=ef.ScalarDist.beta(2.0, 3.0))),
    }[name]
    counts = np.array([0, 3, 1, 0, 11, 2, 0, 4, 4, 1])  # a line of 11 outgrows a run of 5
    for i, active in enumerate(_one_type_at_a_time_and_all(counts, kernel.m)):
        whole_rng = ef.replicate_rng(5, i)
        whole = kernel.escape(active, 100, lambda: whole_rng)
        with monkeypatch.context() as patch:
            patch.setattr(ef.distributions, "_RUN", 5)
            runs_rng = ef.replicate_rng(5, i)
            runs = kernel.escape(active, 100, lambda: runs_rng)
        assert np.array_equal(runs, whole)
        assert not whole[counts == 0].any() and (whole[counts > 0] < 0).all()
        assert np.array_equal(runs_rng.bit_generator.random_raw(8),
                              whole_rng.bit_generator.random_raw(8))

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every expected value below was computed with an independent oracle
(exhaustive chain enumeration, brentq scalar fixed points, dense
eigendecompositions, or the branching simulator) and frozen; see
tests/oracles.py.
"""

import time

import numpy as np
import pytest
from scipy import stats

import epifrost as ef

from oracles import (
    Q_MU2,
    TAU_MU2,
    VAR_CONST_MU2,
    VAR_GSE_MEAN2,
    counting_indicators,
    reed_frost_pmf,
    scalar_extinction_poisson,
    scalar_tau,
)


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_exact_small_population_distribution():
    # N=2, a=1, V=0.5: pmf (0.25, 0.25, 0.5) from chain enumeration
    start = time.time()
    expected = reed_frost_pmf(2, 1, 0.5)
    assert expected == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=2, a=[1])
    kernel = ef.constant_kernel([[1.0]])  # V = 0.5 at N = 2
    counts = np.bincount(ef.run_ensemble(spec, kernel, 100_000, seed=424_242).total,
                         minlength=3)
    _, p = stats.chisquare(counts, f_exp=expected * counts.sum())
    elapsed = time.time() - start
    _report("criterion 1 (exact small-N pmf)",
            p > 0.001 and elapsed < 10.0,
            f"chi-square p={p:.4f} (need > 0.001), pmf={counts / counts.sum()}, "
            f"{elapsed:.1f}s (limit 10s)")


@pytest.fixture(scope="module")
def const_timing():
    return {}


def test_criterion_2_major_outbreak_fraction(const_mu2_ensemble, const_timing):
    start = time.time()
    _, _, ensemble = const_mu2_ensemble
    const_timing["ensemble_reused"] = True
    frac = np.mean(ensemble.major)
    want = 1 - Q_MU2
    assert scalar_extinction_poisson(2.0) == pytest.approx(Q_MU2, abs=1e-12)
    elapsed = time.time() - start
    _report("criterion 2 (major-outbreak probability)",
            abs(frac - want) <= 0.02 and elapsed < 120.0,
            f"empirical {frac:.4f} vs 1-q={want:.4f} +/- 0.02")


def test_criterion_3_lln_major_conditional_mean(const_mu2_ensemble):
    _, _, ensemble = const_mu2_ensemble
    majors = ensemble.total[ensemble.major]
    mean_fraction = majors.mean() / 10_000
    assert scalar_tau(2.0) == pytest.approx(TAU_MU2, abs=1e-12)
    _report("criterion 3 (law of large numbers)",
            abs(mean_fraction - TAU_MU2) <= 0.01,
            f"major-conditional mean {mean_fraction:.4f} vs tau={TAU_MU2:.4f} +/- 0.01")


def test_criterion_4_clt_constant_kernel(const_mu2_ensemble):
    spec, kernel, ensemble = const_mu2_ensemble
    sol = ef.solve_tau(kernel.mu, spec.pi, np.zeros(1))
    summary = ef.asymptotic_covariance(kernel.mu, kernel.lam, spec.pi, sol.tau, np.zeros(1))
    assert summary.asym_cov[0, 0] == pytest.approx(VAR_CONST_MU2, abs=1e-9)
    report = ef.gaussian_check(ensemble, sol.tau, spec.N, spec.pi)
    var = report.sample_cov[0, 0]
    rel = abs(var - VAR_CONST_MU2) / VAR_CONST_MU2
    normal_ok = report.mardia_skew_p > 0.001 and report.mardia_kurtosis_p > 0.001
    _report("criterion 4 (Gaussian limit, constant kernel)",
            rel <= 0.15 and normal_ok,
            f"var {var:.4f} vs {VAR_CONST_MU2:.4f} (rel err {rel:.2%}, limit 15%), "
            f"Mardia p=({report.mardia_skew_p:.3f}, {report.mardia_kurtosis_p:.3f})")


def test_criterion_5_clt_with_infectivity_variance(gse_ensemble):
    spec, kernel, ensemble = gse_ensemble
    # scaled infectivity ~ Exp(mean 2): q = 1/2 by hand (root of 2q^2 - 3q + 1)
    ext = ef.extinction_probability(kernel, spec.pi, a=spec.a)
    assert ext.q[0] == pytest.approx(0.5, abs=1e-10)
    frac = np.mean(ensemble.major)

    sol = ef.solve_tau(kernel.mu, spec.pi, np.zeros(1))
    summary = ef.asymptotic_covariance(kernel.mu, kernel.lam, spec.pi, sol.tau, np.zeros(1))
    assert summary.asym_cov[0, 0] == pytest.approx(VAR_GSE_MEAN2, abs=1e-9)
    report = ef.gaussian_check(ensemble, sol.tau, spec.N, spec.pi)
    var = report.sample_cov[0, 0]
    rel = abs(var - VAR_GSE_MEAN2) / VAR_GSE_MEAN2
    _report("criterion 5 (Gaussian limit, random infectivity)",
            abs(frac - 0.5) <= 0.02 and rel <= 0.15,
            f"major fraction {frac:.4f} vs 0.5 +/- 0.02; "
            f"var {var:.4f} vs {VAR_GSE_MEAN2:.4f} (rel err {rel:.2%}, limit 15%)")


def test_criterion_6_multitype_threshold():
    kernel, _ = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
        theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.constant(1.0)))
    R = ef.compute_R(kernel.mu, np.array([0.5, 0.5]))
    # 2x2 oracle: M Pi = [[0.5, 1], [1, 2]] has trace 2.5 and determinant 0,
    # so its eigenvalues are exactly {2.5, 0}; E[D^2] = 2.5 cross-checks
    _report("criterion 6 (multitype threshold parameter)",
            abs(R - 2.5) <= 1e-9,
            f"R = {R!r} vs 2.5 (tolerance 1e-9)")


def test_criterion_7_random_allocation_correction():
    pi = np.array([0.5, 0.5])
    kernel, allocation = ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
        theta=[1.0, 2.0], pi=pi, w=ef.ScalarDist.constant(1.0)))
    spec = ef.PopulationSpec(m=2, pi=pi, N=10_000, a=[1, 1], allocation=allocation)
    ensemble = ef.run_ensemble(spec, kernel, 20_000, seed=777_001)

    sol = ef.solve_tau(kernel.mu, pi, np.zeros(2))
    with_correction = ef.asymptotic_covariance(
        kernel.mu, kernel.lam, pi, sol.tau, np.zeros(2),
        allocation=ef.Allocation.RANDOM_MULTINOMIAL).asym_cov
    without = ef.asymptotic_covariance(
        kernel.mu, kernel.lam, pi, sol.tau, np.zeros(2)).asym_cov

    majors = ensemble.t_inf[ensemble.major]
    scale = np.sqrt(spec.N * pi)
    y = (majors / (spec.N * pi) - sol.tau) * scale
    emp = np.cov(y, rowvar=False)
    d_with = float(np.linalg.norm(emp - with_correction))
    d_without = float(np.linalg.norm(emp - without))
    _report("criterion 7 (random-allocation covariance correction)",
            d_with < d_without,
            f"Frobenius to corrected {d_with:.4f} < uncorrected {d_without:.4f} "
            f"({len(majors)} major records)")


def test_criterion_8_branching_approximation():
    # total-size pmf on {0..10} against total branching progeny, 1e5 each;
    # the branching lines share the one stream replicate_rng(990_099, 0)
    n = 100_000
    upto = 10
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=10_000, a=[1])
    kernel = ef.constant_kernel([[1.5]])
    totals = ef.run_ensemble(spec, kernel, n, seed=880_088).total
    epi = np.bincount(totals[totals <= upto], minlength=upto + 1) / n

    # a line stops once its births pass upto: only totals <= upto are counted
    counts, exceeded = ef.simulate_progeny_lines(kernel, spec.pi, spec.a, upto, n,
                                                 ef.replicate_rng(990_099, 0))
    gw = np.bincount(counts[~exceeded].sum(axis=1), minlength=upto + 1) / n

    tv = 0.5 * float(np.abs(epi - gw).sum())
    _report("criterion 8 (branching total-progeny approximation)",
            tv <= 0.02,
            f"TV on totals 0..10 = {tv:.4f} (limit 0.02)")


def test_criterion_9_property_suites():
    failures = []

    # (a) sampled V stays in the unit cube
    rng = np.random.default_rng(5150)
    kernels = [
        ef.constant_kernel([[2.0]]),
        ef.mixed_bernoulli_kernel(ef.MixedGraphSpec(
            theta=[1.0, 2.0], pi=[0.5, 0.5], w=ef.ScalarDist.uniform(0.0, 1.0)))[0],
        ef.ball_clancy93_kernel(ef.BallClancy93Spec(
            b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]])),
        ef.dynamic_bernoulli_kernel(ef.DynamicGraphSpec(
            rho_plus=[[1.0]], rho_minus=[[1.0]], beta=[[1.0]],
            q=[ef.ScalarDist.exponential(1.0)])),
    ]
    for kernel in kernels:
        for i in range(kernel.m):
            draws = kernel.sample(i, 50, rng, size=100_000 // kernel.m)
            if draws.min() < 0.0 or draws.max() > 1.0:
                failures.append(f"V outside [0,1] for {kernel}")

    # (b) Xi and the asymptotic covariance stay PSD over randomized inputs
    for trial in range(20):
        trial_rng = np.random.default_rng(61_000 + trial)
        m = int(trial_rng.integers(1, 4))
        mu = trial_rng.uniform(0.3, 3.0, size=(m, m))
        pi = trial_rng.dirichlet(np.ones(m))
        lam = np.zeros((m, m, m))
        for k in range(m):
            a = trial_rng.normal(size=(m, m))
            lam[k] = a @ a.T
        zeta = np.abs(trial_rng.normal(0, 0.05, size=m))
        sol = ef.solve_tau(mu, pi, zeta)
        try:
            summary = ef.asymptotic_covariance(mu, lam, pi, sol.tau, zeta,
                                               allocation=ef.Allocation.RANDOM_MULTINOMIAL)
        except ef.SingularMatrixError:
            continue
        for matrix in (summary.xi, summary.xi + summary.upsilon, summary.asym_cov):
            if np.linalg.eigvalsh((matrix + matrix.T) / 2).min() < -1e-9:
                failures.append(f"non-PSD covariance piece in trial {trial}")
        if sol.residual > 1e-10:
            failures.append(f"fixed-point residual {sol.residual} > 1e-10")

    # (c) solver iterations are monotone
    mu, pi = np.array([[2.0, 0.5], [0.5, 1.5]]), np.array([0.4, 0.6])
    tau = np.ones(2)
    for _ in range(200):
        nxt = ef.limit_infection_probability(tau, mu, pi)
        if np.any(nxt > tau + 1e-15):
            failures.append("tau iteration not monotone nonincreasing")
        tau = nxt
    kernel = ef.constant_kernel(mu)
    q = np.zeros(2)
    for _ in range(200):
        nxt = np.array([kernel.u_mgf(k, (q - 1.0) * pi) for k in range(2)])
        if np.any(nxt < q - 1e-15):
            failures.append("extinction iteration not monotone nondecreasing")
        q = nxt

    # (d) indicator covariance within one type is nonnegative (4-SE slack)
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=6, a=[0])
    table = ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))])
    levels = [np.array([0.5]), np.array([0.8])]
    n_real = 100_000
    chi = counting_indicators(spec, table, levels, n_real, ef.replicate_rng(515_151, 0))
    chi_t, chi_u = chi[0][0][:, 0], chi[1][0][:, 1]
    x = chi_t.astype(float) - chi_t.mean()
    y = chi_u.astype(float) - chi_u.mean()
    cov = float(np.mean(x * y))
    se = float(np.std(x * y, ddof=1) / np.sqrt(n_real))
    if cov < -4 * se:
        failures.append(f"indicator covariance {cov} below -4 SE ({se})")

    # (e) fixed seeds reproduce bit-identically
    pop = ef.PopulationSpec(m=1, pi=[1.0], N=500, a=[1])
    gse = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    first = ef.run_ensemble(pop, gse, 50, seed=31_337)
    second = ef.run_ensemble(pop, gse, 50, seed=31_337)
    if not (np.array_equal(first.t_inf, second.t_inf)
            and np.array_equal(first.generations, second.generations)):
        failures.append("rerun with fixed seed not bit-identical")

    _report("criterion 9 (property suites)",
            not failures,
            "all property checks clean" if not failures else "; ".join(failures))

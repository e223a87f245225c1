import dataclasses
import warnings

import numpy as np
import pytest
from scipy import stats

import epifrost as ef
from epifrost.simulator import substreams

from oracles import (
    R_NU_HALF_N50,
    TAU_MU2,
    counting_indicators,
    evaluate_counting_process,
    exponential_hazard_pmf,
    reed_frost_pmf,
    scalar_tau,
)


def test_zero_kernel_means_no_epidemic():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=2, a=[1])
    record = ef.run_final_size(spec, ef.constant_kernel([[0.0]]), ef.replicate_rng(0, 0))
    assert record.total == 0
    assert record.generations == 0
    ensemble = ef.run_ensemble(spec, ef.constant_kernel([[0.0]]), 1, seed=0)
    assert ensemble.total[0] == 0 and ensemble.generations[0] == 0
    assert not ensemble.major[0]


def test_final_size_distribution_matches_enumeration_n2():
    # exhaustive chain enumeration: (0.25, 0.25, 0.5) for N=2, a=1, v=0.5
    pmf = reed_frost_pmf(2, 1, 0.5)
    assert pmf == pytest.approx([0.25, 0.25, 0.5], abs=1e-12)
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=2, a=[1])
    kernel = ef.constant_kernel([[1.0]])  # V = 1/2 at N=2
    counts = np.bincount(ef.run_ensemble(spec, kernel, 20_000, seed=101).total, minlength=3)
    _, p = stats.chisquare(counts, f_exp=pmf * counts.sum())
    assert p > 0.001


def test_final_size_distribution_matches_enumeration_n3():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=3, a=[1])
    kernel = ef.constant_kernel([[1.2]])  # V = 0.4 at N=3
    pmf = reed_frost_pmf(3, 1, 0.4)
    counts = np.bincount(ef.run_ensemble(spec, kernel, 20_000, seed=55).total, minlength=4)
    _, p = stats.chisquare(counts, f_exp=pmf * counts.sum())
    assert p > 0.001


def test_final_size_never_exceeds_susceptibles():
    spec = ef.PopulationSpec(m=2, pi=[0.4, 0.6], N=50, a=[2, 1])
    kernel = ef.static_bernoulli_kernel(ef.StaticGraphSpec(
        alpha=np.array([[5.0, 2.0], [2.0, 4.0]]), w=ef.ScalarDist.bernoulli(0.8)))
    for r in range(200):
        record = ef.run_final_size(spec, kernel, ef.replicate_rng(7, r))
        assert np.all(record.t_inf >= 0)
        assert np.all(record.t_inf <= record.population.n_susceptible)


def test_rerun_with_same_seed_is_bit_identical():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=500, a=[1])
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    a = ef.run_final_size(spec, kernel, ef.replicate_rng(9, 3))
    b = ef.run_final_size(spec, kernel, ef.replicate_rng(9, 3))
    assert np.array_equal(a.t_inf, b.t_inf)
    assert a.generations == b.generations


@pytest.mark.parametrize("name", ["mover", "mover_joint", "random_type"])
def test_summed_u_ensemble_equals_per_draw_ensemble(exponential_hazard_kernels, name):
    # equal in law: one draw of the summed U per (type, group) against the
    # per-infective log1p path, chi-square on total-size bins (pooled deciles)
    spec, kernel = exponential_hazard_kernels[name]
    spec = dataclasses.replace(spec, N=300)
    summed = ef.run_ensemble(spec, kernel, 4000, seed=71).total
    per_draw = ef.run_ensemble(spec, dataclasses.replace(kernel, u_sum=None), 4000, seed=72).total
    assert (summed >= ef.default_threshold(spec.N)).any()
    edges = np.unique(np.quantile(np.concatenate([summed, per_draw]), np.linspace(0, 1, 11)[1:-1]))
    table = np.stack([np.bincount(np.searchsorted(edges, x), minlength=len(edges) + 1)
                      for x in (summed, per_draw)])
    assert stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue > 1e-3


def _uniform_sojourn_mover():
    """The mover with uniform off-diagonal sojourns of the same means (0.25)."""
    diag = [[3.88, 0.1, 0.1], [0.1, 3.88, 0.1], [0.1, 0.1, 3.88]]
    return ef.ball_clancy93_kernel(ef.BallClancy93Spec(b=np.array([diag] * 3), sojourn=[
        [ef.ScalarDist.exponential(1.0) if i == j else ef.ScalarDist.uniform(0.0, 0.5)
         for j in range(3)] for i in range(3)]))


@pytest.mark.parametrize("name, escape_calls", [
    ("mover", 1),  # nine exponential (type, group) sums in one pooled call
    ("mover_uniform", 1 + 6),  # the pooled call, then one per uniform (type, group)
    ("mover_joint", 1),  # the constant sojourns draw nothing and take no generator
    ("random_type", 1),  # an exponential and a gamma law, pooled
    ("constant", 2),  # deterministic: one generator per type, as before, and no draw
    ("static_graph", 2),  # sampled: one generator per type, as before
])
def test_every_generation_makes_the_same_generator_calls(monkeypatch, exponential_hazard_kernels,
                                                          name, escape_calls):
    # per generation the escape term's calls, then one binomial, whoever is active;
    # random allocation adds one multinomial call before the first generation
    two_types = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=2000, a=[1, 1])
    spec, kernel = {
        **exponential_hazard_kernels,
        "mover_uniform": (exponential_hazard_kernels["mover"][0], _uniform_sojourn_mover()),
        "constant": (two_types, ef.constant_kernel([[1.5, 0.5], [0.2, 2.0]])),
        "static_graph": (two_types, ef.static_bernoulli_kernel(ef.StaticGraphSpec(
            alpha=[[6.0, 2.0], [2.0, 4.5]], w=ef.ScalarDist.beta(2.0, 3.0)))),
    }[name]
    calls = 0

    def counting_substreams(seed):
        fresh = substreams(seed)

        def counted():
            nonlocal calls
            calls += 1
            return fresh()
        return counted

    monkeypatch.setattr(ef.simulator, "substreams", counting_substreams)
    ensemble = ef.run_ensemble(spec, kernel, 200, seed=9)
    assert ensemble.major.any() and not ensemble.major.all()
    loops = int(ensemble.generations.max()) + 1  # the last one infects nobody
    split = spec.allocation is ef.Allocation.RANDOM_MULTINOMIAL
    assert calls == split + loops * (escape_calls + 1)


def test_exponential_hazard_final_size_matches_enumeration():
    # GSE with b = 2 at N = 6 against the exact chain, on the summed path and
    # on the per-infective path
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=6, a=[1])
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    pmf = exponential_hazard_pmf(kernel, 6, 1, 6)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf[0] == pytest.approx(1 / 3, abs=1e-12)  # E[exp(-U)] for U ~ Exp(mean 2)
    for path, seed in ((kernel, 606), (dataclasses.replace(kernel, u_sum=None), 607)):
        counts = np.bincount(ef.run_ensemble(spec, path, 40_000, seed=seed).total, minlength=7)
        assert stats.chisquare(counts, f_exp=pmf * counts.sum()).pvalue > 1e-3


def test_scalar_binomials_draw_what_one_vector_call_draws():
    # the generation loop draws one binomial per type; numpy's vector call runs
    # the same routine per element, so both take the same variates in order
    s = np.array([0, 7, 40, 10_000, 3, 500, 12, 0, 25, 2_000])
    p = np.array([0.3, 0.0, 1.0, 0.8, 0.5, 0.02, 0.999, 1.0, 0.6, 0.1])
    for seed in range(10):
        vector_rng, scalar_rng = ef.replicate_rng(seed, 0), ef.replicate_rng(seed, 0)
        for _ in range(5):  # repeats reuse numpy's cached binomial set-up
            vector = vector_rng.binomial(s, p)
            scalar = [int(scalar_rng.binomial(int(n), float(q))) for n, q in zip(s, p)]
            assert vector.tolist() == scalar
        # and both stop at the same place in the stream
        assert np.array_equal(vector_rng.bit_generator.random_raw(8),
                              scalar_rng.bit_generator.random_raw(8))


def test_certain_infection_on_the_sampled_path():
    # V_{0,0} = 1 (scaled value equal to N) on either drawn row, so log(1 - V)
    # = -inf infects every type-0 susceptible in the first generation,
    # silently; type 1 is never infected but its random rows keep lam != 0,
    # so the kernel is sampled
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=50, a=[1, 0])
    kernel = ef.table_kernel([(np.array([[50.0, 0.0], [50.0, 0.0]]), np.array([0.5, 0.5])),
                              (np.array([[0.0, 10.0], [0.0, 20.0]]), np.array([0.5, 0.5]))])
    assert not kernel.deterministic and kernel.u_sum is None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = ef.run_final_size(spec, kernel, ef.replicate_rng(5, 0))
    assert record.t_inf.tolist() == [25, 0]
    assert record.generations == 1


def test_certain_infection_on_the_deterministic_batched_path():
    # V_{0,0} = 1 on a deterministic two-type kernel, type 1 seeded: lines
    # without type-0 infectives must get escape term 0 from type 0 (not
    # 0 * -inf = nan), and one type-0 infective infects every remaining
    # type-0 susceptible in the next generation
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=50, a=[0, 1])
    kernel = ef.constant_kernel([[50.0, 5.0], [5.0, 5.0]])
    assert kernel.deterministic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ensemble = ef.run_ensemble(spec, kernel, 400, seed=6)
    type0 = ensemble.t_inf[:, 0]
    assert np.isin(type0, [0, 25]).all() and 0 < (type0 == 25).sum() < 400


def test_substream_calls_are_counter_offsets_of_replicate_zero():
    # call c re-keys to replicate_rng(seed, 0)'s key at counter (0, 0, c, 0)
    fresh = substreams(2**40 + 3)
    reference = ef.replicate_rng(2**40 + 3, 0)
    assert np.array_equal(fresh().random(5), reference.random(5))
    for c in (1, 2):
        bitgen = np.random.Philox(key=reference.bit_generator.state["state"]["key"],
                                  counter=[0, 0, c, 0])
        assert np.array_equal(fresh().binomial(100, 0.3, size=9),
                              np.random.Generator(bitgen).binomial(100, 0.3, size=9))


def test_run_ensemble_refuses_what_the_streams_cannot_key():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=50, a=[1])
    kernel = ef.constant_kernel([[2.0]])
    with pytest.raises(ValueError, match="at least 1 replicate"):
        ef.run_ensemble(spec, kernel, 0, seed=0)
    with pytest.raises(ValueError, match="workers must be 1"):
        ef.run_ensemble(spec, kernel, 5, seed=0, workers=2)
    with pytest.raises(ValueError, match="nonnegative"):
        ef.run_ensemble(spec, kernel, 5, seed=-1)


def test_ensemble_zero_kernel_all_empty():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=100, a=[1])
    ensemble = ef.run_ensemble(spec, ef.constant_kernel([[0.0]]), 100, seed=0)
    assert len(ensemble) == 100
    assert np.all(ensemble.total == 0)


def test_ensemble_major_fraction_const_mu2(const_mu2_ensemble):
    _, _, ensemble = const_mu2_ensemble
    stats_ = ef.estimate_outbreak_statistics(ensemble)
    assert abs(stats_.major_fraction - (1 - 0.2032)) < 0.02


def test_classify_outbreak_rules():
    make = lambda *totals: ef.Ensemble(
        seed=0, threshold=1000, t_inf=np.array(totals).reshape(-1, 1),
        generations=np.ones(len(totals), dtype=np.int64),
        n_susceptible=np.full((len(totals), 1), 10_000))
    assert ef.default_threshold(10_000) == 1000
    assert np.array_equal(make(3, 7950, 1000).major, [False, True, True])  # tie -> major
    # run_ensemble applies the default threshold for N = 10^4, or an override
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=10_000, a=[1])
    kernel = ef.constant_kernel([[2.0]])
    assert ef.run_ensemble(spec, kernel, 2, seed=0).threshold == 1000
    assert ef.run_ensemble(spec, kernel, 2, seed=0, threshold=0).major.all()
    with pytest.raises(ValueError):
        ef.run_ensemble(spec, kernel, 2, seed=0, threshold=-1)


def test_weak_lln_error_decreases_with_n():
    # major-conditional |mean final-size fraction - tau| shrinks as N grows
    kernel = ef.constant_kernel([[2.0]])
    tau = scalar_tau(2.0)
    errors = []
    for n in (100, 1000, 10_000):
        spec = ef.PopulationSpec(m=1, pi=[1.0], N=n, a=[1])
        ensemble = ef.run_ensemble(spec, kernel, 2000, seed=321 + n)
        fractions = ensemble.total[ensemble.major] / n
        errors.append(abs(np.mean(np.abs(fractions - tau))))
    assert errors[0] > errors[1] > errors[2]
    assert abs(fractions.mean() - TAU_MU2) < 0.01


# ---------------------------------------------------------------------------
# Counting process
# ---------------------------------------------------------------------------


def test_counting_process_zero_exposure():
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=20, a=[1, 1])
    kernel = ef.constant_kernel(np.full((2, 2), 2.0))
    x = evaluate_counting_process(spec, kernel, [np.zeros(2)], 1, ef.replicate_rng(0, 0))
    assert np.all(x == 0)


def test_counting_process_certain_infection():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=10, a=[2])
    kernel = ef.constant_kernel([[10.0]])  # V = 1 at N = 10
    t_max = np.array([(10 + 2) / 10.0])
    x = evaluate_counting_process(spec, kernel, [t_max], 1, ef.replicate_rng(1, 0))
    assert x[0, 0, 0] == 10


def test_counting_process_mean_matches_formula():
    # E[X(0.5)]/N = 1 - (1 - 2/N)^floor(0.5 N) at N = 50
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=50, a=[0])
    kernel = ef.constant_kernel([[2.0]])
    runs = 4000
    x = evaluate_counting_process(spec, kernel, [np.array([0.5])], runs, ef.replicate_rng(88, 0))
    mean_fraction = x.mean() / 50
    # each susceptible is infected independently at fixed V: X(0.5) is binomial
    se = np.sqrt(R_NU_HALF_N50 * (1 - R_NU_HALF_N50) / (50 * runs))
    assert abs(mean_fraction - R_NU_HALF_N50) < 4 * se


def test_counting_process_monotone_in_exposure():
    spec = ef.PopulationSpec(m=2, pi=[0.5, 0.5], N=40, a=[2, 2])
    kernel = ef.table_kernel([
        (np.array([[1.0, 2.0], [3.0, 0.5]]), np.array([0.5, 0.5])),
        (np.array([[2.0, 2.0]]), np.array([1.0])),
    ])
    levels = [np.array([0.2, 0.1]), np.array([0.5, 0.4]), np.array([1.0, 0.9])]
    x = evaluate_counting_process(spec, kernel, levels, 50, ef.replicate_rng(5, 0))
    assert np.all(x[0] <= x[1])
    assert np.all(x[1] <= x[2])


def test_counting_process_rejects_excess_exposure():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=10, a=[1])
    kernel = ef.constant_kernel([[1.0]])
    with pytest.raises(ValueError):
        evaluate_counting_process(spec, kernel, [np.array([2.0])], 1, ef.replicate_rng(0, 0))


def test_indicator_covariance_nonnegative():
    # same-type indicator covariances are >= 0 in theory; the sample version
    # over 1e5 realizations must not undercut zero by more than 4 SEs
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=6, a=[0])
    kernel = ef.table_kernel([(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))])
    levels = [np.array([0.5]), np.array([0.8])]
    realizations = 100_000
    chi = counting_indicators(spec, kernel, levels, realizations, ef.replicate_rng(303, 0))
    chi_t = chi[0][0][:, 0]  # individual j at exposure t
    chi_u = chi[1][0][:, 1]  # individual l != j at exposure u
    x = chi_t.astype(float) - chi_t.mean()
    y = chi_u.astype(float) - chi_u.mean()
    cov = float(np.mean(x * y))
    se = float(np.std(x * y, ddof=1) / np.sqrt(realizations))
    assert cov >= -4 * se

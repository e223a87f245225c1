import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special, stats

import epifrost as ef
from epifrost import distributions

from oracles import beta_mgf_by_quadrature

BUILT_IN_LAWS = [
    ef.ScalarDist.constant(1.5),
    ef.ScalarDist.exponential(2.0),
    ef.ScalarDist.gamma(2.5, 0.8),
    ef.ScalarDist.bernoulli(0.3),
    ef.ScalarDist.uniform(0.0, 1.0),
    ef.ScalarDist.uniform(0.5, 2.0),
    ef.ScalarDist.beta(2.0, 3.0),
    ef.ScalarDist.beta(0.5, 0.5),
    ef.ScalarDist.discrete([0.0, 1.0, 4.0], [0.2, 0.5, 0.3]),
]


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 0.5), (0.3, 4.0), (5.0, 0.7), (0.3, 0.3),
                                  (4.0, 0.3)])
@pytest.mark.parametrize("t", [0.0, -1.0, -6.0, -30.0, -100.0, -699.0, -701.0, -1000.0])
def test_beta_mgf_matches_quadrature(a, b, t):
    assert ef.ScalarDist.beta(a, b).mgf(t) == pytest.approx(beta_mgf_by_quadrature(a, b, t),
                                                            rel=1e-13)


@pytest.mark.parametrize("law", BUILT_IN_LAWS, ids=lambda law: law.name)
@pytest.mark.parametrize("t", [0.0, -0.5, -3.0, -40.0])
def test_mgf_prime_is_the_derivative_of_mgf(law, t):
    h = 1e-5 * max(1.0, abs(t))
    central = (law.mgf(t + h) - law.mgf(t - h)) / (2.0 * h)
    assert law.mgf_prime(t) == pytest.approx(central, rel=1e-7, abs=1e-14)


@pytest.mark.parametrize("law", BUILT_IN_LAWS, ids=lambda law: law.name)
def test_mgf_at_zero_gives_one_and_the_mean(law):
    assert law.mgf(0.0) == pytest.approx(1.0, rel=1e-14)
    assert law.mgf_prime(0.0) == pytest.approx(law.mean, rel=1e-14)


# each continuous law with its scipy.stats twin (for quad's density)
CONTINUOUS_LAWS = [
    (ef.ScalarDist.exponential(1.0), stats.expon(scale=1.0)),
    (ef.ScalarDist.gamma(0.5, 2.0), stats.gamma(0.5, scale=2.0)),
    (ef.ScalarDist.gamma(2.5, 0.6), stats.gamma(2.5, scale=0.6)),
    (ef.ScalarDist.beta(2.0, 3.0), stats.beta(2.0, 3.0)),
    (ef.ScalarDist.beta(0.5, 0.5), stats.beta(0.5, 0.5)),
    (ef.ScalarDist.uniform(0.2, 2.0), stats.uniform(0.2, 1.8)),
]
FINITE_LAWS = [
    (ef.ScalarDist.constant(1.5), [1.5], [1.0]),
    (ef.ScalarDist.bernoulli(0.3), [0.0, 1.0], [0.7, 0.3]),
    (ef.ScalarDist.discrete([0.0, 1.0, 4.0], [0.2, 0.5, 0.3]), [0.0, 1.0, 4.0], [0.2, 0.5, 0.3]),
]
# a cubic, and the dynamic graph's fast-decay factor exp(-d Q) at d E[Q] = 50
INTEGRANDS = {
    "cubic": lambda x, mean: 1.0 + x - 0.3 * x ** 2 + 0.05 * x ** 3,
    "fast-decay": lambda x, mean: np.exp(-50.0 * x / mean),
}


def _expect_by_quadrature(law, f):
    lo, hi = law.support()
    if isinstance(law.dist, stats.rv_continuous) and law.dist.name == "beta":
        a, b = law.args
        # weight="alg" folds x^(a-1) (1-x)^(b-1) into the rule, endpoint singularities included
        integral, _ = integrate.quad(f, 0.0, 1.0, weight="alg", wvar=(a - 1.0, b - 1.0),
                                     epsabs=0.0, epsrel=2e-14, limit=200)
        return integral / special.beta(a, b)
    # split at the mean so that a fast-decaying start is resolved on its own
    return sum(integrate.quad(lambda x: f(x) * law.pdf(x), a, b, epsabs=1e-16, epsrel=1e-13,
                              limit=200)[0] for a, b in ((lo, law.mean()), (law.mean(), hi)))


@pytest.mark.parametrize("integrand", INTEGRANDS)
@pytest.mark.parametrize("law, reference", CONTINUOUS_LAWS, ids=lambda x: getattr(x, "name", ""))
def test_expect_matches_quadrature(law, reference, integrand):
    def f(x):
        return INTEGRANDS[integrand](x, law.mean)

    seen = []
    value = law.expect(lambda x: seen.append(x) or f(x))
    assert value == pytest.approx(_expect_by_quadrature(reference, f), rel=1e-12, abs=1e-12)
    # the rule of half the nodes (every other one, step doubled) agrees
    nodes, weights = seen[0], law.rule()[1]
    half = weights[::2] / weights[::2].sum() @ f(nodes[::2])
    assert abs(value - half) <= 1e-13


@pytest.mark.parametrize("law, values, probs", FINITE_LAWS, ids=lambda x: getattr(x, "name", ""))
def test_expect_of_finite_laws_is_the_sum_over_atoms(law, values, probs):
    for f in INTEGRANDS.values():
        expected = sum(p * f(np.array([v]), 1.0)[0] for v, p in zip(values, probs))
        assert law.expect(lambda x: f(x, 1.0)) == pytest.approx(expected, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("law", BUILT_IN_LAWS, ids=lambda law: law.name)
def test_expect_is_an_expectation(law):
    # positive weights that sum to 1: E[1] = 1, the mean, and E[exp(tX)] = M(t)
    assert law.expect(np.ones_like) == pytest.approx(1.0, rel=1e-15)
    assert law.expect(lambda x: x) == pytest.approx(law.mean, rel=1e-13)
    for t in (-0.5, -3.0, -40.0):
        assert law.expect(lambda x: np.exp(t * x)) == pytest.approx(law.mgf(t), rel=1e-12)
    assert law.rule()[1].min() > 0.0


# fixed integrands for the pins below; the last gives an (n, 2) stack
EXPECT_FUNCTIONS = {
    "one": np.ones_like,
    "square": lambda x: x * x,
    "decay": lambda x: np.exp(-0.7 * x),
    "stack": lambda x: np.stack([np.sqrt(x), np.expm1(-x)], axis=1),
}

# E[f(X)] for each EXPECT_FUNCTIONS entry in turn (the stack's two columns last),
# as float.hex, for every built-in law
EXPECT_PINS = {
    "constant(1.5)": ["0x1.0000000000000p+0", "0x1.2000000000000p+1", "0x1.665614d045e77p-2",
                       "0x1.3988e1409212ep+0", "-0x1.8dc1e236d28f9p-1"],
    "exponential(mean=2.0)": ["0x1.0000000000000p+0", "0x1.0000000000001p+3", "0x1.aaaaaaaaaaaacp-2",
                               "0x1.40d931ff62707p+0", "-0x1.5555555555559p-1"],
    "gamma(shape=2.5, scale=0.8)": ["0x1.0000000000000p+0", "0x1.6666666666667p+2", "0x1.50e3e85e6638bp-2",
                                     "0x1.587ddfa2f5d70p+0", "-0x1.8a37212247ee1p-1"],
    "bernoulli(0.3)": ["0x1.0000000000000p+0", "0x1.3333333333333p-2", "0x1.b2acedbe13330p-1",
                        "0x1.3333333333333p-2", "-0x1.845ff79183d45p-3"],
    "uniform(0.0, 1.0)": ["0x1.0000000000000p+0", "0x1.5555555555555p-2", "0x1.70363e8f430d1p-1",
                           "0x1.5555555555551p-1", "-0x1.78b56362cef37p-2"],
    "uniform(0.5, 2.0)": ["0x1.0000000000000p+0", "0x1.c000000000000p+0", "0x1.bebf777c313f2p-2",
                           "0x1.1995ec17f6765p+0", "-0x1.5f2a51daadc46p-1"],
    "beta(2.0, 3.0)": ["0x1.fffffffffffffp-1", "0x1.9999999999999p-3", "0x1.86b79dc14a21cp-1",
                        "0x1.3813813813813p-1", "-0x1.4405450d9b4eep-2"],
    "beta(0.5, 0.5)": ["0x1.0000000000000p+0", "0x1.8000000000000p-2", "0x1.73ef48544b57ep-1",
                        "0x1.45f306dc9c882p-1", "-0x1.6b7bdfc29e173p-2"],
    "discrete([0.0, 1.0, 4.0])": ["0x1.0000000000000p+0", "0x1.5333333333333p+2", "0x1.ddbb86e0021f0p-2",
                                   "0x1.199999999999ap+0", "-0x1.389c0d7ee0e06p-1"],
}


@pytest.mark.parametrize("law", BUILT_IN_LAWS, ids=lambda law: law.name)
def test_expect_values_are_pinned(law):
    values = np.concatenate([np.asarray(law.expect(f), dtype=float).ravel()
                             for f in EXPECT_FUNCTIONS.values()])
    assert [float(v).hex() for v in values] == EXPECT_PINS[law.name]


def test_density_rules_are_built_lazily_and_once(monkeypatch):
    # constructing a law builds no rule; its first rule() builds the nodes,
    # and every later call returns those same arrays
    def refuse(*args):
        raise AssertionError("a rule was built at construction")

    with monkeypatch.context() as patch:
        patch.setattr(distributions, "_grid", refuse)
        laws = [ef.ScalarDist.gamma(2.5, 0.8), ef.ScalarDist.beta(2.0, 3.0),
                ef.ScalarDist.uniform(0.5, 2.0), ef.ScalarDist.exponential(2.0)]
    for law in laws:
        values, weights = law.rule()
        again = law.rule()
        assert again[0] is values and again[1] is weights


# laws whose density in z = log X or logit X has a slow tail (a shape below 0.17)
# or a peak narrower than the plain grid resolves (a shape above 36), each with
# E[X^j] in closed form
SLOW_AND_NARROW_LAWS = [
    *((ef.ScalarDist.gamma(k, 0.7), lambda j, k=k: 0.7 ** j * math.prod(k + i for i in range(j)))
      for k in (1e-3, 0.05, 100.0, 1e3)),
    *((ef.ScalarDist.beta(a, b), lambda j, a=a, b=b: math.prod((a + i) / (a + b + i) for i in range(j)))
      for a, b in ((0.01, 2.0), (0.05, 0.05), (3.0, 0.1), (500.0, 500.0), (5e3, 5e3), (1e4, 0.3))),
]


@pytest.mark.parametrize("law, moment", [pytest.param(law, moment, id=law.name)
                                         for law, moment in SLOW_AND_NARROW_LAWS])
def test_rules_of_slow_tailed_and_narrow_laws_give_their_moments(law, moment):
    values, weights = law.rule()
    assert weights.min() > 0.0 and weights.sum() == pytest.approx(1.0, rel=1e-15)
    for j in (1, 2, 3):
        assert law.expect(lambda x: x ** j) == pytest.approx(moment(j), rel=1e-13)
    assert law.expect(lambda x: (x - law.mean) ** 2) == pytest.approx(law.var, rel=1e-12)


def test_rules_of_denormal_shapes_are_built():
    # 1 / shape overflows: the grid stops at s = 708, and the law is a point mass
    # at 0 (gamma) or 1 (beta) to rounding
    gamma, beta = ef.ScalarDist.gamma(5e-324, 1.0), ef.ScalarDist.beta(2.0, 5e-324)
    for law in (gamma, beta):
        assert law.rule()[1].sum() == pytest.approx(1.0, rel=1e-15)
    assert gamma.mgf(-1.0) == pytest.approx(1.0, rel=1e-15)
    assert beta.mgf(-1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


SUM_SIZES = [1, 7, 1000]


def _sums(law, n, seed, draws=2000):
    rng = ef.replicate_rng(seed, n)
    return np.array([law.sample_sum(rng, n) for _ in range(draws)])


def _pooled(counts, expected, least=20.0):
    """Merge neighbouring support points until each bin expects at least ``least``."""
    bins, c, e = [], 0.0, 0.0
    for ci, ei in zip(counts, expected):
        c, e = c + ci, e + ei
        if e >= least:
            bins.append((c, e))
            c = e = 0.0
    bins[-1] = (bins[-1][0] + c, bins[-1][1] + e)
    return np.array(bins).T


def _sum_pmf(atoms, n):
    """pmf of the sum of n i.i.d. copies of an integer law, by convolution powers."""
    pmf = np.ones(1)
    for _ in range(n):
        pmf = np.convolve(pmf, atoms)
    return pmf


def _run_sum(run) -> float:
    """A run of draws added up as the sampled escape term adds each line's run."""
    return np.add.reduceat(run, [0])[0] if len(run) else 0.0


@pytest.mark.parametrize("n", SUM_SIZES)
@pytest.mark.parametrize("law, shape, scale", [(ef.ScalarDist.exponential(2.0), 1.0, 2.0),
                                               (ef.ScalarDist.gamma(2.5, 0.8), 2.5, 0.8)],
                         ids=["exponential", "gamma"])
def test_sample_sum_of_gamma_laws_is_gamma(law, shape, scale, n):
    # the sum of n Gamma(k, theta) is Gamma(n k, theta)
    sums = _sums(law, n, seed=31)
    assert stats.kstest(sums, lambda x: special.gammainc(n * shape, x / scale)).pvalue > 1e-3


@pytest.mark.parametrize("n", SUM_SIZES)
@pytest.mark.parametrize("law, atoms", [(ef.ScalarDist.bernoulli(0.3), [0.7, 0.3]),
                                        (ef.ScalarDist.discrete([0.0, 1.0, 4.0], [0.2, 0.5, 0.3]),
                                         [0.2, 0.5, 0.0, 0.0, 0.3])],
                         ids=["bernoulli", "discrete"])
def test_sample_sum_of_finite_laws_matches_the_exact_pmf(law, atoms, n):
    sums = _sums(law, n, seed=32)
    pmf = _sum_pmf(atoms, n)
    assert np.array_equal(sums, np.rint(sums)) and sums.max() < len(pmf)
    counts, expected = _pooled(np.bincount(sums.astype(int), minlength=len(pmf)), pmf * len(sums))
    assert stats.chisquare(counts, f_exp=expected * len(sums) / expected.sum()).pvalue > 1e-3


@pytest.mark.parametrize("n", SUM_SIZES)
@pytest.mark.parametrize("law", [ef.ScalarDist.constant(1.5), ef.ScalarDist.bernoulli(0.0),
                                 ef.ScalarDist.bernoulli(1.0), ef.ScalarDist.discrete([2.5], [1.0]),
                                 ef.ScalarDist.discrete([0.0, 3.0], [0.0, 1.0])],
                         ids=lambda law: law.name)
def test_sample_sum_of_a_degenerate_law_draws_nothing(law, n):
    rng, untouched = ef.replicate_rng(33, 0), ef.replicate_rng(33, 0)
    assert law.sample_sum(rng, n) == n * law.mean
    assert np.array_equal(rng.bit_generator.random_raw(8), untouched.bit_generator.random_raw(8))


@pytest.mark.parametrize("n", SUM_SIZES)
@pytest.mark.parametrize("law", [ef.ScalarDist.uniform(0.0, 1.0), ef.ScalarDist.uniform(0.5, 2.0),
                                 ef.ScalarDist.beta(2.0, 3.0), ef.ScalarDist.beta(0.5, 0.5)],
                         ids=lambda law: law.name)
def test_sample_sum_without_a_closed_form_adds_the_draws(law, n):
    rng, reference = ef.replicate_rng(34, n), ef.replicate_rng(34, n)
    for _ in range(3):
        assert law.sample_sum(rng, n) == _run_sum(law.sample(reference, n))


COUNTS = np.array([0, 3, 0, 7, 1, 0])


@pytest.mark.parametrize("law", [ef.ScalarDist.exponential(2.0), ef.ScalarDist.gamma(2.5, 0.8),
                                 ef.ScalarDist.bernoulli(0.3),
                                 ef.ScalarDist.discrete([0.0, 1.0, 4.0], [0.2, 0.5, 0.3])],
                         ids=lambda law: law.name)
def test_sample_sum_of_a_count_array_draws_entry_by_entry(law):
    # one vector call takes, entry by entry, the draws of one call per count,
    # and a zero count gives 0 and draws nothing
    rng, reference = ef.replicate_rng(35, 0), ef.replicate_rng(35, 0)
    for _ in range(3):
        sums = law.sample_sum(rng, COUNTS)
        assert sums.shape == COUNTS.shape
        assert np.array_equal(sums, [law.sample_sum(reference, n) for n in COUNTS.tolist()])
        assert not sums[COUNTS == 0].any()
    assert np.array_equal(rng.bit_generator.random_raw(8), reference.bit_generator.random_raw(8))


@pytest.mark.parametrize("law", [ef.ScalarDist.uniform(0.5, 2.0), ef.ScalarDist.beta(2.0, 3.0)],
                         ids=lambda law: law.name)
def test_sample_sum_of_a_count_array_adds_each_entrys_run_of_draws(law):
    rng, reference = ef.replicate_rng(36, 0), ef.replicate_rng(36, 0)
    for counts in (COUNTS, np.array([1000, 0, 999])):
        draws = law.sample(reference, int(counts.sum()))
        ends = np.cumsum(counts)
        assert np.array_equal(law.sample_sum(rng, counts),
                              [_run_sum(draws[end - n:end]) for n, end in zip(counts, ends)])
    assert np.array_equal(rng.bit_generator.random_raw(8), reference.bit_generator.random_raw(8))


@pytest.mark.parametrize("law", [ef.ScalarDist.uniform(0.5, 2.0), ef.ScalarDist.beta(2.0, 3.0)],
                         ids=lambda law: law.name)
def test_sample_sum_of_a_count_array_in_runs_matches_one_call(monkeypatch, law):
    # the entries' runs of draws are drawn in turn from one generator: the same
    # values, and the same generator state, as one call for all entries
    counts = np.array([0, 3, 1, 0, 11, 2, 0, 4, 4, 1])  # an entry of 11 outgrows a run of 5
    whole_rng, runs_rng = ef.replicate_rng(37, 0), ef.replicate_rng(37, 0)
    whole = law.sample_sum(whole_rng, counts)
    with monkeypatch.context() as patch:
        patch.setattr(ef.distributions, "_RUN", 5)
        runs = law.sample_sum(runs_rng, counts)
    assert np.array_equal(runs, whole)
    assert not whole[counts == 0].any() and (whole[counts > 0] > 0).all()
    assert np.array_equal(runs_rng.bit_generator.random_raw(8),
                          whole_rng.bit_generator.random_raw(8))


@pytest.mark.parametrize("law", [ef.ScalarDist.constant(1.5), ef.ScalarDist.bernoulli(1.0),
                                 ef.ScalarDist.discrete([0.0, 3.0], [0.0, 1.0])],
                         ids=lambda law: law.name)
def test_sample_sum_of_a_count_array_of_a_degenerate_law_draws_nothing(law):
    rng, untouched = ef.replicate_rng(33, 0), ef.replicate_rng(33, 0)
    assert np.array_equal(law.sample_sum(rng, COUNTS), COUNTS * law.mean)
    assert np.array_equal(rng.bit_generator.random_raw(8), untouched.bit_generator.random_raw(8))


def test_special_cases_keep_their_names_and_checks():
    # constant and exponential laws are built from discrete and gamma ones, and
    # the constant kernel from a table kernel; each keeps its own name and check
    assert ef.ScalarDist.constant(1.5).name == "constant(1.5)"
    assert ef.ScalarDist.exponential(2.0).name == "exponential(mean=2.0)"
    for law, message in [({"dist": "exponential", "mean": -1}, "exponential distribution needs mean > 0"),
                         ({"dist": "constant", "value": -1}, "constant distribution needs value >= 0")]:
        doc = {"population": {"m": 1, "pi": [1.0], "N": 100, "a": [1]},
               "kernel": {"kind": "ball_clancy95", "pi": [1.0], "u": [law]}, "replicates": 3}
        with pytest.raises(ef.ConfigError, match=message):
            ef.parse_config(doc)
    for scaled in (np.ones((2, 3)), -np.ones((2, 2))):
        with pytest.raises(ValueError, match="nonnegative square matrix"):
            ef.constant_kernel(scaled)


def _replaced_exponential(m: float) -> ef.ScalarDist:
    """exponential(m) as it was once built: gamma(1, m) with its name, M and M' replaced."""
    return replace(ef.ScalarDist.gamma(1.0, m), name=f"exponential(mean={m})",
                   mgf=lambda t: 1.0 / (1.0 - m * t), mgf_prime=lambda t: m / (1.0 - m * t) ** 2)


def _replaced_constant(v: float) -> ef.ScalarDist:
    """constant(v) as it was once built: discrete([v], [1]) with its name replaced."""
    return replace(ef.ScalarDist.discrete([v], [1.0]), name=f"constant({v})")


@pytest.mark.parametrize("law, reference", [
    *((ef.ScalarDist.exponential(m), _replaced_exponential(m)) for m in (1e-3, 0.25, 1.0, 2.0, 37.5)),
    *((ef.ScalarDist.constant(v), _replaced_constant(v)) for v in (0.0, 0.4, 1.5, 1e6)),
], ids=lambda law: law.name)
def test_direct_laws_equal_the_replaced_ones(law, reference):
    for attr in ("name", "mean", "var", "support_max", "gamma_shape_scale", "is_constant"):
        assert getattr(law, attr) == getattr(reference, attr)
    for t in (0.0, -0.3, -2.0, -50.0, -1e4):
        assert float(law.mgf(t)).hex() == float(reference.mgf(t)).hex()
        assert float(law.mgf_prime(t)).hex() == float(reference.mgf_prime(t)).hex()
    for mine, theirs in zip(law.rule(), reference.rule()):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    for size in (1, 1000, (40, 3)):
        rng, again = ef.replicate_rng(19, 0), ef.replicate_rng(19, 0)
        assert np.array_equal(law.sample(rng, size), reference.sample(again, size))
        assert np.array_equal(law.sample_sum(rng, COUNTS), reference.sample_sum(again, COUNTS))
        assert rng.random() == again.random()

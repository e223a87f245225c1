"""Multitype randomized Reed-Frost epidemics.

Exact generational final-size simulation, the deterministic attack-rate
fixed point and threshold parameter, the branching-process extinction
machinery, Gaussian final-size asymptotics (with the random-allocation
correction), and random-graph model front-ends.

The names below and the submodules load on first access (PEP 562), so
``import epifrost`` itself imports none of them.
"""

import importlib as _importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "branching": ("ExtinctionSolution", "TotalProgeny", "extinction_probability",
                  "simulate_progeny_lines", "simulate_total_progeny"),
    "clt": ("AsymptoticSummary", "GaussianCheckReport", "asymptotic_covariance", "compute_u",
            "compute_xi", "gaussian_check", "mardia_test"),
    "config": ("ExperimentConfig", "load_config", "parse_config"),
    "deterministic": ("DeterministicSolution", "Regime", "check_irreducibility", "compute_R",
                      "limit_infection_probability", "solve_tau"),
    "distributions": ("ScalarDist",),
    "errors": ("ConfigError", "ConvergenceError", "InsufficientDataError",
               "SingularMatrixError"),
    "graphs": ("BallClancy93Spec", "DynamicGraphSpec", "MixedGraphSpec", "StaticGraphSpec",
               "ball_clancy93_kernel", "ball_clancy95_model", "dynamic_bernoulli_kernel",
               "mixed_bernoulli_kernel", "static_bernoulli_kernel"),
    "harness": ("OutbreakStatistics", "ValidationReport", "estimate_outbreak_statistics",
                "run_experiment", "write_records"),
    "kernel": ("Allocation", "InfectivityKernel", "PopulationSpec", "ResolvedPopulation",
               "constant_kernel", "resolve_population", "table_kernel"),
    "simulator": ("Ensemble", "FinalSizeRecord", "default_threshold", "replicate_rng",
                  "run_ensemble", "run_final_size"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    # a name is looked up in its module on every access, not cached here, so
    # ``epifrost.X`` always is the module's current binding of X
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

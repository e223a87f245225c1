"""What each entry point loads: the package resolves its names on first access,
``load_config`` imports graphs only for a graph kind, each command imports
only the layers it runs, and no command needs scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import epifrost as ef

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"

LAYERS = ("branching", "clt", "config", "deterministic", "distributions", "errors", "graphs",
          "harness", "kernel", "simulator")

# the public namespace of the package when its __init__ imported every submodule
PUBLIC = (
    "ExtinctionSolution", "TotalProgeny", "extinction_probability", "simulate_progeny_lines",
    "simulate_total_progeny",
    "AsymptoticSummary", "GaussianCheckReport", "asymptotic_covariance", "compute_u",
    "compute_xi", "gaussian_check", "mardia_test",
    "ExperimentConfig", "load_config", "parse_config",
    "DeterministicSolution", "Regime", "check_irreducibility", "compute_R",
    "limit_infection_probability", "solve_tau",
    "ScalarDist",
    "ConfigError", "ConvergenceError", "InsufficientDataError", "SingularMatrixError",
    "BallClancy93Spec", "DynamicGraphSpec", "MixedGraphSpec", "StaticGraphSpec",
    "ball_clancy93_kernel", "ball_clancy95_model", "dynamic_bernoulli_kernel",
    "mixed_bernoulli_kernel", "static_bernoulli_kernel",
    "OutbreakStatistics", "ValidationReport", "estimate_outbreak_statistics", "run_experiment",
    "write_records",
    "Allocation", "InfectivityKernel", "PopulationSpec", "ResolvedPopulation",
    "constant_kernel", "resolve_population", "table_kernel",
    "Ensemble", "FinalSizeRecord", "default_threshold", "replicate_rng", "run_ensemble",
    "run_final_size",
) + LAYERS


def _run(code: str, *args: str) -> str:
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout


# the epifrost modules loaded after each step, in one fresh interpreter
STEPS = """
import contextlib, io, json, sys

def loaded():
    return sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("epifrost."))

config, out = sys.argv[1:]
steps = {}
import epifrost
steps["import"] = loaded()
from epifrost.config import load_config
load_config(config)
steps["load_config"] = loaded()
from epifrost import cli
for command in ("solve", "extinction", "clt", "graph"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", config]) == 0
    steps[command] = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(["validate", "--config", config, "--replicates", "200", "--out", out])
steps["validate"] = loaded()
print(json.dumps(steps))
"""


def test_each_step_loads_only_the_layers_it_runs(tmp_path):
    steps = json.loads(_run(STEPS, str(CONFIGS / "rf_validate.json"), str(tmp_path / "rf.csv")))
    assert steps["import"] == []
    assert steps["load_config"] == ["config", "distributions", "errors", "kernel"]
    for command in ("solve", "extinction", "clt", "graph"):
        assert not {"graphs", "simulator", "harness"} & set(steps[command]), command
    # every layer but graphs, which only a graph or mover kind loads
    assert steps["validate"] == sorted({*LAYERS, "cli"} - {"graphs"})


def test_a_graph_kind_loads_graphs_and_the_layer_it_uses():
    code = ("import sys, epifrost as ef; ef.load_config(sys.argv[1]); "
            "print(sorted(m for m in sys.modules if m.startswith('epifrost.')))")
    loaded = _run(code, str(CONFIGS / "theory_static_graph.json")).strip()
    assert loaded == str([f"epifrost.{m}" for m in
                          ("config", "deterministic", "distributions", "errors", "graphs",
                           "kernel")])


def test_all_is_the_public_namespace_and_each_name_is_its_home_modules():
    assert sorted(ef.__all__) == sorted(PUBLIC)
    assert len(ef.__all__) == len(set(ef.__all__))
    for name in ef.__all__:
        obj = getattr(ef, name)
        if name in LAYERS:
            assert obj is sys.modules[f"epifrost.{name}"]
        else:
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(ef.__all__) <= set(dir(ef))
    # cli joins the namespace once something imports it, as any submodule would
    assert {name for name in dir(ef) if not name.startswith("_")} - {"cli"} == set(PUBLIC)
    assert ef.__version__ == "0.1.0"


def test_names_and_layers_resolve_without_a_prior_import():
    code = ("import sys, epifrost as ef\n"
            "print(ef.simulator.__name__, ef.distributions.__name__)\n"
            "from epifrost import run_ensemble, ScalarDist\n"
            "print(run_ensemble is sys.modules['epifrost.simulator'].run_ensemble,"
            " ScalarDist is ef.distributions.ScalarDist)\n"
            "namespace = {}\n"
            "exec('from epifrost import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == sorted(ef.__all__))")
    assert _run(code).split() == ["epifrost.simulator", "epifrost.distributions",
                                  "True", "True", "True"]


@pytest.mark.parametrize("name", ["no_such_name", "cli_main", "_HOMES"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ef, name)
    assert not hasattr(ef, name)


# each command's exit code and stdout, in one fresh interpreter; "block" first
# makes every import of scipy, or of any of its modules, raise ImportError
COMMANDS = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from epifrost import cli
calls = json.loads(sys.argv[2])
outputs = []
for call in calls:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(call)
    outputs.append([code, stdout.getvalue()])
print(json.dumps(outputs))
"""


def test_no_command_imports_scipy(tmp_path):
    calls = [[command, "--config", str(path)] for path in sorted(CONFIGS.glob("*.json"))
             for command in ("solve", "extinction", "clt", "graph")]
    calls += [["validate", "--config", str(CONFIGS / name), "--out", str(tmp_path / f"{name}.csv")]
              for name in ("rf_validate.json", "mover_ensemble.json")]
    blocked = json.loads(_run(COMMANDS, "block", json.dumps(calls)))
    free = json.loads(_run(COMMANDS, "free", json.dumps(calls)))
    assert len(calls) == 42 and all(code in (0, 1) for code, _ in free)
    for call, without, with_scipy in zip(calls, blocked, free):
        assert without == with_scipy, call

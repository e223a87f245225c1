"""Tests of the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/test_run.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    # failed_fraction is zero on a correct library, so it is printed but is not one of
    # the metrics in BENCHMARK.json
    assert any(line.startswith("metric failed_fraction 0.0 ratio ") for line in lines)
    for name, unit in {m["name"]: m["unit"] for m in expected}.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    manifest = json.loads(next(line for line in lines if line.startswith("manifest "))[9:])
    for key in ("nproc", "python", "numpy", "scipy", "git_commit", "seed", "blas_threads",
                "operations"):
        assert key in manifest
    assert manifest["seed"] == 5


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "rf_validate", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("config", ["theory_constant_R1_0001.json", "theory_static_graph.json"])
def test_theory_checks_reject_trivial_and_inaccurate_roots(config):
    sys.path.insert(0, str(BENCH))
    import run

    lib = run.import_library()
    cfg = run.ConfigRef.load(config)
    outputs = {cmd: json.loads(run.call_cli(lib, [cmd, "--config", str(cfg.path)])[1])
               for cmd in run.THEORY_COMMANDS}
    assert not any(run.check_theory(cfg, outputs).values())
    wrong_answers = [("solve", "tau", lambda t: 0.0 * t),  # the trivial root
                     ("solve", "tau", lambda t: 1.05 * t),
                     ("extinction", "q", lambda q: q ** 0.0),  # the trivial root
                     ("extinction", "q", lambda q: q + 0.05 * (1.0 - q))]
    for cmd, key, wrong in wrong_answers:
        bad = copy.deepcopy(outputs)
        bad[cmd][key] = wrong(np.asarray(bad[cmd][key])).tolist()
        assert run.check_theory(cfg, bad)[cmd], (cmd, key)

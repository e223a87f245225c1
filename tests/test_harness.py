import json
import os
import subprocess
import sys

import numpy as np
import pytest

import epifrost as ef
from epifrost import cli, harness
from epifrost.config import parse_config
from epifrost.errors import ConfigError


def _base_config(tmp_path, **overrides):
    doc = {
        "population": {"m": 1, "pi": [1.0], "N": 500, "a": [1]},
        "kernel": {"kind": "constant", "mu": [[2.0]]},
        "replicates": 200,
        "seed": 11,
        "output": {"path": str(tmp_path / "records.csv"), "format": "csv"},
        "checks": [],
    }
    doc.update(overrides)
    return doc


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_parse_minimal_config(tmp_path):
    config = parse_config(_base_config(tmp_path))
    assert config.population.N == 500
    assert config.kernel.mu[0, 0] == 2.0
    assert config.replicates == 200


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"population": {"m": 1,,}}')
    with pytest.raises(ConfigError, match=r"line 1 column"):
        ef.load_config(path)


def test_unknown_kernel_kind_rejected(tmp_path):
    doc = _base_config(tmp_path, kernel={"kind": "magic"})
    with pytest.raises(ConfigError, match="unknown kind"):
        parse_config(doc)


def test_unknown_check_rejected(tmp_path):
    doc = _base_config(tmp_path, checks=["lln", "nonsense"])
    with pytest.raises(ConfigError, match="nonsense"):
        parse_config(doc)


def test_population_kernel_type_mismatch(tmp_path):
    doc = _base_config(tmp_path)
    doc["kernel"] = {"kind": "constant", "mu": [[1.0, 1.0], [1.0, 1.0]]}
    with pytest.raises(ConfigError, match="types"):
        parse_config(doc)


def test_mixed_bernoulli_forces_random_allocation(tmp_path):
    doc = {
        "population": {"N": 1000, "a": [1, 0], "allocation": "deterministic"},
        "kernel": {"kind": "mixed_bernoulli", "theta": [1.0, 2.0], "pi": [0.5, 0.5],
                   "w": {"dist": "constant", "value": 1.0}},
        "replicates": 1,
        "seed": 0,
    }
    config = parse_config(doc)
    assert config.population.allocation is ef.Allocation.RANDOM_MULTINOMIAL
    assert np.allclose(config.population.pi, [0.5, 0.5])


def test_population_pi_conflict_with_kernel(tmp_path):
    doc = {
        "population": {"N": 1000, "a": [1, 0], "pi": [0.3, 0.7]},
        "kernel": {"kind": "mixed_bernoulli", "theta": [1.0, 2.0], "pi": [0.5, 0.5],
                   "w": {"dist": "constant", "value": 1.0}},
    }
    with pytest.raises(ConfigError, match="conflicts"):
        parse_config(doc)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_zero_kernel_major_prob_check_passes(tmp_path):
    doc = _base_config(tmp_path, kernel={"kind": "constant", "mu": [[0.0]]},
                       checks=["major_prob"])
    records_path, report = ef.run_experiment(parse_config(doc))
    assert report.all_passed
    assert len(report.checks) == 1
    assert report.checks[0].theoretical["major_probability"] == 0.0
    assert report.checks[0].empirical["major_fraction"] == 0.0
    assert records_path.exists()


def test_report_contains_every_enabled_check_once(tmp_path):
    doc = _base_config(tmp_path, replicates=2000,
                       population={"m": 1, "pi": [1.0], "N": 1000, "a": [1]},
                       checks=["lln", "major_prob", "clt", "branching_tv"])
    _, report = ef.run_experiment(parse_config(doc))
    names = [c.name for c in report.checks]
    assert names == ["lln", "major_prob", "clt", "branching_tv"]
    for check in report.checks:
        assert check.theoretical and check.empirical and check.standard_error is not None
    payload = json.loads(report.to_json())
    assert {c["name"] for c in payload["checks"]} == set(names)


def test_failing_check_detected(tmp_path):
    # threshold 0 makes every replicate "major", dragging the conditional
    # mean far below the attack rate
    doc = _base_config(tmp_path, threshold_override=0, replicates=400,
                       checks=["lln"])
    _, report = ef.run_experiment(parse_config(doc))
    assert not report.all_passed


def test_records_byte_identical_across_workers(tmp_path):
    doc = _base_config(tmp_path)
    first = parse_config(doc)
    ef.run_experiment(first)
    first_bytes = (tmp_path / "records.csv").read_bytes()

    doc["workers"] = 4
    doc["output"]["path"] = str(tmp_path / "records2.csv")
    ef.run_experiment(parse_config(doc))
    assert (tmp_path / "records2.csv").read_bytes() == first_bytes


def test_csv_layout(tmp_path):
    doc = _base_config(tmp_path, replicates=3)
    ef.run_experiment(parse_config(doc))
    lines = (tmp_path / "records.csv").read_text().splitlines()
    assert lines[0].startswith("# epifrost records v1")
    assert lines[1] == "replicate,seed,t_1,total,generations,class"
    assert len(lines) == 2 + 3
    first = lines[2].split(",")
    assert first[0] == "0" and first[1] == "11"
    assert first[5] in ("major", "minor")


def test_jsonl_records(tmp_path):
    doc = _base_config(tmp_path, replicates=3)
    doc["output"] = {"path": str(tmp_path / "records.jsonl"), "format": "jsonl"}
    ef.run_experiment(parse_config(doc))
    rows = [json.loads(line) for line in (tmp_path / "records.jsonl").read_text().splitlines()]
    assert len(rows) == 3
    assert set(rows[0]) == {"replicate", "seed", "t_inf", "total", "generations", "class"}


def test_estimate_outbreak_statistics_all_minor():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=100, a=[1])
    records = ef.run_ensemble(spec, ef.constant_kernel([[0.0]]), 50, seed=1)
    stats = ef.estimate_outbreak_statistics(records)
    assert stats.major_fraction == 0.0
    assert stats.major_mean_fraction is None
    assert stats.minor_histogram == {0: 50}


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_simulate_and_validate(tmp_path, capsys):
    doc = _base_config(tmp_path, replicates=300, checks=["major_prob"])
    path = _write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replicates"] == 300

    assert cli.main(["validate", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"]


def test_cli_validate_check_failure_exit_code(tmp_path, capsys):
    doc = _base_config(tmp_path, threshold_override=0, replicates=300, checks=["lln"])
    path = _write_config(tmp_path, doc)
    assert cli.main(["validate", "--config", path]) == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err
    assert cli.main(["solve", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_infectivity_above_population_scale_is_config_error(tmp_path, capsys):
    doc = _base_config(tmp_path, kernel={"kind": "constant", "mu": [[200.0]]})
    doc["population"]["N"] = 100
    path = _write_config(tmp_path, doc)
    for command in ("simulate", "validate"):
        assert cli.main([command, "--config", path]) == 2
        assert "exceeds population scale" in capsys.readouterr().err


def test_cli_sampling_value_error_exit_code(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise ValueError("sampler refused its input")

    monkeypatch.setattr(harness, "run_ensemble", refuse)
    path = _write_config(tmp_path, _base_config(tmp_path, checks=["lln"]))
    for command in ("simulate", "validate"):
        assert cli.main([command, "--config", path]) == 2
        assert "config error: sampler refused its input" in capsys.readouterr().err


def test_import_leaves_out_scipy_stats_and_sparse():
    code = ("import sys, epifrost; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.sparse'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "[]"


def test_cli_numerical_failure_exit_code(tmp_path, capsys):
    # exactly critical kernel: tau = 0, sigma = 1 makes the transport matrix
    # singular, which the clt command must surface as a numerical failure
    doc = _base_config(tmp_path, kernel={"kind": "constant", "mu": [[1.0]]})
    doc["population"]["a"] = [0]
    path = _write_config(tmp_path, doc, "critical.json")
    assert cli.main(["clt", "--config", path]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_solve_extinction_clt_graph(tmp_path, capsys):
    doc = _base_config(tmp_path)
    path = _write_config(tmp_path, doc)

    assert cli.main(["solve", "--config", path]) == 0
    solved = json.loads(capsys.readouterr().out)
    assert solved["R"] == pytest.approx(2.0)
    # solve uses the configured seed intensity zeta = a/(N pi) = 0.002
    assert solved["tau"][0] == pytest.approx(0.7968, abs=5e-3)
    assert solved["regime"] == "supercritical"

    assert cli.main(["extinction", "--config", path]) == 0
    ext = json.loads(capsys.readouterr().out)
    assert ext["q"][0] == pytest.approx(0.2032, abs=1e-3)
    assert ext["major_outbreak_prob"] == pytest.approx(0.7968, abs=1e-3)

    assert cli.main(["clt", "--config", path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["asym_cov"][0][0] == pytest.approx(0.4594, abs=1e-2)
    assert summary["cond_u"] >= 1.0

    graph_doc = {
        "population": {"N": 1000, "a": [1, 0]},
        "kernel": {"kind": "mixed_bernoulli", "theta": [1.0, 2.0], "pi": [0.5, 0.5],
                   "w": {"dist": "constant", "value": 1.0}},
    }
    graph_path = _write_config(tmp_path, graph_doc, "graph.json")
    assert cli.main(["graph", "--config", graph_path]) == 0
    compiled = json.loads(capsys.readouterr().out)
    assert compiled["R"] == pytest.approx(2.5, abs=1e-9)
    assert compiled["mu"] == [[1.0, 2.0], [2.0, 4.0]]


def test_cli_overrides(tmp_path, capsys):
    doc = _base_config(tmp_path, replicates=5)
    path = _write_config(tmp_path, doc)
    out_path = tmp_path / "override.csv"
    assert cli.main(["simulate", "--config", path, "--seed", "99",
                     "--replicates", "7", "--out", str(out_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["replicates"] == 7
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2 + 7
    assert lines[2].split(",")[1] == "99"

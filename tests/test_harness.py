import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import epifrost as ef
from epifrost import cli, config, harness
from epifrost.config import parse_config
from epifrost.errors import ConfigError


RF_VALIDATE = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "rf_validate.json"


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


@pytest.mark.parametrize("block, key", [
    (None, "replicate"),  # a typo of "replicates": it used to run one replicate
    (None, "extinction_mc_samples"),  # no longer a field: h is exact for every kernel
    ("population", "allocaton"),
    ("output", "fromat"),
])
def test_unknown_fields_rejected(tmp_path, capsys, block, key):
    doc = _base_config(tmp_path)
    (doc if block is None else doc[block])[key] = 5
    with pytest.raises(ConfigError, match=f"unknown field '{key}'; valid fields are"):
        parse_config(doc)
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc)]) == 2
    assert f"unknown field '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("w_extra, kernel_extra, message", [
    ({}, {"w_mod": "shared"}, "unknown field 'w_mod'; valid fields are"),  # loaded as independent
    ({"meen": 0.4}, {}, "unknown field 'meen'; valid fields are"),
])
def test_unknown_kernel_and_scalar_law_fields_rejected(tmp_path, capsys, w_extra, kernel_extra,
                                                       message):
    doc = _base_config(tmp_path, kernel={"kind": "static_graph", "alpha": [[2.0]],
                                         "w": {"dist": "beta", "a": 2.0, "b": 3.0, **w_extra},
                                         **kernel_extra})
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


def test_unknown_custom_table_row_field_rejected(tmp_path, capsys):
    # the "prob" typo used to load, silently ignored (mu [[2.0]])
    row = {"values": [[1.0], [3.0]], "probs": [0.5, 0.5], "prob": [0.9, 0.1]}
    doc = _base_config(tmp_path, kernel={"kind": "custom_table", "rows": [row]})
    message = "kernel.rows: unknown field 'prob'; valid fields are"
    with pytest.raises(ConfigError, match=message):
        parse_config(doc)
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("block, kernel, population, message", [
    ("kernel", {"kind": "constant"}, None, "kernel (constant): missing required field 'mu'"),
    ("population", None, {"m": 1, "pi": [1.0], "a": [1]},
     "population: missing required field 'N'"),
    ("kernel", {"kind": "custom_table",
                "rows": [{"values": [[1.0]], "probs": [1.0], "prob": [1.0]}]},
     None, "kernel.rows: unknown field 'prob'; valid fields are ('values', 'probs')"),
    ("kernel", {"kind": "static_graph", "alpha": [[2.0]], "w": {"dist": "beta", "a": 2.0}}, None,
     "kernel.w (beta): missing required field 'b'"),
])
def test_config_errors_name_their_block_once(tmp_path, block, kernel, population, message):
    # a ConfigError is a ValueError, which the kernel and population blocks used to
    # prefix again: "population: population: missing required field 'N'"
    doc = _base_config(tmp_path)
    doc["kernel"] = kernel or doc["kernel"]
    doc["population"] = population or doc["population"]
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message
    assert str(info.value).count(block) == 1


@pytest.mark.parametrize("name", ["from_config", "is_constant", "__init__", "__class__", "trap"])
def test_law_and_kind_names_are_looked_up_only_in_their_tables(tmp_path, monkeypatch, name):
    # a name that is an attribute, but not a law or a kind, is refused and never called
    def trap(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(ef.ScalarDist, "trap", staticmethod(trap), raising=False)
    monkeypatch.setattr(config, "trap", trap, raising=False)
    law = {"kind": "static_graph", "alpha": [[2.0]], "w": {"dist": name, "value": 0.5}}
    for kernel, tag in [(law, "dist"), ({"kind": name, "value": 0.5}, "kind")]:
        with pytest.raises(ConfigError) as info:
            parse_config(_base_config(tmp_path, kernel=kernel))
        assert f"unknown {tag} {name!r}; valid {tag}s are ('constant', " in str(info.value)


def test_perfbench_configs_parse():
    configs = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "configs").glob("*.json"))
    assert len(configs) == 10
    for path in configs:
        ef.load_config(path)


def test_cli_dynamic_graph_without_rho_plus_is_config_error(tmp_path, capsys):
    doc = _base_config(tmp_path)
    doc["kernel"] = {"kind": "dynamic_graph", "rho_minus": [[1.0]], "beta": [[1.0]],
                     "q": {"dist": "exponential", "mean": 1.0}}
    with pytest.raises(ConfigError, match="missing required field 'rho_plus'"):
        parse_config(doc)
    assert cli.main(["solve", "--config", _write_config(tmp_path, doc)]) == 2
    assert "missing required field 'rho_plus'" in capsys.readouterr().err


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


def test_branching_tv_allows_for_sampling_noise_and_detects_a_wrong_law():
    # the benchmark's Reed-Frost validation at seed 21, the first seed where a
    # fixed limit of 0.02 fails on noise alone (TV 0.0209, limit 0.0435); a
    # mu = 1.8 law is 0.07 away in TV on 0..10
    config = parse_config(json.loads(RF_VALIDATE.read_text()))
    pop = config.population
    ensemble = ef.run_ensemble(pop, config.kernel, config.replicates, seed=21)
    right = harness._check_branching_tv(ensemble, config.kernel, pop.pi, pop.a, seed=21)
    wrong = harness._check_branching_tv(ensemble, ef.constant_kernel([[1.8]]), pop.pi, pop.a,
                                       seed=21)
    assert right.empirical["tv_distance"] > 0.02 and right.passed
    assert not wrong.passed
    assert right.tolerance["tv"] == pytest.approx(0.02 + 4 * right.tolerance["tv_se"])


def test_branching_tv_passes_on_an_exponential_hazard_kernel(gse_ensemble):
    # the branching lines draw the parents' summed U from its Gamma law; a constant
    # kernel with the same mean (Poisson offspring, not geometric) is far off in TV
    spec, kernel, ensemble = gse_ensemble
    right = harness._check_branching_tv(ensemble, kernel, spec.pi, spec.a, seed=515)
    wrong = harness._check_branching_tv(ensemble, ef.constant_kernel(kernel.mu), spec.pi, spec.a,
                                        seed=515)
    assert right.passed and not wrong.passed


def test_rf_validate_report_matches_golden_sha256(tmp_path, capsys):
    # pins the branching_tv stream (all lines from replicate_rng(seed + 1, 0))
    # next to the ensemble's records, which the branching stream leaves alone
    out = tmp_path / "records.csv"
    assert cli.main(["validate", "--config", str(RF_VALIDATE), "--seed", "3",
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "cfd7aa3cdb82bb970c34231da08b61a9b780a3015fedafc0bd4595ef49264b21")
    report = Path(str(out) + ".report.json")
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "4612596c58cf4824560ae8329c9b1e48e81a830cc92cc1a1dcc736aac0000423")


def test_failing_check_detected(tmp_path):
    # threshold 0 makes every replicate "major", dragging the conditional
    # mean far below the attack rate
    doc = _base_config(tmp_path, threshold_override=0, replicates=400,
                       checks=["lln"])
    _, report = ef.run_experiment(parse_config(doc))
    assert not report.all_passed


def test_workers_other_than_one_is_config_error(tmp_path, capsys):
    doc = _base_config(tmp_path, workers=1)
    assert parse_config(doc).replicates == 200
    doc["workers"] = 4
    with pytest.raises(ConfigError, match="workers must be 1"):
        parse_config(doc)
    path = _write_config(tmp_path, doc)
    assert cli.main(["simulate", "--config", path]) == 2
    assert "workers must be 1" in capsys.readouterr().err


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


_MOVER_DIAG = [[3.88, 0.1, 0.1], [0.1, 3.88, 0.1], [0.1, 0.1, 3.88]]
GOLDEN_CONFIGS = {
    "reed_frost": {"population": {"m": 1, "pi": [1.0], "N": 10_000, "a": [1]},
                   "kernel": {"kind": "constant", "mu": [[1.5]]}},
    "mover": {"population": {"m": 3, "pi": [0.5, 0.3, 0.2], "N": 20_000, "a": [1, 0, 0],
                             "allocation": "random_multinomial"},
              "kernel": {"kind": "ball_clancy93", "b": [_MOVER_DIAG] * 3,
                         "sojourn": [[{"dist": "exponential", "mean": 1.0 if i == j else 0.25}
                                      for j in range(3)] for i in range(3)]}},
    "random_type": {"population": {"m": 2, "N": 10_000, "a": [1, 0]},
                    "kernel": {"kind": "ball_clancy95", "pi": [0.6, 0.4],
                               "u": [{"dist": "exponential", "mean": 1.8},
                                     {"dist": "gamma", "shape": 2.0, "scale": 0.9}]}},
    "static_graph": {"population": {"m": 2, "pi": [0.5, 0.5], "N": 10_000, "a": [1, 0]},
                     "kernel": {"kind": "static_graph", "alpha": [[6.0, 2.0], [2.0, 4.5]],
                                "w": {"dist": "beta", "a": 2.0, "b": 3.0},
                                "w_mode": "independent"}},
    "mixed_bernoulli": {"population": {"m": 2, "N": 10_000, "a": [1, 0]},
                        "kernel": {"kind": "mixed_bernoulli", "theta": [1.0, 2.5], "pi": [0.7, 0.3],
                                   "w": {"dist": "beta", "a": 2.0, "b": 2.0}}},
    # m > 1 deterministic kernel, both types seeded: escape terms without draws
    "constant_two_type": {"population": {"m": 2, "pi": [0.6, 0.4], "N": 10_000, "a": [1, 1]},
                          "kernel": {"kind": "constant", "mu": [[2.0, 1.0], [0.8, 1.5]]}},
    "custom_table": {"population": {"m": 2, "pi": [0.5, 0.5], "N": 10_000, "a": [1, 0]},
                     "kernel": {"kind": "custom_table", "rows": [
                         {"values": [[1.5, 0.5], [3.0, 0.2]], "probs": [0.5, 0.5]},
                         {"values": [[0.4, 1.0], [0.8, 2.5]], "probs": [0.3, 0.7]}]}},
    "dynamic_graph": {"population": {"m": 2, "pi": [0.5, 0.5], "N": 10_000, "a": [1, 0]},
                      "kernel": {"kind": "dynamic_graph", "rho_plus": [[1.5, 0.8], [0.8, 2.0]],
                                 "rho_minus": [[1.0, 1.0], [1.0, 1.0]],
                                 "beta": [[1.5, 1.0], [1.0, 1.5]],
                                 "q": [{"dist": "exponential", "mean": 1.0},
                                       {"dist": "exponential", "mean": 1.5}]}},
}
# the mover with fixed off-diagonal sojourns: constant laws inside a sampled kernel
GOLDEN_CONFIGS["mover_constant_sojourn"] = {
    "population": GOLDEN_CONFIGS["mover"]["population"],
    "kernel": dict(GOLDEN_CONFIGS["mover"]["kernel"], sojourn=[
        [{"dist": "exponential", "mean": 1.0} if i == j else {"dist": "constant", "value": 0.25}
         for j in range(3)] for i in range(3)])}


@pytest.mark.parametrize("name, replicates, fmt, sha", [
    ("reed_frost", 300, "csv", "f5ebccb2d3810b01282299d716242ddee90d7e972c7c3f21f70727d048519c30"),
    ("reed_frost", 300, "jsonl", "6acd825eb34802201df6a548fbb21e5ab1af44f3ef13b5ddf2cf49504dcd9d4d"),
    ("mover", 50, "csv", "50e0bd93439276f0421a0c26f4ae57f6409ddb1e5d6d3898c901017f66bae74a"),
    ("random_type", 300, "csv", "8772eabc4802926d9183d4683fcd23f66993ccff65534a8aa2fd5d408baf0141"),
    ("static_graph", 100, "csv", "d77789b8a04032d25b2009dad6a9cbc7f6e8c75dae16b8c619a13ac319896bf1"),
    ("mixed_bernoulli", 100, "csv", "2800821979717f2a6f9c6cc9791cbfb8c857b60bb50fb392b834b9762dfca99f"),
    ("constant_two_type", 300, "csv", "2a9c31fbd8af812180de2b11d8454943b531498cebfe115388c60bb27cf84066"),
    ("custom_table", 100, "csv", "3eb88fe8ff85540138f8c5e48458bad472598f189d4578ce77cf356fdbb22fe7"),
    ("dynamic_graph", 100, "csv", "3b926955f47d3765242e308c72652fde5b1fb0a4918f8b82e94925382d1c39da"),
    ("mover_constant_sojourn", 100, "csv",
     "a1c152f680f26e461f91075e8d68ab1efae1ec5e767ab7a6f9ccd9f88db346c9"),
])
def test_records_match_golden_sha256(tmp_path, name, replicates, fmt, sha):
    # pins the random stream and the records layout: a change to either,
    # deliberate or not, shows up here
    config = parse_config(dict(GOLDEN_CONFIGS[name], replicates=replicates, seed=3))
    ensemble = ef.run_ensemble(config.population, config.kernel, replicates, seed=3)
    path = tmp_path / f"records.{fmt}"
    ef.write_records(ensemble, path, fmt)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("command, sha", [
    ("extinction", "c74a35d423a94be4e081a13c114da80d9dd13c901a0241439948a119b7fae2e4"),
    ("clt", "704f08ccbac3fe7bb8d21481f0ba09e61bd44c9092d80101a29fda84c87d8b78"),
])
def test_exponential_theory_output_matches_golden_sha256(tmp_path, capsys, command, sha):
    # exponential sojourn means no benchmark config uses; the extinction q here
    # moves by an ulp if M(t) = 1 / (1 - m t) is computed as (1 - m t) ** -1
    kernel = dict(GOLDEN_CONFIGS["mover"]["kernel"], sojourn=[
        [{"dist": "exponential", "mean": 0.9 if i == j else 0.15} for j in range(3)]
        for i in range(3)])
    path = _write_config(tmp_path, dict(GOLDEN_CONFIGS["mover"], kernel=kernel))
    assert cli.main([command, "--config", path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


# one config per kernel kind a config can name
KIND_CONFIGS = {
    "constant": GOLDEN_CONFIGS["constant_two_type"],
    "custom_table": GOLDEN_CONFIGS["custom_table"],
    "static_graph": GOLDEN_CONFIGS["static_graph"],
    "mixed_bernoulli": GOLDEN_CONFIGS["mixed_bernoulli"],
    "dynamic_graph": GOLDEN_CONFIGS["dynamic_graph"],
    "ball_clancy93": GOLDEN_CONFIGS["mover"],
    "ball_clancy95": GOLDEN_CONFIGS["random_type"],
}


# one config per kind at seed 5, and the Reed-Frost chain at seeds that span
# SeedSequence's entropy words
PREFIX_CASES = [
    *(pytest.param(kind, KIND_CONFIGS[kind], 5, id=kind) for kind in sorted(KIND_CONFIGS)),
    *(pytest.param("constant", GOLDEN_CONFIGS["reed_frost"], seed, id=f"reed_frost-{seed}")
      for seed in (0, 2**32, 2**64 - 1))]


@pytest.mark.parametrize("kind, doc, seed", PREFIX_CASES)
def test_shorter_ensemble_is_a_prefix_of_a_longer_one(kind, doc, seed):
    # row r depends only on the seed and rows 0..r
    config = parse_config(dict(doc, replicates=300, seed=3))
    assert config.kernel_kind == kind
    short = ef.run_ensemble(config.population, config.kernel, 37, seed=seed)
    full = ef.run_ensemble(config.population, config.kernel, 300, seed=seed)
    assert (full.total >= full.threshold).any() and full.total.min() < full.threshold
    assert np.array_equal(short.t_inf, full.t_inf[:37])
    assert np.array_equal(short.generations, full.generations[:37])
    assert np.array_equal(short.n_susceptible, full.n_susceptible[:37])


def test_ensemble_statistics_match_per_replicate_loop():
    # the columnar statistics against a loop over the ensemble's own rows,
    # under random allocation where every row has its own split
    config = parse_config(dict(GOLDEN_CONFIGS["mover"], replicates=60, seed=8))
    pop, kernel = config.population, config.kernel
    ensemble = ef.run_ensemble(pop, kernel, 60, seed=8, threshold=300)
    rows = list(zip(ensemble.t_inf, ensemble.n_susceptible))
    assert all(n_susceptible.sum() == pop.N for _, n_susceptible in rows)
    assert len({tuple(n_susceptible) for _, n_susceptible in rows}) > 1
    major = [(t_inf, n_susceptible) for t_inf, n_susceptible in rows if t_inf.sum() >= 300]
    fractions = np.stack([t_inf / n_susceptible for t_inf, n_susceptible in major])
    minor = [int(t_inf.sum()) for t_inf, _ in rows if t_inf.sum() < 300]
    histogram = {total: minor.count(total) for total in minor}

    stats = ef.estimate_outbreak_statistics(ensemble)
    assert 1 < stats.n_major == len(major) < 60
    assert stats.major_fraction == len(major) / 60
    assert np.array_equal(stats.major_mean_fraction, fractions.mean(axis=0))
    assert np.array_equal(stats.major_cov_fraction, np.cov(fractions, rowvar=False))
    assert stats.minor_histogram == histogram


def test_estimate_outbreak_statistics_all_minor():
    spec = ef.PopulationSpec(m=1, pi=[1.0], N=100, a=[1])
    ensemble = ef.run_ensemble(spec, ef.constant_kernel([[0.0]]), 50, seed=1)
    stats = ef.estimate_outbreak_statistics(ensemble)
    assert stats.n_records == 50 and stats.n_major == 0
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


@pytest.mark.parametrize("command", ["solve", "extinction", "clt", "graph"])
@pytest.mark.parametrize("option", ["--seed", "--replicates", "--out"])
def test_theory_commands_reject_ensemble_options(tmp_path, capsys, command, option):
    # a theory command runs no ensemble, so an ensemble option is a usage error
    path = _write_config(tmp_path, _base_config(tmp_path))
    with pytest.raises(SystemExit) as exc_info:
        cli.main([command, "--config", path, option, "1"])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_cli_infectivity_above_population_scale_is_config_error(tmp_path, capsys):
    doc = _base_config(tmp_path, kernel={"kind": "constant", "mu": [[200.0]]})
    doc["population"]["N"] = 100
    path = _write_config(tmp_path, doc)
    for command in ("simulate", "validate"):
        assert cli.main([command, "--config", path]) == 2
        assert "exceeds population scale" in capsys.readouterr().err


# (kernel block, its bound on N): a scaled infectivity, or N times an edge probability
SCALE_BOUNDED_KERNELS = {
    "constant": ({"kind": "constant", "mu": [[20.0, 1.0], [3.0, 2.0]]}, 20),
    "custom_table": ({"kind": "custom_table",
                      "rows": [{"values": [[1.0, 2.0], [30.0, 0.0]], "probs": [0.5, 0.5]},
                               {"values": [[4.0, 4.0]], "probs": [1.0]}]}, 30),
    "static_graph": ({"kind": "static_graph", "alpha": [[12.0, 5.0], [5.0, 2.0]],
                      "w": {"dist": "beta", "a": 2.0, "b": 3.0}}, 12),
    "mixed_bernoulli": ({"kind": "mixed_bernoulli", "theta": [2.0, 5.0], "pi": [0.5, 0.5],
                         "w": {"dist": "constant", "value": 0.5}}, 25),
}


@pytest.mark.parametrize("kind", sorted(SCALE_BOUNDED_KERNELS))
def test_scale_bound_refuses_n_below_and_accepts_n_at_it(tmp_path, capsys, kind):
    block, bound = SCALE_BOUNDED_KERNELS[kind]
    doc = _base_config(tmp_path, kernel=block)
    doc["population"] = {"m": 2, "pi": [0.5, 0.5], "N": bound, "a": [1, 0]}
    kernel = parse_config(doc).kernel
    assert kernel.max_scaled == bound
    for i in range(2):
        assert np.all(kernel.sample(i, bound, np.random.default_rng(0), size=50) <= 1.0)
        with pytest.raises(ValueError, match="exceeds population scale"):
            kernel.sample(i, bound - 1, np.random.default_rng(0))
    doc["population"]["N"] = bound - 1
    with pytest.raises(ConfigError, match="exceeds population scale"):
        parse_config(doc)
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc)]) == 2
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

import dataclasses
import hashlib
import json
import math
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


_EXP = {"dist": "exponential", "mean": 1.0}
_MOVER_1 = {"kind": "ball_clancy93", "b": [[1.5]], "sojourn": [[_EXP]]}


@pytest.mark.parametrize("kernel, message", [
    # each a ValueError naming the field, so exit 2, not a traceback
    (dict(_MOVER_1, b=2.0), "kernel (ball_clancy93): b must be m nonnegative m x m matrices"),
    (dict(_MOVER_1, b=None), "kernel (ball_clancy93): b must be m nonnegative m x m matrices"),
    # one law where a list belongs
    ({"kind": "ball_clancy95", "pi": [1.0], "u": _EXP},
     "kernel (ball_clancy95): u must be a list of one scalar infectivity law per type, m = 1"),
    (dict(_MOVER_1, sojourn=[_EXP]),
     "kernel (ball_clancy93): sojourn must be an 1 x 1 table of scalar laws"),
    (dict(_MOVER_1, sojourn=_EXP),
     "kernel (ball_clancy93): sojourn must be an 1 x 1 table of scalar laws"),
    # json reads Infinity: the kernel refuses a non-finite mu before a solver sees it
    (dict(_MOVER_1, b=[[[math.inf]]]), "kernel (ball_clancy93): mu must be finite and nonnegative"),
    ({"kind": "constant", "mu": [[math.inf]]},
     "kernel (constant): mu, the scaled infectivity, must be a finite nonnegative square matrix"),
    ({"kind": "custom_table", "rows": [{"values": [[math.inf], [1.0]], "probs": [0.5, 0.5]}]},
     "kernel (custom_table): row 0: need finite nonnegative values and probs summing to 1"),
    ({"kind": "static_graph", "alpha": [[math.inf]], "w": {"dist": "beta", "a": 2.0, "b": 3.0}},
     "kernel (static_graph): mu must be finite and nonnegative"),
    ({"kind": "dynamic_graph", "rho_plus": [[math.inf]], "rho_minus": [[1.0]], "beta": [[1.0]],
      "q": _EXP}, "kernel (dynamic_graph): mu must be finite and nonnegative"),
], ids=["b-number", "b-null", "u-one-law", "sojourn-flat-row", "sojourn-one-law", "b-inf",
        "constant-mu-inf", "table-value-inf", "alpha-inf", "rho_plus-inf"])
def test_malformed_kernel_fields_are_config_errors(tmp_path, capsys, kernel, message):
    doc = _base_config(tmp_path, kernel=kernel)
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message
    assert cli.main(["graph", "--config", _write_config(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("law, field", [
    ({"dist": "constant", "value": 1.0}, "value"),
    ({"dist": "exponential", "mean": 1.0}, "mean"),
    ({"dist": "gamma", "shape": 2.0, "scale": 0.5}, "shape"),
    ({"dist": "gamma", "shape": 2.0, "scale": 0.5}, "scale"),
    ({"dist": "bernoulli", "p": 0.5}, "p"),
    ({"dist": "uniform", "low": 0.5, "high": 1.5}, "low"),
    ({"dist": "uniform", "low": 0.5, "high": 1.5}, "high"),
    ({"dist": "beta", "a": 2.0, "b": 3.0}, "a"),
    ({"dist": "beta", "a": 2.0, "b": 3.0}, "b"),
    ({"dist": "discrete", "values": [0.5, 1.5], "probs": [0.5, 0.5]}, "values"),
    ({"dist": "discrete", "values": [0.5, 1.5], "probs": [0.5, 0.5]}, "probs"),
], ids=lambda x: x if isinstance(x, str) else x["dist"])
def test_non_finite_law_parameters_are_config_errors(tmp_path, capsys, law, field, bad):
    # json reads Infinity and NaN, which each law must refuse before a solver sees them
    value = [law[field][0], bad] if isinstance(law[field], list) else bad
    kernel = dict(_MOVER_1, sojourn=[[dict(law, **{field: value})]])
    path = _write_config(tmp_path, _base_config(tmp_path, kernel=kernel))
    with pytest.raises(ConfigError, match=rf"^kernel\.sojourn \({law['dist']}\): {law['dist']} "
                                          "distribution needs"):
        ef.load_config(path)
    assert cli.main(["graph", "--config", path]) == 2
    assert "config error: kernel.sojourn" in capsys.readouterr().err


@pytest.mark.parametrize("pi", [[math.nan], [math.inf], [0.5, math.nan]], ids=str)
def test_non_finite_population_pi_is_config_error(tmp_path, capsys, pi):
    # NaN passes both "sums to 1" and "all positive" as plain comparisons
    doc = _base_config(tmp_path, population={"pi": pi, "N": 100, "a": [1] + [0] * (len(pi) - 1)},
                       kernel={"kind": "constant", "mu": np.eye(len(pi)).tolist()})
    with pytest.raises(ConfigError, match=r"^population: pi must sum to 1"):
        parse_config(doc)
    assert cli.main(["solve", "--config", _write_config(tmp_path, doc)]) == 2
    assert "config error: population: pi must sum to 1" in capsys.readouterr().err


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
        "88e0c66a75c3122dacb062ec6e82bfd7835a49585c5c610f7d6656fdbf75ab71")
    # validate prints the report it writes
    assert capsys.readouterr().out == report.read_text() + "\n"


SUBCRITICAL = {"population": {"pi": [1.0], "N": 1000, "a": [1]},
               "kernel": {"kind": "constant", "mu": [[0.5]]},
               "checks": ["lln", "major_prob", "clt", "branching_tv"]}


@pytest.mark.parametrize("name, replicates, seed, stdout_sha, report_sha", [
    # random allocation: the clt check's Mardia fields
    ("mover_ensemble.json", 200, 1, "21c0f93c09bb98e61b759bae303565f8572a85d8cee9d0964006a601b94ca8b2",
     "b7c32b33d8f6aaa3679b0fe6c8a3c39939f0250f79cf80135ff7bdc9dd0d528a"),
    # too few majors for clt: its error string and empty blocks
    ("rf_validate.json", 50, 1, "bfc619492464136109aadd5e4930016260600bfc047a01da44fc4b056c7d3f4b",
     "e6b3143651d07200849c3db6b497f039b4d5ea44133d4f91d2657c88adc3b469"),
    # no majors at all: "major_mean": null
    (None, 50, 3, "22c5a01da21da0756268b20cbb159839efea10f3cb285c51cdca99924c6cdf2b",
     "68b082b063a4d8f1aa7f4795947570aa10262cb7adeda97ec6ef391df7229bc0"),
])
def test_validate_report_bytes_match_golden_sha256(tmp_path, capsys, name, replicates, seed,
                                                   stdout_sha, report_sha):
    # pins the report writer's layout: nulls, empty objects, strings, arrays and nested blocks
    path = str(RF_VALIDATE.with_name(name)) if name else _write_config(tmp_path, SUBCRITICAL)
    out = tmp_path / "records.csv"
    assert cli.main(["validate", "--config", path, "--replicates", str(replicates),
                     "--seed", str(seed), "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    report = Path(str(out) + ".report.json").read_bytes()
    assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(report).hexdigest() == report_sha
    assert stdout.encode() == report + b"\n"


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
# the static graph with one W per infective, drawn through u_sampler's sum
GOLDEN_CONFIGS["static_graph_shared"] = {
    "population": GOLDEN_CONFIGS["static_graph"]["population"],
    "kernel": dict(GOLDEN_CONFIGS["static_graph"]["kernel"], w_mode="shared")}
# a two-type constant kernel at R = 1 + 1e-4, where the solvers take their most steps
GOLDEN_CONFIGS["near_critical_two_type"] = {
    "population": {"m": 2, "pi": [0.6, 0.4], "N": 10_000, "a": [1, 0]},
    "kernel": {"kind": "constant", "mu": [[1.472622015824888, 0.736311007912444],
                                          [0.368155503956222, 1.104466511868666]]}}


# movers whose sums are not all drawn in the pooled gamma call: gamma and
# exponential sojourns beside constant ones that draw nothing (every infective
# stays in group 0), and uniform sojourns drawn one call per (type, group)
MOVER_DOCS = {
    "mover_joint": {
        "population": {"m": 2, "pi": [0.5, 0.5], "N": 10_000, "a": [1, 0]},
        "kernel": {"kind": "ball_clancy93",
                   "b": [[[1.9, 0.0], [0.65, 0.0]], [[0.85, 0.0], [1.1, 0.0]]],
                   "sojourn": [[{"dist": "gamma", "shape": 2.0, "scale": 0.5},
                                {"dist": "constant", "value": 0.0}],
                               [{"dist": "exponential", "mean": 1.5},
                                {"dist": "constant", "value": 0.0}]]}},
    "mover_uniform": {
        "population": GOLDEN_CONFIGS["mover"]["population"],
        "kernel": dict(GOLDEN_CONFIGS["mover"]["kernel"], sojourn=[
            [{"dist": "exponential", "mean": 1.0} if i == j
             else {"dist": "uniform", "low": 0.0, "high": 0.5} for j in range(3)]
            for i in range(3)])},
}
GOLDEN_CONFIGS.update(MOVER_DOCS)


@pytest.mark.parametrize("name, replicates, fmt, sha", [
    ("reed_frost", 300, "csv", "f5ebccb2d3810b01282299d716242ddee90d7e972c7c3f21f70727d048519c30"),
    ("reed_frost", 300, "jsonl", "6acd825eb34802201df6a548fbb21e5ab1af44f3ef13b5ddf2cf49504dcd9d4d"),
    ("mover", 50, "csv", "5f63f0f7e63167554756a40e40d01e910896dadb1e318824e38be6e68ae79dd0"),
    ("random_type", 300, "csv", "c3360eef2ea8933e2e6b7b3b18168375de2a04401a614b227cfa6b1bbb9d912c"),
    ("static_graph", 100, "csv", "d77789b8a04032d25b2009dad6a9cbc7f6e8c75dae16b8c619a13ac319896bf1"),
    ("mixed_bernoulli", 100, "csv", "2800821979717f2a6f9c6cc9791cbfb8c857b60bb50fb392b834b9762dfca99f"),
    ("constant_two_type", 300, "csv", "2a9c31fbd8af812180de2b11d8454943b531498cebfe115388c60bb27cf84066"),
    ("custom_table", 100, "csv", "3eb88fe8ff85540138f8c5e48458bad472598f189d4578ce77cf356fdbb22fe7"),
    ("dynamic_graph", 100, "csv", "3b926955f47d3765242e308c72652fde5b1fb0a4918f8b82e94925382d1c39da"),
    ("mover_constant_sojourn", 100, "csv",
     "8dd557ede348c3b889ec7744f616416931c36865ca989f14a5f97bbbeab69f18"),
    ("mover_uniform", 100, "csv", "0cf42eb3fdb18443434dae7ce095a77ec370b86a77e2a7fbbe6ebe25b5af485e"),
    ("mover_joint", 100, "csv", "6a08328b617c557175be44763fe48c9e162a59b3241f79087c8dd543cff915c7"),
    ("static_graph_shared", 100, "csv",
     "c4c18fd74a18b260a209e13ba4efe764c5d975f6f05b4307071aec1cdf177a8d"),
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


@pytest.mark.parametrize("name, command, sha", [
    # constant kernels: m = 1 and m = 2, and solve near R = 1
    ("reed_frost", "solve", "ef94d240090882fbc07bf9cdbc9ba1ae05a142794dd59c1acb0d0d0dbbbbdbd8"),
    ("reed_frost", "extinction", "a69fcd25ec71d846f6d4c2af048855a0e6bd075ad884655acfe3356d2ff277de"),
    ("reed_frost", "clt", "ee99547b08f23b36710c74a55efbe646571bf020ff706e70a2eb3ccc9783adff"),
    ("constant_two_type", "solve", "cf4cf8228cac0a3f659de9e4d57353ceee9a6a2a1a71c1aab419e467c3d09861"),
    ("constant_two_type", "extinction",
     "42850cf65b30dc1487c1299bc91e20cb7ce727c06536ccd1406ae023aa67bd54"),
    ("constant_two_type", "clt", "7cfcbefdfbfa167e7c08859d112ed5224875f9fb34eaaa4c9209df2cefb10563"),
    ("near_critical_two_type", "solve",
     "688797c6f71813127b4b7e99cd32ea55c8e301e1554ac08660ec6c7b9c6200c3"),
    ("mover", "solve", "68fc6aaba7682595d9366ce5e72402f1d04c60dcf0089633fc46493624149e78"),
    ("mover", "graph", "ca78f7c35161fb4b94b105acf0b31b3a38f0c75271174e6e8a25dc2e5c37465a"),
    ("dynamic_graph", "solve", "d58772cb4cb4c7c5479247c7da180c0509bed56e60aebe428d95e76918255153"),
    ("dynamic_graph", "graph", "5e570fedd4d04205c653c32401a087632ed87080b41181bf0718cc6bc10bf8fc"),
    # extinction runs the safeguarded Newton loop on h, clt on the attack-rate map:
    # every Newton and Picard step and the error bound reach these bytes
    ("dynamic_graph", "extinction", "12938f2d6e6e932fc143c8edfd24f35ef090dc77f12ed65a96f4d621ea3551b3"),
    ("dynamic_graph", "clt", "00e8688eafdb86a34a25cf22c72a195db3a11c89c5d45bbc8211c098a10072ea"),
    ("static_graph", "extinction", "3d7166c4f70d71fdee47dea471b8e345ddd8b5ae912f81cab8fe98509a88dc3a"),
    ("static_graph", "clt", "d83647ea5c37249ac14000b7e41612ef19e8ce018d780f6f93619d95d39ea8a4"),
    ("mixed_bernoulli", "extinction",
     "19cc7e705bd280cc4022395868843131bce9673efe64a4740f35533522b15c58"),
    ("mixed_bernoulli", "clt", "64fc52496cbbae64e09750b0a76dd8eea3a5d615013f002e9cc60c485147af8a"),
    ("random_type", "extinction", "c9fe36aa43a249559fa206daaebf613e9bc224450a231502baa883285a160ecd"),
    ("random_type", "clt", "92137dbc80020ea1342cc7a89e4a3237062985625615979942159537ff1e6234"),
    ("custom_table", "extinction", "36409f40fcabf6a91e0d3fb767066e95d818aebf810546b5257cfe35ed4d3549"),
    ("custom_table", "clt", "913842e5078b6cf3e012347752f243182868a3c49e5d56e9f62afaaf0eb18c8d"),
    ("near_critical_two_type", "extinction",
     "0584f669664848e322708a26eb235272018e1c5a63246902e6453ecdbce02247"),
    ("near_critical_two_type", "clt",
     "a74f5b8e6839d8ee6d678324026d5b0fc6d00f160290af418cfa536cc369cc1b"),
])
def test_theory_stdout_matches_golden_sha256(tmp_path, capsys, name, command, sha):
    path = _write_config(tmp_path, GOLDEN_CONFIGS[name])
    assert cli.main([command, "--config", path]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


@pytest.mark.parametrize("command, result_type", [
    ("solve", ef.DeterministicSolution),
    ("extinction", ef.ExtinctionSolution),
    ("clt", ef.AsymptoticSummary),
])
@pytest.mark.parametrize("path", sorted(RF_VALIDATE.parent.glob("*.json")), ids=lambda p: p.stem)
def test_theory_payload_is_its_result_type(capsys, command, result_type, path):
    assert cli.main([command, "--config", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [f.name for f in dataclasses.fields(result_type)]


def test_simulate_stdout_without_records_matches_golden_sha256(tmp_path, capsys):
    path = _write_config(tmp_path, dict(GOLDEN_CONFIGS["reed_frost"], replicates=300, seed=3))
    assert cli.main(["simulate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["records"] is None
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f7bdee343cb98c47a5d55aa227a75f5870435997051616ad8c429d34f746deef")


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


# one config per kind at seed 5, the movers above, and the Reed-Frost chain at
# seeds that span SeedSequence's entropy words
PREFIX_CASES = [
    *(pytest.param(kind, KIND_CONFIGS[kind], 5, id=kind) for kind in sorted(KIND_CONFIGS)),
    *(pytest.param("ball_clancy93", doc, 5, id=name) for name, doc in MOVER_DOCS.items()),
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


@pytest.mark.parametrize("argv", [
    ["graph", "--config", "{dir}"],
    ["simulate", "--config", str(RF_VALIDATE), "--replicates", "10", "--out", "{dir}"],
])
def test_cli_unreadable_config_or_unwritable_out_is_config_error(tmp_path, capsys, argv):
    # a directory can be neither read as a config nor written as records;
    # exit 1 would read as a failed check
    assert cli.main([arg.format(dir=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", ["solve", "extinction", "clt", "graph"])
@pytest.mark.parametrize("option", ["--seed", "--replicates", "--out"])
def test_theory_commands_reject_ensemble_options(tmp_path, capsys, command, option):
    # a theory command runs no ensemble, so an ensemble option is a usage error
    path = _write_config(tmp_path, _base_config(tmp_path))
    with pytest.raises(SystemExit) as exc_info:
        cli.main([command, "--config", path, option, "1"])
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


# (block, field, value, the start of the refusal): counts must be whole numbers
# within int64, so fractions, bools, strings and values past int64 are refused
NOT_WHOLE = [
    ("population", "a", [1.5], "population: a must be an array of shape (1,) of whole numbers"),
    ("population", "a", [-0.5], "population: a must be an array of shape (1,) of whole numbers"),
    ("population", "a", [1e30], "population: a must be an array of shape (1,) of whole numbers"),
    ("population", "N", 1000.7, "population: N must be a whole number"),
    ("population", "N", True, "population: N must be a whole number"),
    ("population", "N", 1e30, "population: N must be a whole number"),
    ("population", "zeta", [math.nan], "population: zeta must be a finite"),
    (None, "replicates", 2.5, "config: replicates must be a whole number"),
    (None, "replicates", "7", "config: replicates must be a whole number"),
    (None, "seed", 2.7, "config: seed must be a whole number"),
    (None, "seed", -1, "config: seed must be a whole number in [0, 2**63)"),
    (None, "threshold_override", 1.5, "config: threshold_override must be a whole number"),
    (None, "workers", True, "config: workers must be a whole number"),
]


@pytest.mark.parametrize("block, key, value, message", NOT_WHOLE,
                         ids=[f"{key}={value!r}" for _, key, value, _ in NOT_WHOLE])
def test_cli_refuses_counts_that_are_not_whole_numbers(tmp_path, capsys, block, key, value,
                                                        message):
    doc = _base_config(tmp_path)
    if key == "zeta":
        del doc["population"]["a"]
    (doc if block is None else doc[block])[key] = value
    assert cli.main(["simulate", "--config", _write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {message}")


def test_integral_floats_are_whole_numbers(tmp_path):
    doc = _base_config(tmp_path, replicates=20.0, seed=1e3, threshold_override=50.0, workers=1.0)
    doc["population"].update(N=1e4, a=[2.0])
    config = parse_config(doc)
    assert (config.replicates, config.seed, config.threshold_override) == (20, 1000, 50)
    assert type(config.population.N) is int and config.population.N == 10_000
    assert config.population.a.tolist() == [2]


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


@pytest.mark.parametrize("command, code",
                         [("solve", 0), ("extinction", 0), ("clt", 3), ("graph", 0)])
def test_cli_numerical_failure_exit_code(tmp_path, capsys, command, code):
    # exactly critical kernel, no seeds: tau = 0, sigma = 1 makes the transport matrix
    # singular, which the clt command must surface as a numerical failure; the other
    # commands never solve the Gaussian limit, so they print theirs
    doc = _base_config(tmp_path, kernel={"kind": "constant", "mu": [[1.0]]})
    doc["population"]["a"] = [0]
    path = _write_config(tmp_path, doc, "critical.json")
    assert cli.main([command, "--config", path]) == code
    assert ("numerical failure" in capsys.readouterr().err) == (code == 3)


SOLVERS = (("deterministic", "solve_tau"), ("branching", "extinction_probability"),
           ("clt", "asymptotic_covariance"))


def _logged(log: list, name: str, function):
    def logged(*args, **kwargs):
        log.append(name)
        return function(*args, **kwargs)
    return logged


@pytest.mark.parametrize("entry, checks, calls", [
    ("load_config", [], (0, 0, 0)),
    ("solve", [], (1, 0, 0)),
    ("extinction", [], (0, 1, 0)),
    ("clt", [], (1, 0, 1)),
    ("graph", [], (0, 0, 0)),
    ("validate", ["lln", "major_prob", "clt", "branching_tv"], (1, 1, 1)),
    ("validate", ["lln"], (1, 0, 0)),
    ("validate", ["branching_tv"], (0, 0, 0)),
])
def test_each_entry_point_solves_only_the_theory_it_reads_and_once(tmp_path, capsys, monkeypatch,
                                                                   entry, checks, calls):
    # calls of (solve_tau, extinction_probability, asymptotic_covariance), logged
    # through the module attributes the config's theory looks up when first read
    log = []
    for module, name in SOLVERS:
        home = getattr(ef, module)
        monkeypatch.setattr(home, name, _logged(log, name, getattr(home, name)))
    monkeypatch.setattr(harness, "simulate_ensemble",
                        _logged(log, "ensemble", harness.simulate_ensemble))
    path = _write_config(tmp_path, _base_config(tmp_path, checks=checks))
    if entry == "load_config":
        ef.load_config(path)
    else:
        assert cli.main([entry, "--config", path]) in (0, 1)
    assert tuple(log.count(name) for _, name in SOLVERS) == calls
    if entry == "validate":  # the ensemble and its records first, then the solves
        assert log[0] == "ensemble"


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


@pytest.mark.parametrize("key, value", [("seed", 2**64), ("seed", -1), ("replicates", 0)])
def test_cli_overrides_meet_the_config_rules(tmp_path, capsys, key, value):
    # an override is refused as the same field in the file is, before anything runs
    in_file = _write_config(tmp_path, _base_config(tmp_path, **{key: value}), "in_file.json")
    assert cli.main(["simulate", "--config", in_file]) == 2
    refusal = capsys.readouterr().err
    assert refusal.startswith(f"config error: config: {key} must be a whole number")
    assert cli.main(["simulate", "--config", _write_config(tmp_path, _base_config(tmp_path)),
                     f"--{key}", str(value)]) == 2
    assert capsys.readouterr().err == refusal


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

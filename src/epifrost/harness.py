"""Experiment orchestration: ensembles, summary statistics, theory checks.

``run_experiment`` resolves the configured population, runs the ensemble,
computes the deterministic / branching / Gaussian theory for the same
inputs, executes the enabled checks and writes both the per-replicate
records (CSV or JSON lines) and a JSON validation report.  Each check
reports its theoretical value, empirical estimate, standard error and the
tolerance actually applied; tolerances use 4-sigma bands so the false
failure rate across a suite stays negligible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from . import branching, clt, deterministic
from .config import ExperimentConfig, json_text
from .errors import InsufficientDataError
from .kernel import InfectivityKernel
from .simulator import Ensemble, replicate_rng, run_ensemble

__all__ = [
    "OutbreakStatistics",
    "CheckResult",
    "ValidationReport",
    "estimate_outbreak_statistics",
    "write_records",
    "simulate_ensemble",
    "run_experiment",
]

RECORDS_FORMAT_VERSION = 1
TV_UPTO = 10  # branching_tv compares the pmfs of totals 0..TV_UPTO
TV_BIAS = 0.02  # and allows their half L1 distance this bias beyond 4 SE


@dataclass(frozen=True)
class OutbreakStatistics:
    """Ensemble summary: major count and fraction with its binomial standard
    error, major-conditional moments of the final-size fractions, and the
    counts of minor outbreak totals."""

    n_records: int
    n_major: int
    major_fraction: float
    major_fraction_se: float
    major_mean_fraction: Optional[np.ndarray]
    major_cov_fraction: Optional[np.ndarray]
    minor_histogram: dict[int, int]


def estimate_outbreak_statistics(ensemble: Ensemble) -> OutbreakStatistics:
    n = len(ensemble)
    major = ensemble.major
    n_major = int(major.sum())
    p_hat = n_major / n
    se = float(np.sqrt(p_hat * (1 - p_hat) / n))

    mean = cov = None
    if n_major:
        fractions = ensemble.t_inf[major] / np.maximum(ensemble.n_susceptible[major], 1)
        mean = fractions.mean(axis=0)
        m = fractions.shape[1]
        cov = np.cov(fractions, rowvar=False).reshape(m, m) if n_major > 1 else np.zeros((m, m))

    totals, counts = np.unique(ensemble.total[~major], return_counts=True)
    return OutbreakStatistics(n_records=n, n_major=n_major, major_fraction=p_hat,
                              major_fraction_se=se, major_mean_fraction=mean,
                              major_cov_fraction=cov,
                              minor_histogram=dict(zip(totals.tolist(), counts.tolist())))


# ---------------------------------------------------------------------------
# Record output
# ---------------------------------------------------------------------------


def write_records(ensemble: Ensemble, path: Path, fmt: str = "csv") -> None:
    """Write one row per replicate; column order is fixed and versioned."""
    seed = ensemble.seed
    columns = (ensemble.total.tolist(), ensemble.generations.tolist(),
               np.where(ensemble.major, "major", "minor").tolist())
    if fmt == "csv":
        m = ensemble.t_inf.shape[1]
        header = ",".join(["replicate", "seed"] + [f"t_{k + 1}" for k in range(m)]
                          + ["total", "generations", "class"])
        row = f"%d,{seed}," + "%d," * (m + 2) + "%s\r\n"
        rows = zip(range(len(ensemble)), *ensemble.t_inf.T.tolist(), *columns)
        with open(path, "w", newline="") as fh:
            fh.write(f"# epifrost records v{RECORDS_FORMAT_VERSION}\n{header}\r\n")
            fh.write("".join([row % r for r in rows]))  # one write: faster than one per row
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            fh.writelines(json.dumps({"replicate": r, "seed": seed, "t_inf": t, "total": total,
                                      "generations": gens, "class": cls}) + "\n"
                          for r, (t, total, gens, cls) in enumerate(zip(ensemble.t_inf.tolist(), *columns)))
    else:
        raise ValueError(f"unknown record format {fmt!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    theoretical: dict
    empirical: dict
    standard_error: dict
    tolerance: dict


@dataclass(frozen=True)
class ValidationReport:
    checks: list[CheckResult]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        return self._json

    @cached_property
    def _json(self) -> str:  # encoded once: ``validate`` writes and prints this string
        # its verdict and each check's fields, the arrays written as they stand
        return json_text({"all_passed": self.all_passed, "checks": [vars(c) for c in self.checks]})


def _check_lln(stats: OutbreakStatistics, tau: np.ndarray) -> CheckResult:
    if stats.major_mean_fraction is None:
        return CheckResult("lln", False, {"tau": tau}, {"major_mean": None},
                           {"se": None}, {"note": "no major outbreaks observed"})
    se = np.sqrt(np.maximum(np.diag(stats.major_cov_fraction), 0.0) / stats.n_major)
    err = np.abs(stats.major_mean_fraction - tau)
    tol = np.maximum(0.01, 4.0 * se)
    return CheckResult(
        name="lln",
        passed=bool(np.all(err <= tol)),
        theoretical={"tau": tau},
        empirical={"major_mean": stats.major_mean_fraction, "n_major": stats.n_major},
        standard_error={"se": se},
        tolerance={"per_type": tol, "rule": "max(0.01, 4*SE)"},
    )


def _check_major_prob(stats: OutbreakStatistics, p_theory: float) -> CheckResult:
    se = float(np.sqrt(p_theory * (1 - p_theory) / stats.n_records))
    err = abs(stats.major_fraction - p_theory)
    tol = 4.0 * se
    return CheckResult(
        name="major_prob",
        passed=bool(err <= tol),
        theoretical={"major_probability": p_theory},
        empirical={"major_fraction": stats.major_fraction},
        standard_error={"se": se},
        tolerance={"abs": tol, "rule": "4 binomial SE"},
    )


def _check_clt(ensemble: Ensemble, tau: np.ndarray,
               summary: clt.AsymptoticSummary, N: int, pi: np.ndarray) -> CheckResult:
    try:
        report = clt.gaussian_check(ensemble, tau, N, pi)
    except InsufficientDataError as exc:
        return CheckResult("clt", False, {"asym_cov": summary.asym_cov},
                           {"error": str(exc)}, {}, {})
    n = report.n_major
    c = summary.asym_cov
    # SE of a sample covariance entry under approximate normality
    se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c ** 2) / max(n - 1, 1))
    err = np.abs(report.sample_cov - c)
    tol = np.maximum(0.15 * np.abs(c), 4.0 * se)
    cov_ok = bool(np.all(err <= tol))
    normal_ok = report.mardia_skew_p > 1e-3 and report.mardia_kurtosis_p > 1e-3
    return CheckResult(
        name="clt",
        passed=cov_ok and normal_ok,
        theoretical={"asym_cov": c},
        empirical={"sample_cov": report.sample_cov, "n_major": n,
                   "mardia_skew_p": report.mardia_skew_p,
                   "mardia_kurtosis_p": report.mardia_kurtosis_p},
        standard_error={"cov_entry_se": se},
        tolerance={"per_entry": tol, "rule": "max(15%, 4*SE); Mardia p > 1e-3"},
    )


def _check_branching_tv(ensemble: Ensemble, kernel: InfectivityKernel, pi: np.ndarray,
                        a: np.ndarray, seed: int) -> CheckResult:
    n = len(ensemble)
    total = ensemble.total
    epi_pmf = np.bincount(total[total <= TV_UPTO], minlength=TV_UPTO + 1) / n
    # n branching lines from one stream; only totals <= TV_UPTO are counted, so
    # a line may stop once it passes TV_UPTO
    counts, exceeded = branching.simulate_progeny_lines(kernel, pi, a, TV_UPTO, n,
                                                        replicate_rng(seed + 1, 0))
    gw_pmf = np.bincount(counts[~exceeded].sum(axis=1), minlength=TV_UPTO + 1) / n
    tv = 0.5 * float(np.abs(epi_pmf - gw_pmf).sum())
    # both pmfs are Monte Carlo estimates: the SE of tv from their per-bin
    # binomial variances, so the limit is the allowed bias plus sampling noise
    tv_se = 0.5 * float(np.sqrt(((epi_pmf * (1 - epi_pmf) + gw_pmf * (1 - gw_pmf)) / n).sum()))
    tol = TV_BIAS + 4.0 * tv_se
    return CheckResult(
        name="branching_tv",
        passed=bool(tv <= tol),
        theoretical={"progeny_pmf_0_to_10": gw_pmf},
        empirical={"final_size_pmf_0_to_10": epi_pmf, "tv_distance": tv},
        standard_error={"per_bin_se_bound": float(0.5 / np.sqrt(n))},
        tolerance={"tv": tol, "tv_se": tv_se,
                   "rule": f"half L1 distance on totals 0..{TV_UPTO} <= {TV_BIAS} + 4*SE"},
    )


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def simulate_ensemble(config: ExperimentConfig) -> tuple[Ensemble, OutbreakStatistics]:
    """Run the configured ensemble, write its records if configured, and summarise it."""
    ensemble = run_ensemble(config.population, config.kernel, config.replicates, config.seed,
                            threshold=config.threshold_override)
    if config.output_path is not None:
        write_records(ensemble, config.output_path, config.output_format)
    return ensemble, estimate_outbreak_statistics(ensemble)


def run_experiment(config: ExperimentConfig) -> tuple[Optional[Path], ValidationReport]:
    """Run the configured ensemble plus every enabled theory check.

    Returns the records path (None if no output was configured) and the
    validation report.  Numerical failures inside solvers propagate to the
    caller; check failures only show up as failed entries in the report.
    """
    pop = config.population
    kernel = config.kernel
    ensemble, stats = simulate_ensemble(config)
    records_path = config.output_path

    checks: list[CheckResult] = []
    if config.checks:
        solution = deterministic.solve_tau(kernel.mu, pop.pi, pop.zeta)
        for name in config.checks:
            if name == "lln":
                checks.append(_check_lln(stats, solution.tau))
            elif name == "major_prob":
                ext = branching.extinction_probability(kernel, pop.pi, a=pop.a)
                checks.append(_check_major_prob(stats, ext.major_outbreak_prob))
            elif name == "clt":
                summary = clt.asymptotic_covariance(kernel.mu, kernel.lam, pop.pi,
                                                    solution.tau, pop.zeta,
                                                    allocation=pop.allocation)
                checks.append(_check_clt(ensemble, solution.tau, summary, pop.N, pop.pi))
            elif name == "branching_tv":
                checks.append(_check_branching_tv(ensemble, kernel, pop.pi, pop.a,
                                                  config.seed))

    report = ValidationReport(checks=checks)
    if records_path is not None:
        report_path = records_path.with_suffix(records_path.suffix + ".report.json")
        report_path.write_text(report.to_json())
    return records_path, report

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

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import branching, clt, deterministic
from .config import ExperimentConfig
from .errors import InsufficientDataError
from .kernel import Allocation
from .simulator import FinalSizeRecord, OutbreakClass, default_threshold, replicate_rng, run_ensemble

__all__ = [
    "OutbreakStatistics",
    "CheckResult",
    "ValidationReport",
    "estimate_outbreak_statistics",
    "write_records",
    "run_experiment",
]

RECORDS_FORMAT_VERSION = 1


@dataclass(frozen=True)
class OutbreakStatistics:
    """Ensemble summary: major fraction with its binomial standard error,
    major-conditional moments of the final-size fractions, and the pmf of
    small (minor) outbreak totals."""

    n_records: int
    major_fraction: float
    major_fraction_se: float
    major_mean_fraction: Optional[np.ndarray]
    major_cov_fraction: Optional[np.ndarray]
    minor_histogram: dict[int, int]


def estimate_outbreak_statistics(records: Sequence[FinalSizeRecord]) -> OutbreakStatistics:
    if not records:
        raise ValueError("need at least one record")
    n = len(records)
    major = [r for r in records if r.outbreak_class is OutbreakClass.MAJOR]
    p_hat = len(major) / n
    se = float(np.sqrt(p_hat * (1 - p_hat) / n))

    mean = cov = None
    if major:
        fractions = np.stack([r.t_inf / np.maximum(r.population.n_susceptible, 1)
                              for r in major])
        mean = fractions.mean(axis=0)
        m = fractions.shape[1]
        cov = (np.cov(fractions, rowvar=False).reshape(m, m)
               if len(major) > 1 else np.zeros((m, m)))

    histogram: dict[int, int] = {}
    for r in records:
        if r.outbreak_class is OutbreakClass.MINOR:
            histogram[r.total] = histogram.get(r.total, 0) + 1
    return OutbreakStatistics(n_records=n, major_fraction=p_hat, major_fraction_se=se,
                              major_mean_fraction=mean, major_cov_fraction=cov,
                              minor_histogram=histogram)


# ---------------------------------------------------------------------------
# Record output
# ---------------------------------------------------------------------------


def write_records(records: Sequence[FinalSizeRecord], path: Path, fmt: str = "csv") -> None:
    """Write per-replicate records; column order is fixed and versioned."""
    m = len(records[0].t_inf)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            fh.write(f"# epifrost records v{RECORDS_FORMAT_VERSION}\n")
            writer = csv.writer(fh)
            writer.writerow(["replicate", "seed"] + [f"t_{k + 1}" for k in range(m)]
                            + ["total", "generations", "class"])
            for r in records:
                writer.writerow([r.replicate, r.seed] + [int(x) for x in r.t_inf]
                                + [r.total, r.generations, r.outbreak_class.value])
    elif fmt == "jsonl":
        with open(path, "w") as fh:
            for r in records:
                fh.write(json.dumps({
                    "replicate": r.replicate,
                    "seed": r.seed,
                    "t_inf": [int(x) for x in r.t_inf],
                    "total": r.total,
                    "generations": r.generations,
                    "class": r.outbreak_class.value,
                }) + "\n")
    else:
        raise ValueError(f"unknown record format {fmt!r}")


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def to_jsonable(obj):
    """Replace numpy arrays and scalars, at any depth, by plain Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


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
        return json.dumps({
            "all_passed": self.all_passed,
            "checks": [to_jsonable(asdict(c)) for c in self.checks],
        }, indent=2)


def _check_lln(stats: OutbreakStatistics, tau: np.ndarray) -> CheckResult:
    if stats.major_mean_fraction is None:
        return CheckResult("lln", False, {"tau": tau}, {"major_mean": None},
                           {"se": None}, {"note": "no major outbreaks observed"})
    n_major = round(stats.major_fraction * stats.n_records)
    se = np.sqrt(np.maximum(np.diag(stats.major_cov_fraction), 0.0) / max(n_major, 1))
    err = np.abs(stats.major_mean_fraction - tau)
    tol = np.maximum(0.01, 4.0 * se)
    return CheckResult(
        name="lln",
        passed=bool(np.all(err <= tol)),
        theoretical={"tau": tau},
        empirical={"major_mean": stats.major_mean_fraction, "n_major": n_major},
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


def _check_clt(records: Sequence[FinalSizeRecord], tau: np.ndarray,
               summary: clt.AsymptoticSummary, N: int, pi: np.ndarray) -> CheckResult:
    try:
        report = clt.gaussian_check(records, tau, summary.asym_cov, N, pi)
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


def _progeny_pmf(law: branching.OffspringLaw, a: np.ndarray, replicates: int,
                 seed: int, upto: int) -> np.ndarray:
    counts = np.zeros(upto + 1)
    for r in range(replicates):
        rng = replicate_rng(seed, r)
        # only totals <= upto are counted, so a run may stop once it passes upto
        result = branching.simulate_total_progeny(law, a, upto, rng)
        if not result.exceeded:
            counts[result.total] += 1
    return counts / replicates


def _check_branching_tv(records: Sequence[FinalSizeRecord], law: branching.OffspringLaw,
                        a: np.ndarray, seed: int, upto: int = 10,
                        tol: float = 0.02) -> CheckResult:
    n = len(records)
    epi_pmf = np.zeros(upto + 1)
    for r in records:
        if r.total <= upto:
            epi_pmf[r.total] += 1
    epi_pmf /= n
    gw_pmf = _progeny_pmf(law, a, n, seed + 1, upto)
    tv = 0.5 * float(np.abs(epi_pmf - gw_pmf).sum())
    return CheckResult(
        name="branching_tv",
        passed=bool(tv <= tol),
        theoretical={"progeny_pmf_0_to_10": gw_pmf},
        empirical={"final_size_pmf_0_to_10": epi_pmf, "tv_distance": tv},
        standard_error={"per_bin_se_bound": float(0.5 / np.sqrt(n))},
        tolerance={"tv": tol, "rule": "half L1 distance on totals 0..10"},
    )


# ---------------------------------------------------------------------------
# Experiment driver
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig) -> tuple[Optional[Path], ValidationReport]:
    """Run the configured ensemble plus every enabled theory check.

    Returns the records path (None if no output was configured) and the
    validation report.  Numerical failures inside solvers propagate to the
    caller; check failures only show up as failed entries in the report.
    """
    pop = config.population
    kernel = config.kernel

    records = run_ensemble(pop, kernel, config.replicates, config.seed,
                           workers=config.workers, threshold=config.threshold_override)
    stats = estimate_outbreak_statistics(records)

    records_path = None
    if config.output_path is not None:
        records_path = config.output_path
        write_records(records, records_path, config.output_format)

    checks: list[CheckResult] = []
    if config.checks:
        solution = deterministic.solve_tau(kernel.mu, pop.pi, pop.zeta)
        law = branching.offspring_law_from_kernel(kernel, pop.pi)
        for name in config.checks:
            if name == "lln":
                checks.append(_check_lln(stats, solution.tau))
            elif name == "major_prob":
                ext = branching.extinction_probability(
                    law, mc_samples=config.extinction_mc_samples, a=pop.a)
                checks.append(_check_major_prob(stats, ext.major_outbreak_prob))
            elif name == "clt":
                summary = clt.asymptotic_covariance(kernel.mu, kernel.lam, pop.pi,
                                                    solution.tau, pop.zeta,
                                                    allocation=pop.allocation)
                checks.append(_check_clt(records, solution.tau, summary, pop.N, pop.pi))
            elif name == "branching_tv":
                checks.append(_check_branching_tv(records, law, pop.a, config.seed))

    report = ValidationReport(checks=checks)
    if records_path is not None:
        report_path = records_path.with_suffix(records_path.suffix + ".report.json")
        report_path.write_text(report.to_json())
    return records_path, report

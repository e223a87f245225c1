#!/usr/bin/env python3
"""The epifrost benchmark: simulation ensembles, validations and theory calls.

    python3 perfbench/run.py --workload rf_validate --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload theory_sweep --seed 1 --seconds 1 --smoke

It drives epifrost from the ``src/`` directory next to this one, only through
the entry points the CLI uses (``config.load_config``, ``simulator.run_ensemble``,
``harness.write_records``, ``harness.estimate_outbreak_statistics`` and
``cli.main`` called in-process), as a closed loop: one client, one process,
``workers = 1`` and BLAS pinned to one thread.

A run first starts a few fresh interpreters that import epifrost and load the
workload's configs (``setup_probe.py``); ``setup_s`` is their median.  It then
repeats rounds for about ``--seconds``: it starts another round while that
ends nearer to ``--seconds`` than stopping does.  A round runs three stages
over the workload's configs in ``perfbench/configs``:

* simulate: ``run_ensemble``, ``write_records``, ``estimate_outbreak_statistics``
  (what ``epifrost simulate`` does), as a fixed number of blocks of a tenth
  of the config's replicate count, each an ensemble with a seed of its own;
  ``replicates_per_s`` is the replicate count over the sum of the blocks'
  median times;
* validate: ``epifrost validate`` with the config's checks and a records file,
  each time with the seed of the next simulate block; ``validate_s`` is its
  median time;
* theory: ``epifrost solve``, ``extinction``, ``clt`` and ``graph`` on every
  theory config of the workload; ``theory_s`` is the sum over these calls of
  each call's median time.

The machine this was built on (a 2-vCPU VM) shares its hardware: the same
work runs up to twice as slowly from one tenth of a second to the next, and
for whole minutes at a time.  So while a run measures, a timer interrupts the
process every 5 ms and times a small fixed piece of work of the benchmark's
own (an interpreter loop, a few small numpy calls and a pass over a 256 KiB
buffer, about 0.3 ms) in the signal handler.  Each timed operation's seconds,
less the ticks that ran inside it, are scaled to a reference speed by
``TICK_REF_S`` over the mean tick time while it ran (over at least 0.1 s
around it), and the scaled times of many operations are reduced by medians.
A set-up probe does the same with ticks of its own.  The raw (unscaled)
medians are printed and kept in the report.

Every output is checked against references computed here from the raw JSON
configs (``reference.py``).  An operation fails if it raises, exits 2 or 3,
or misses a check; ``validate`` exiting 1 is a statistical verdict, reported
by name, not a failure.  With ``--trace 1`` each round runs once plainly and
once with the layers wrapped (``tracer.py``); the two must write
byte-identical records, and the per-layer metrics come from the traced copy.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the run
manifest, the check verdicts and every metric with its unit.  A full report
(with the spans of a traced run) is written once, at the end, to
``perfbench/out/``.
"""

import os

# Pinned before numpy loads: one BLAS thread, so the closed loop is one core's work.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import cached_property  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402
from typing import Callable, Optional  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference as ref  # noqa: E402
from tracer import Tracer, per_layer_metrics, span_records  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = BENCH / "configs"
OUT = BENCH / "out"

THEORY_COMMANDS = ("solve", "extinction", "clt", "graph")
# The speed ticks: one every TICK_INTERVAL_S while a run measures; TICK_REF_S
# is about the fastest time of ``tick_work`` on the machine the benchmark was
# built on (2 vCPUs, Python 3.11.7, numpy 2.4.6), the speed end-to-end times
# are scaled to.  An operation shorter than MIN_WINDOW_S is scaled by the
# ticks of the MIN_WINDOW_S around it.
TICK_INTERVAL_S = 0.005
TICK_REF_S = 0.00025
MIN_WINDOW_S = 0.1
# The same for the ticks of ``setup_probe.py``, which times its own ticks
# (an interpreter loop and a buffer scan, no numpy) while it imports epifrost.
SETUP_TICK_REF_S = 0.00025
SETUP_PROBES = 7
SMOKE_BLOCKS = 2
NEAR_CRITICAL = ("theory_constant_R1_001.json", "theory_constant_R1_0001.json")
# Relative error allowed in tau, and in 1 - q, against the independent roots.
# The library stops iterating at a step of 1e-12, which at R = 1.0001 leaves a
# relative error of about 5e-5; a solver that stops early or returns the
# trivial root (tau = 0, q = 1) is off by far more.
ROOT_REL_TOL = 1e-3


@dataclass(frozen=True)
class Workload:
    sim_config: str  # simulated and validated
    theory_configs: tuple[str, ...]  # solve / extinction / clt / graph
    # The simulate stage runs this many ensembles of a tenth of the config's
    # replicates each, so that its median time comes from many short
    # operations and its sum over many seeds' replicates.
    blocks: int
    # validate runs and theory passes per round, so that every stage is timed
    # several times in a run of about 20 seconds
    validates: int
    theory_passes: int
    smoke_replicates: int


WORKLOADS = {
    # Classic Reed-Frost validation (constant kernel, m = 1, mu = 1.5,
    # N = 1e4, deterministic allocation, all four checks): 5e3 short
    # replicates on the m = 1 fast path.  Stresses per-replicate fixed costs
    # and branching.simulate_total_progeny (branching_tv); barely touches
    # kernel sampling or the solvers.
    "rf_validate": Workload("rf_validate.json", ("rf_validate.json",), 10, 1, 20, 400),
    # Mover model (ball_clancy93, m = 3, exponential sojourns, R ~ 2.27,
    # N = 2e4, random multinomial allocation): 1e3 long replicates on the
    # general m > 1 loop, dominated by kernel.sample, with about 680 major
    # outbreaks for the clt check.  The same simulator used the other way
    # round from rf_validate.
    "mover_ensemble": Workload("mover_ensemble.json", ("mover_ensemble.json",), 10, 1, 20, 60),
    # Solvers near R = 1 (two-type constant kernel at R = 1.5 .. 1.0001,
    # zeta = 0), the Monte Carlo extinction and moment paths (Beta and
    # exponential laws without closed-form generating functions) and the
    # random-type model.  theory_s isolates the solvers; the random-type
    # config is also simulated, because every workload reports every metric,
    # in 20 blocks: a block's time depends on how many of its replicates are
    # major outbreaks, and twice the config's replicates halve that spread.
    "theory_sweep": Workload(
        "theory_ball_clancy95.json",
        ("theory_constant_R1_5.json", "theory_constant_R1_01.json",
         "theory_constant_R1_001.json", "theory_constant_R1_0001.json",
         "theory_static_graph.json", "theory_mixed_bernoulli.json",
         "theory_dynamic_graph.json", "theory_ball_clancy95.json"),
        20, 2, 1, 200),
}

END_TO_END_UNITS = {"setup_s": "s", "replicates_per_s": "1/s", "validate_s": "s",
                    "theory_s": "s", "peak_rss_mb": "MiB"}


class LibraryMissing(RuntimeError):
    pass


def import_library() -> SimpleNamespace:
    """Import epifrost from this checkout's src/, never from anywhere else."""
    if not (SRC / "epifrost" / "__init__.py").is_file():
        raise LibraryMissing(f"no epifrost package under {SRC}")
    sys.path.insert(0, str(SRC))
    import epifrost
    from epifrost import cli, config, harness, simulator

    if not Path(epifrost.__file__).resolve().is_relative_to(SRC.resolve()):
        raise LibraryMissing(f"epifrost was imported from {epifrost.__file__}, not {SRC}")
    return SimpleNamespace(epifrost=epifrost, cli=cli, config=config, harness=harness,
                           simulator=simulator)


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------


TICK_MU = np.array([[1.2, 0.5], [0.3, 1.0]])
TICK_W = np.array([0.6, 0.4])
TICK_BUFFER = np.ones(1 << 15)  # 256 KiB, about the size of the library's arrays at N = 2e4


def tick_work() -> float:
    """A small fixed interpreter loop, a few small numpy calls and one pass over a buffer.

    The loop and the small calls are the library's two costs; the buffer
    makes a tick slow down under cache contention about as much as they do.
    """
    total = 0
    for i in range(3000):
        total += i * i
    x = np.full(2, 0.5)
    for _ in range(40):
        x = -np.expm1(-(x * TICK_W) @ TICK_MU)
    return total + float(x.max()) + float(TICK_BUFFER.sum())


Sample = tuple[float, float]  # (start, end) of one timed operation


class Speed:
    """Samples the machine's speed while operations run, and scales their times.

    Between ``start`` and ``stop`` a SIGALRM timer runs ``tick_work`` every
    ``TICK_INTERVAL_S`` in the main thread, between the library's bytecodes,
    and records when each tick ran.  An operation's time at the reference
    speed is its own seconds, less the ticks inside it, times ``TICK_REF_S``
    over the mean tick time while it ran.
    """

    def __init__(self) -> None:
        self.ticks: list[Sample] = []
        self._busy = False
        self._previous = None
        self._array: Optional[np.ndarray] = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that was itself interrupted is not re-entered
            return
        self._busy = True
        t0 = time.perf_counter()
        tick_work()
        self.ticks.append((t0, time.perf_counter()))
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL_S, TICK_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn: Callable, *args, **kwargs) -> tuple[object, Sample]:
        """(result of ``fn(*args, **kwargs)`` or the exception it raised, (start, end))."""
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the caller records it as a failure
            result = exc
        return result, (t0, time.perf_counter())

    def _between(self, t0: float, t1: float) -> np.ndarray:
        """Durations of the ticks that started in [t0, t1]."""
        if self._array is None or len(self._array) != len(self.ticks):
            self._array = np.array(self.ticks, dtype=float).reshape(-1, 2)
        lo, hi = np.searchsorted(self._array[:, 0], [t0, t1])
        return self._array[lo:hi, 1] - self._array[lo:hi, 0]

    def scaled(self, sample: Sample) -> float:
        """The sample's seconds, less the ticks inside it, at the reference speed."""
        t0, t1 = sample
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2)
        window = self._between(t0 - pad, t1 + pad)
        if len(window) == 0:
            raise RuntimeError(f"no speed ticks within {t1 - t0 + 2 * pad:.3f} s of an operation")
        net = t1 - t0 - float(np.sum(self._between(t0, t1)))
        return net * TICK_REF_S / float(np.mean(window))

    def durations(self) -> list[float]:
        return [end - start for start, end in self.ticks]


# ---------------------------------------------------------------------------
# Operations and their failures
# ---------------------------------------------------------------------------


class Ledger:
    """Operations attempted and the problems of those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.kinds: dict[str, int] = {}

    def record(self, kind: str, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.kinds[kind] = self.kinds.get(kind, 0) + 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))


def call_cli(lib: SimpleNamespace, argv: list[str]) -> tuple[Optional[int], str, str, float]:
    """Run ``epifrost <argv>`` in-process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash inside the library is a failed operation
        rc = None
        err.write(f"raised {type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Inputs and references
# ---------------------------------------------------------------------------


@dataclass
class ConfigRef:
    """One config as raw JSON plus the benchmark's own reference values."""

    path: Path
    doc: dict
    m: int
    N: int
    pi: np.ndarray
    a: np.ndarray
    zeta: np.ndarray
    law: ref.ULaw
    checked: dict = field(default_factory=dict)  # outputs of the 4 commands -> problems

    @classmethod
    def load(cls, name: str) -> "ConfigRef":
        path = CONFIGS / name
        doc = json.loads(path.read_text())
        pop, kernel = doc["population"], doc["kernel"]
        pi = np.asarray(pop["pi"] if "pi" in pop else kernel["pi"], dtype=float)
        m, N = len(pi), int(pop["N"])
        if "a" in pop:
            a = np.asarray(pop["a"], dtype=float)
            zeta = a / (N * pi)
        else:
            zeta = np.asarray(pop.get("zeta", np.zeros(m)), dtype=float)
            a = np.rint(zeta * N * pi)
        return cls(path, doc, m, N, pi, a, zeta, ref.ULaw(kernel, m))

    @property
    def name(self) -> str:
        return self.path.name

    @cached_property
    def q_ref(self) -> np.ndarray:
        """Extinction probabilities from brentq (m = 1 constant) or the reference pgf."""
        kernel = self.doc["kernel"]
        if kernel["kind"] == "constant" and self.m == 1:
            return np.array([ref.scalar_q(kernel["mu"][0][0] * self.pi[0])])
        return ref.extinction_root(self.law, self.pi)

    @cached_property
    def q_gain(self) -> float:
        return ref.extinction_gain(self.law, self.pi, self.q_ref)

    def major_probability(self) -> float:
        """1 - prod q_i^a_i."""
        return float(1.0 - np.prod(self.q_ref ** self.a))


def check_records(path: Path, cfg: ConfigRef, replicates: int, seed: int) -> tuple[list[str], int]:
    """v1 header, one consistent row per replicate; returns (problems, major count)."""
    lines = path.read_text().splitlines()
    header = (["replicate", "seed"] + [f"t_{k + 1}" for k in range(cfg.m)]
              + ["total", "generations", "class"])
    if len(lines) < 2 or lines[0] != "# epifrost records v1" or lines[1].split(",") != header:
        return [f"{path.name}: missing v1 header"], 0
    rows = lines[2:]
    if len(rows) != replicates:
        return [f"{path.name}: {len(rows)} rows for {replicates} replicates"], 0
    threshold = math.ceil(cfg.N ** 0.75)
    majors = 0
    for r, line in enumerate(rows):
        f = line.split(",")
        t = [int(x) for x in f[2:2 + cfg.m]]
        total, cls = int(f[2 + cfg.m]), f[-1]
        ok = (len(f) == cfg.m + 5 and int(f[0]) == r and int(f[1]) == seed
              and sum(t) == total and min(t) >= 0
              and cls == ("major" if total >= threshold else "minor"))
        if not ok:
            return [f"{path.name}: bad row {r}: {line}"], 0
        majors += cls == "major"
    return [], majors


def check_major_fraction(observed: float, n: int, p: float) -> list[str]:
    se = math.sqrt(p * (1.0 - p) / n)
    if abs(observed - p) > 5.0 * se:
        return [f"major fraction {observed:.4f} is more than 5 SE ({se:.4f}) from {p:.4f}"]
    return []


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def check_theory(cfg: ConfigRef, outputs: dict[str, dict]) -> dict[str, list[str]]:
    """Problems per command for one config's solve / extinction / clt / graph JSON."""
    problems = {cmd: [] for cmd in THEORY_COMMANDS}
    kernel = cfg.doc["kernel"]
    scalar = kernel["kind"] == "constant" and cfg.m == 1

    g = outputs["graph"]
    mu = np.asarray(g["mu"], dtype=float)
    R_ref = ref.dense_R(mu, cfg.pi)
    if _rel(g["R"], R_ref) > 1e-9:
        problems["graph"].append(f"R {g['R']!r} != dense eigvals {R_ref!r}")
    for i in range(cfg.m):
        exact = cfg.law.mean(i)
        if g["moments_estimated"]:
            samples = int(kernel.get("moment_samples", 100_000))
            var = np.array([cfg.law.second_moment(i, j) for j in range(cfg.m)]) - exact ** 2
            tol = 6.0 * np.sqrt(np.maximum(var, 0.0) / samples) + 1e-12
        else:
            tol = 1e-9 * np.maximum(1.0, np.abs(exact))
        if np.any(np.abs(mu[i] - exact) > tol):
            problems["graph"].append(f"mu row {i} {mu[i]} != reference {exact}")

    # The residual checks below are tight only well above R = 1: near it the
    # maps are almost flat, so both also compare with independent roots, and
    # those rule out the trivial roots tau = 0 and q = 1 whenever R > 1.
    supercritical = R_ref > 1.0
    s = outputs["solve"]
    tau = np.asarray(s["tau"], dtype=float)
    if _rel(s["R"], R_ref) > 1e-9:
        problems["solve"].append(f"R {s['R']!r} != dense eigvals {R_ref!r}")
    residual = float(np.max(np.abs(tau - ref.attack_map(tau + cfg.zeta, mu, cfg.pi))))
    if residual > 1e-9 or np.any(tau < 0) or np.any(tau > 1):
        problems["solve"].append(f"tau {tau} has fixed-point residual {residual:.3g}")
    if supercritical:
        tau_ref = ref.attack_rate(mu, cfg.pi, cfg.zeta)
        if np.min(tau) <= 0.0 or np.max(np.abs(tau - tau_ref)) > ROOT_REL_TOL * np.max(tau_ref):
            problems["solve"].append(f"tau {tau} != independent root {tau_ref}")
    if scalar and cfg.zeta[0] > 0:
        tau_ref = ref.scalar_tau(kernel["mu"][0][0] * cfg.pi[0], cfg.zeta[0])
        if abs(tau[0] - tau_ref) > 1e-9:
            problems["solve"].append(f"tau {tau[0]!r} != brentq {tau_ref!r}")

    e = outputs["extinction"]
    q = np.asarray(e["q"], dtype=float)
    h = ref.pgf(cfg.law, q, cfg.pi)
    mc_error = np.zeros(cfg.m)  # 6 SE of the library's Monte Carlo estimate of h
    if e["mc_samples"]:
        second = ref.pgf(cfg.law, q, cfg.pi, doubled=True)
        mc_error = 6.0 * np.sqrt(np.maximum(second - h ** 2, 0.0) / e["mc_samples"])
    if np.any(np.abs(q - h) > 1e-9 + mc_error) or np.any(q < 0) or np.any(q > 1):
        problems["extinction"].append(f"q {q} misses q = h(q): h = {h}")
    if supercritical:
        tol = ROOT_REL_TOL * np.max(1.0 - cfg.q_ref)
        if e["mc_samples"]:
            tol += cfg.q_gain * np.max(mc_error)
        if np.max(q) >= 1.0 or np.max(np.abs(q - cfg.q_ref)) > tol:
            problems["extinction"].append(f"q {q} != independent root {cfg.q_ref}")
    if scalar:
        q_ref = ref.scalar_q(kernel["mu"][0][0] * cfg.pi[0])
        if abs(q[0] - q_ref) > 1e-9:
            problems["extinction"].append(f"q {q[0]!r} != brentq {q_ref!r}")
    p = 1.0 - float(np.prod(q ** cfg.a))
    if e["major_outbreak_prob"] is None or abs(e["major_outbreak_prob"] - p) > 1e-12:
        problems["extinction"].append(f"major_outbreak_prob {e['major_outbreak_prob']} != {p}")

    c = outputs["clt"]
    cov = np.asarray(c["asym_cov"], dtype=float)
    if (cov.shape != (cfg.m, cfg.m) or not np.all(np.isfinite(cov))
            or np.max(np.abs(cov - cov.T)) > 1e-9 * max(1.0, np.max(np.abs(cov)))
            or np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) < -1e-9 * max(1.0, np.max(np.abs(cov)))
            or not (math.isfinite(c["cond_u"]) and c["cond_u"] >= 1.0 - 1e-12)):
        problems["clt"].append(f"asym_cov {cov.tolist()} / cond_u {c['cond_u']} is not a covariance")
    return problems


# ---------------------------------------------------------------------------
# One round: simulate, validate, theory
# ---------------------------------------------------------------------------


@dataclass
class Bench:
    lib: SimpleNamespace
    workload: str
    seed: int
    replicates: int  # per validate run
    blocks: int
    block_replicates: int  # per simulate block
    sim: ConfigRef
    sim_config: object  # epifrost ExperimentConfig of ``sim``
    p_major: float
    theory: list[ConfigRef]
    validates: int
    theory_passes: int
    ledger: Ledger
    speed: Speed
    workdir: Path
    # records of the first run of each block, and of validate with each block's
    # seed, that every rerun must repeat
    block_shas: dict[int, str] = field(default_factory=dict)
    block_rows: dict[int, list[str]] = field(default_factory=dict)
    validate_shas: dict[int, str] = field(default_factory=dict)

    def block_seed(self, block: int) -> int:
        return self.seed * self.blocks + block


@dataclass
class Timings:
    """Every timed operation, by stage (simulate by block, theory by config and command)."""

    simulate: dict[int, list[Sample]] = field(default_factory=dict)
    validate: list[Sample] = field(default_factory=list)
    theory: dict[tuple[str, str], list[Sample]] = field(default_factory=dict)

    def busy_s(self) -> float:
        samples = [*self.validate, *(x for v in self.simulate.values() for x in v),
                   *(x for v in self.theory.values() for x in v)]
        return sum(end - start for start, end in samples)

    def stage_s(self, seconds: Callable[[Sample], float]) -> dict[str, float]:
        """Median seconds of each stage, each sample measured by ``seconds``."""
        def med(samples: list[Sample]) -> float:
            return statistics.median(map(seconds, samples))
        return {"simulate_s": sum(map(med, self.simulate.values())),
                "validate_s": med(self.validate),
                "theory_s": sum(map(med, self.theory.values()))}


@dataclass
class Round:
    records_shas: tuple  # of the simulate blocks, in block order
    verdicts: dict  # of the round's first validate


def _plain(name: str, fn: Callable, *args):
    return fn(*args)


def _simulate_stage(lib: SimpleNamespace, cfg, replicates: int, seed: int, path: Path):
    records = lib.simulator.run_ensemble(cfg.population, cfg.kernel, replicates, seed,
                                         workers=1, threshold=cfg.threshold_override)
    lib.harness.write_records(records, path, "csv")
    return lib.harness.estimate_outbreak_statistics(records)


def simulate(b: Bench, block: int, tag: str) -> tuple[Sample, Optional[str], int]:
    """One block's ensemble; returns its timing, records sha256 and major count."""
    n, seed = b.block_replicates, b.block_seed(block)
    path = b.workdir / f"simulate-{tag}-{block}.csv"
    stats, sample = b.speed.timed(_simulate_stage, b.lib, b.sim_config, n, seed, path)
    problems: list[str] = []
    sha, majors = None, 0
    if isinstance(stats, Exception):  # the library crashed: a failed operation
        problems.append(f"raised {type(stats).__name__}: {stats}")
    else:
        file_problems, majors = check_records(path, b.sim, n, seed)
        problems += file_problems
        if not file_problems and abs(majors / n - stats.major_fraction) > 1e-12:
            problems.append(f"major_fraction {stats.major_fraction} disagrees with the records")
        sha = sha256(path)
        if b.block_shas.setdefault(block, sha) != sha:
            problems.append("a rerun with the same seed wrote different records")
        if block not in b.block_rows:
            b.block_rows[block] = path.read_text().splitlines()[2:]
    b.ledger.record("simulate", f"simulate {b.sim.name} block {block}", problems)
    return sample, sha, majors


def validate(b: Bench, block: int, tag: str) -> tuple[Sample, dict]:
    """``epifrost validate`` of the config's replicates with the seed of simulate block ``block``."""
    path = b.workdir / f"validate-{tag}.csv"
    seed = b.block_seed(block)
    argv = ["validate", "--config", str(b.sim.path), "--seed", str(seed),
            "--replicates", str(b.replicates), "--out", str(path)]
    (rc, out, err, _), sample = b.speed.timed(call_cli, b.lib, argv)
    problems: list[str] = []
    verdicts: dict = {}
    if rc not in (0, 1):
        problems.append(f"exit {rc}: {err.strip()[-300:]}")
    else:
        try:
            report = json.loads(out)
            names = [c["name"] for c in report["checks"]]
            for c in report["checks"]:
                verdicts[c["name"]] = "pass" if c["passed"] else "fail"
                if c["name"] == "clt":
                    for key in ("mardia_skew_p", "mardia_kurtosis_p"):
                        verdicts[key] = c["empirical"].get(key)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed report: {exc!r}")
        else:
            if names != b.sim.doc["checks"]:
                problems.append(f"report checks {names} != config checks {b.sim.doc['checks']}")
            if report["all_passed"] != (rc == 0):
                problems.append(f"exit {rc} disagrees with all_passed={report['all_passed']}")
        file_problems, _ = check_records(path, b.sim, b.replicates, seed)
        problems += file_problems
        if not Path(str(path) + ".report.json").is_file():
            problems.append("no .report.json next to the records")
        # replicate r depends only on (seed, r), so the block is a prefix of these records
        rows = path.read_text().splitlines()[2:2 + b.block_replicates]
        if block in b.block_rows and rows != b.block_rows[block]:
            problems.append("validate wrote different records from simulate for the same seed")
        sha = sha256(path)
        if b.validate_shas.setdefault(block, sha) != sha:
            problems.append("a rerun with the same seed wrote different records")
    b.ledger.record("validate", f"validate {b.sim.name}", problems)
    return sample, verdicts


def theory_pass(b: Bench, span: Callable, timings: Timings) -> None:
    """solve / extinction / clt / graph on every theory config, each call timed."""
    for cfg in b.theory:
        outputs: dict[str, dict] = {}
        raw: dict[str, str] = {}
        problems: dict[str, list[str]] = {}
        for cmd in THEORY_COMMANDS:
            (rc, out, err, _), sample = b.speed.timed(
                span, f"cli.{cmd}", call_cli, b.lib, [cmd, "--config", str(cfg.path)])
            timings.theory.setdefault((cfg.name, cmd), []).append(sample)
            raw[cmd] = out
            problems[cmd] = []
            if rc != 0:
                problems[cmd].append(f"exit {rc}: {err.strip()[-300:]}")
                continue
            try:
                outputs[cmd] = json.loads(out)
            except ValueError as exc:
                problems[cmd].append(f"malformed output: {exc!r}")
        key = tuple(raw[cmd] for cmd in THEORY_COMMANDS)
        if len(outputs) == len(THEORY_COMMANDS):
            # outputs repeat exactly across passes; check each distinct one once
            if key not in cfg.checked:
                try:
                    cfg.checked[key] = check_theory(cfg, outputs)
                except (KeyError, TypeError, ValueError) as exc:
                    cfg.checked[key] = {cmd: [f"malformed output: {exc!r}"]
                                        for cmd in THEORY_COMMANDS}
            for cmd in THEORY_COMMANDS:
                problems[cmd] += cfg.checked[key][cmd]
        for cmd in THEORY_COMMANDS:
            b.ledger.record("theory_call", f"{cmd} {cfg.name}", problems[cmd])


def run_round(b: Bench, index: int, tag: str, timings: Timings,
              tracer: Optional[Tracer] = None) -> Round:
    """Round ``index``: every simulate block, then validate with the next blocks' seeds
    in turn, so that validate_s is a median over several seeds' ensembles."""
    span = tracer.run if tracer is not None else _plain
    shas, majors = [], 0
    for block in range(b.blocks):
        sample, sha, block_majors = span("stage.simulate", simulate, b, block, tag)
        timings.simulate.setdefault(block, []).append(sample)
        shas.append(sha)
        majors += block_majors
    n = b.blocks * b.block_replicates
    b.ledger.record("major_fraction", f"major fraction of {b.sim.name} over {n} replicates",
                    check_major_fraction(majors / n, n, b.p_major))
    verdicts: list[dict] = []
    for k in range(b.validates):
        block = (index * b.validates + k) % b.blocks
        sample, block_verdicts = span("stage.validate", validate, b, block, f"{tag}-{k}")
        timings.validate.append(sample)
        verdicts.append(block_verdicts)
    for _ in range(b.theory_passes):
        span("stage.theory", theory_pass, b, span, timings)
    return Round(tuple(shas), verdicts[0])


# ---------------------------------------------------------------------------
# Set-up probes, manifest, entry point
# ---------------------------------------------------------------------------


def setup_probes(b: Bench, configs: list[ConfigRef], count: int) -> list[dict]:
    """Fresh interpreters: import epifrost, then load_config every config of the workload."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, str(BENCH / "setup_probe.py")] + [str(c.path) for c in configs]
    probes = []
    for _ in range(count):
        problems = []
        proc, _ = b.speed.timed(subprocess.run, argv, cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=120)
        if isinstance(proc, Exception):
            problems.append(f"raised {type(proc).__name__}: {proc}")
        elif proc.returncode != 0:
            problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
            if not Path(probe["epifrost_file"]).resolve().is_relative_to(SRC.resolve()):
                problems.append(f"imported epifrost from {probe['epifrost_file']}")
            elif probe["ticks"] == 0:
                problems.append("no speed ticks while importing epifrost")
            else:
                probes.append(probe)
        b.ledger.record("setup_probe", "setup probe", problems)
    return probes


def git_commit() -> Optional[str]:
    """HEAD of this checkout's own .git, or None (git never looks above the checkout)."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def manifest(b: Bench, args: argparse.Namespace, rounds: int) -> dict:
    return {
        "workload": b.workload,
        "seed": b.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": rounds,
        "replicates_per_validate": b.replicates,
        "simulate_blocks": b.blocks,
        "replicates_per_block": b.block_replicates,
        "block_seeds": [b.block_seed(k) for k in range(b.blocks)],
        "validate_seeds": [b.block_seed(k) for k in sorted(b.validate_shas)],
        "theory_configs": [c.name for c in b.theory],
        "operations": dict(b.ledger.kinds),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "epifrost": b.lib.epifrost.__version__,
        "git_commit": git_commit(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "workers": 1,
        "speed_ticks": {"interval_s": TICK_INTERVAL_S, "reference_s": TICK_REF_S,
                        "count": len(b.speed.ticks),
                        "median_s": median(b.speed.durations()),
                        "best_s": min(b.speed.durations(), default=None)},
    }


def median(values: list[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def another_round(start: float, rounds: int, seconds: float) -> bool:
    """Always a first round; then another while it ends nearer ``seconds`` than stopping does."""
    if rounds == 0:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds / 2 < seconds


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="keep starting rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: pair every plain round with a traced one and report per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes and no near-critical configs, for testing the benchmark")
    return p.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    try:
        lib = import_library()
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    theory_names = [n for n in wl.theory_configs if not (args.smoke and n in NEAR_CRITICAL)]
    sim = ConfigRef.load(wl.sim_config)
    replicates = wl.smoke_replicates if args.smoke else int(sim.doc["replicates"])
    blocks = SMOKE_BLOCKS if args.smoke else wl.blocks
    ledger = Ledger()
    OUT.mkdir(parents=True, exist_ok=True)
    result: dict = {}

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        b = Bench(lib=lib, workload=args.workload, seed=args.seed, replicates=replicates,
                  blocks=blocks,
                  block_replicates=replicates // (SMOKE_BLOCKS if args.smoke else 10),
                  sim=sim, sim_config=lib.config.load_config(sim.path),
                  p_major=sim.major_probability(),
                  theory=[ConfigRef.load(n) for n in theory_names],
                  validates=1 if args.smoke else wl.validates,
                  theory_passes=1 if args.smoke else wl.theory_passes,
                  ledger=ledger, speed=Speed(), workdir=Path(tmp))
        configs = [sim] + [c for c in b.theory if c.name != sim.name]
        rounds: list[Round] = []
        plain = Timings()
        tracer, traced = Tracer(), Timings()
        probes = setup_probes(b, configs, 1 if args.smoke else SETUP_PROBES)
        if not args.trace:  # the traced run reports layer times unscaled, so it needs no ticks
            b.speed.start()
        try:
            start = time.perf_counter()
            while another_round(start, len(rounds), args.seconds):
                n = len(rounds)
                rounds.append(run_round(b, n, f"plain{n}", plain))
                if args.trace:
                    tracer.install()
                    try:
                        twin = run_round(b, n, f"traced{n}", traced, tracer)
                    finally:
                        leftovers = tracer.uninstall()
                    ledger.record("trace_check", "trace restores every wrapped attribute",
                                  leftovers)
                    same = (None not in twin.records_shas
                            and twin.records_shas == rounds[-1].records_shas)
                    ledger.record("trace_check", "traced records match plain records",
                                  [] if same else ["records differ (sha256)"])
        finally:
            if not args.trace:
                b.speed.stop()

        if args.trace:
            setup = {"import_s": median([p["import_s"] for p in probes]) or 0.0,
                     "load_config_s": median([p["load_config_s"] for p in probes]) or 0.0}
            metrics = per_layer_metrics(tracer, len(rounds), setup,
                                        (traced.busy_s() - plain.busy_s()) / plain.busy_s())
            result["spans"] = span_records(tracer)
        else:
            # a probe's own import and load_config time, at the speed of its own ticks
            setup_s = [p["import_s"] + p["load_config_s"] for p in probes]
            setup_scaled = [t * SETUP_TICK_REF_S / p["tick_mean_s"]
                            for t, p in zip(setup_s, probes)]
            raw = dict(setup_s=median(setup_s), **plain.stage_s(lambda x: x[1] - x[0]))
            scaled = dict(setup_s=median(setup_scaled), **plain.stage_s(b.speed.scaled))
            values = {
                "setup_s": scaled["setup_s"],
                "replicates_per_s": b.blocks * b.block_replicates / scaled["simulate_s"],
                "validate_s": scaled["validate_s"],
                "theory_s": scaled["theory_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
            result["raw_median_s"] = raw
            def pairs(samples: list[Sample]) -> list[list[float]]:
                return [[x[1] - x[0], b.speed.scaled(x)] for x in samples]
            result["samples"] = {  # [seconds, scaled seconds] of every timed operation
                "setup": [list(x) for x in zip(setup_s, setup_scaled)],
                "simulate": {str(k): pairs(v) for k, v in plain.simulate.items()},
                "validate": pairs(plain.validate),
                "theory": {f"{cmd} {name}": pairs(v) for (name, cmd), v in plain.theory.items()}}
            print("raw_median_s " + json.dumps(raw))

    info = manifest(b, args, len(rounds))
    failed = len(ledger.failures)
    print("manifest " + json.dumps(info))
    for name, verdict in rounds[0].verdicts.items():
        print(f"verdict {name} {verdict}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"metric failed_fraction {failed / ledger.attempted} ratio "
          f"({failed} of {ledger.attempted} operations)")

    result.update(manifest=info, verdicts=rounds[0].verdicts, failures=ledger.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

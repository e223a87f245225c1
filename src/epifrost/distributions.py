"""Small scalar distribution helper used by kernel builders and configs.

Kernel specifications need a handful of nonnegative scalar laws (contact
probabilities W, infectious lifetimes Q, group sojourn times I).  Each law
exposes sampling, exact first and second moments, and its exact moment
generating function M(t) = E[exp(tX)] and derivative M'(t) = E[X exp(tX)]
at nonpositive arguments: the extinction solver needs M, the dynamic-graph
moments need both.  Beta laws (and uniform ones, a shifted and scaled
Beta(1, 1)) evaluate M through Kummer's confluent hypergeometric function.

``expect(f)`` gives E[f(X)] for any other vectorized f (the dynamic graph's
generating function): a finite sum for laws with finitely many atoms, and
otherwise one fixed tanh-sinh rule in probability space (Takahasi and Mori,
Publ. RIMS 9, 1974) mapped through the law's quantile.  Its weights are
positive and sum to 1, so E[f(X)] is an exact expectation over a discrete
law close to X: convexity and monotonicity in f carry over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

__all__ = ["ScalarDist"]


@dataclass(frozen=True)
class ScalarDist:
    """A nonnegative scalar random variable with known moments.

    ``mgf(t)`` = E[exp(tX)] and ``mgf_prime(t)`` = E[X exp(tX)] are exact
    and accept any t <= 0.  ``expect(f)`` = E[f(X)] for an f that maps a 1-d
    array of values to a same-length array (or (n, ...) stack).
    """

    name: str
    mean: float
    var: float
    sample: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)
    mgf: Callable[[float], float] = field(repr=False)
    mgf_prime: Callable[[float], float] = field(repr=False)
    expect: Callable[[Callable[[np.ndarray], np.ndarray]], float] = field(repr=False)
    support_max: float = np.inf

    def __post_init__(self):
        if self.is_constant:  # a degenerate law (bernoulli(0), one atom) draws nothing
            value = self.mean
            object.__setattr__(self, "sample", lambda rng, size: np.full(size, value))

    @property
    def is_constant(self) -> bool:
        return self.var == 0.0

    @staticmethod
    def constant(value: float) -> "ScalarDist":
        v = float(value)
        if v < 0:
            raise ValueError(f"constant distribution needs value >= 0, got {v}")
        return ScalarDist(
            name=f"constant({v})",
            mean=v,
            var=0.0,
            sample=lambda rng, size: np.full(size, v),
            mgf=lambda t: float(np.exp(t * v)),
            mgf_prime=lambda t: float(v * np.exp(t * v)),
            expect=_atoms([v], [1.0]),
            support_max=v,
        )

    @staticmethod
    def exponential(mean: float) -> "ScalarDist":
        m = float(mean)
        if m <= 0:
            raise ValueError(f"exponential distribution needs mean > 0, got {m}")
        return ScalarDist(
            name=f"exponential(mean={m})",
            mean=m,
            var=m * m,
            sample=lambda rng, size: rng.exponential(m, size),
            mgf=lambda t: 1.0 / (1.0 - m * t),  # finite for all t < 1/m
            mgf_prime=lambda t: m / (1.0 - m * t) ** 2,
            # -m log(1 - u) = m log(1 + e^z) for u = expit(z)
            expect=_quantile_rule(lambda z, u, v: m * np.logaddexp(0.0, z)),
        )

    @staticmethod
    def gamma(shape: float, scale: float) -> "ScalarDist":
        k, s = float(shape), float(scale)
        if k <= 0 or s <= 0:
            raise ValueError("gamma distribution needs shape > 0 and scale > 0")
        return ScalarDist(
            name=f"gamma(shape={k}, scale={s})",
            mean=k * s,
            var=k * s * s,
            sample=lambda rng, size: rng.gamma(k, s, size),
            mgf=lambda t: float((1.0 - s * t) ** (-k)),
            mgf_prime=lambda t: float(k * s * (1.0 - s * t) ** (-k - 1.0)),
            expect=_quantile_rule(lambda z, u, v: s * np.where(
                z < 0, special.gammaincinv(k, u), special.gammainccinv(k, v))),
        )

    @staticmethod
    def bernoulli(p: float) -> "ScalarDist":
        pp = float(p)
        if not 0 <= pp <= 1:
            raise ValueError(f"bernoulli distribution needs p in [0,1], got {pp}")
        return ScalarDist(
            name=f"bernoulli({pp})",
            mean=pp,
            var=pp * (1 - pp),
            sample=lambda rng, size: (rng.random(size) < pp).astype(float),
            mgf=lambda t: float(1 - pp + pp * np.exp(t)),
            mgf_prime=lambda t: float(pp * np.exp(t)),
            expect=_atoms([0.0, 1.0], [1.0 - pp, pp]),
            support_max=1.0 if pp > 0 else 0.0,
        )

    @staticmethod
    def uniform(low: float, high: float) -> "ScalarDist":
        a, b = float(low), float(high)
        if not 0 <= a < b:
            raise ValueError(f"uniform distribution needs 0 <= low < high, got [{a}, {b}]")
        w = b - a  # X = a + w B with B ~ Beta(1, 1)
        return ScalarDist(
            name=f"uniform({a}, {b})",
            mean=(a + b) / 2,
            var=w ** 2 / 12,
            sample=lambda rng, size: rng.uniform(a, b, size),
            mgf=lambda t: math.exp(t * a) * _kummer(1.0, 2.0, t * w),
            mgf_prime=lambda t: math.exp(t * a) * (a * _kummer(1.0, 2.0, t * w)
                                                   + w / 2 * _kummer(2.0, 3.0, t * w)),
            expect=_quantile_rule(lambda z, u, v: np.where(z < 0, a + w * u, b - w * v)),
            support_max=b,
        )

    @staticmethod
    def beta(a: float, b: float) -> "ScalarDist":
        # M(t) = M(a, a+b, t) and M'(t) = (a/(a+b)) M(a+1, a+b+1, t) (Kummer's M)
        aa, bb = float(a), float(b)
        if aa <= 0 or bb <= 0:
            raise ValueError("beta distribution needs a > 0 and b > 0")
        mean = aa / (aa + bb)
        var = aa * bb / ((aa + bb) ** 2 * (aa + bb + 1))
        return ScalarDist(
            name=f"beta({aa}, {bb})",
            mean=mean,
            var=var,
            sample=lambda rng, size: rng.beta(aa, bb, size),
            mgf=lambda t: _kummer(aa, aa + bb, t),
            mgf_prime=lambda t: mean * _kummer(aa + 1.0, aa + bb + 1.0, t),
            expect=_quantile_rule(lambda z, u, v: np.where(
                z < 0, special.betaincinv(aa, bb, u), 1.0 - special.betaincinv(bb, aa, v))),
            support_max=1.0,
        )

    @staticmethod
    def discrete(values, probs) -> "ScalarDist":
        vals = np.asarray(values, dtype=float)
        ps = np.asarray(probs, dtype=float)
        if vals.ndim != 1 or vals.shape != ps.shape:
            raise ValueError("discrete distribution needs matching 1-d values and probs")
        if np.any(vals < 0) or np.any(ps < 0) or abs(ps.sum() - 1.0) > 1e-12:
            raise ValueError("discrete distribution needs values >= 0 and probs summing to 1")
        mean = float(vals @ ps)
        var = float((vals - mean) ** 2 @ ps)
        return ScalarDist(
            name=f"discrete({vals.tolist()})",
            mean=mean,
            var=var,
            sample=lambda rng, size: rng.choice(vals, size=size, p=ps),
            mgf=lambda t: float(np.exp(t * vals) @ ps),
            mgf_prime=lambda t: float((vals * np.exp(t * vals)) @ ps),
            expect=_atoms(vals, ps),
            support_max=float(vals.max()) if vals.size else 0.0,
        )

    @staticmethod
    def from_config(cfg: dict) -> "ScalarDist":
        """Build from the {"dist": ..., ...} tagged form used in experiment configs."""
        if not isinstance(cfg, dict) or "dist" not in cfg:
            raise ValueError(f"scalar distribution config must be a dict with a 'dist' key: {cfg!r}")
        kind = cfg["dist"]
        if not isinstance(kind, str) or kind not in CONFIG_PARAMETERS:
            raise ValueError(f"unknown scalar distribution kind {kind!r}")
        unknown = set(cfg) - {"dist", *CONFIG_PARAMETERS[kind]}
        if unknown:
            raise ValueError(f"scalar distribution {kind!r} has unknown parameter "
                             f"{sorted(unknown)[0]!r}; valid parameters are {CONFIG_PARAMETERS[kind]}")
        try:
            args = [cfg[name] for name in CONFIG_PARAMETERS[kind]]
        except KeyError as exc:
            raise ValueError(f"scalar distribution {kind!r} is missing parameter {exc}") from exc
        return getattr(ScalarDist, kind)(*args)


def _atoms(values, probs) -> Callable:
    """E[f(X)] as the finite sum over the atoms of X."""
    values, probs = np.asarray(values, dtype=float), np.asarray(probs, dtype=float)
    return lambda f: probs @ f(values)


@functools.cache
def _tanh_sinh() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tanh-sinh rule on (0, 1) as (z, u, 1 - u, weights): nodes
    u = expit(z), z = pi sinh(t), at t = j / 64 for |t| <= 4 (513 nodes, the
    last within 1e-37 of either end), weights normalized to sum to 1."""
    t = np.arange(-256, 257) / 64.0
    z = math.pi * np.sinh(t)
    u, v = special.expit(z), special.expit(-z)
    w = u * v * np.cosh(t)  # du/dt up to the constant pi / 64, removed below
    return z, u, v, w / w.sum()


def _quantile_rule(quantile: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    """E[f(X)] = int_0^1 f(F^-1(u)) du by the tanh-sinh rule, given the
    quantile as a function of (z, u, 1 - u) so that either tail keeps its
    precision.  Nodes are built on the first call, not when the law is."""
    @functools.cache
    def nodes() -> np.ndarray:
        z, u, v, _ = _tanh_sinh()
        return quantile(z, u, v)

    return lambda f: _tanh_sinh()[3] @ f(nodes())


def _kummer(a: float, c: float, t: float) -> float:
    """Kummer's M(a, c, t) for t <= 0 as e^t M(c - a, c, -t), a series of positive
    terms; below t = -700, where that form overflows, scipy's M(a, c, t) itself."""
    if t < -700.0:
        return float(special.hyp1f1(a, c, t))
    return math.exp(t) * float(special.hyp1f1(c - a, c, -t))


# config tag -> the ScalarDist constructor's parameters, in order
CONFIG_PARAMETERS = {"constant": ("value",), "exponential": ("mean",), "gamma": ("shape", "scale"),
                     "bernoulli": ("p",), "uniform": ("low", "high"), "beta": ("a", "b"),
                     "discrete": ("values", "probs")}

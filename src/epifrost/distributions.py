"""Small scalar distribution helper used by kernel builders and configs.

Kernel specifications need a handful of nonnegative scalar laws (contact
probabilities W, infectious lifetimes Q, group sojourn times I).  Each law
exposes sampling, draws from the law of the sum of n i.i.d. copies for
every entry n of a count array in one call (``sample_sum``: a Gamma,
binomial or multinomial draw per entry where the sum's law is closed; for
uniform and beta laws, counts.sum() draws added up per entry), exact first
and second moments, and its exact moment
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
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import special

__all__ = ["ScalarDist"]


@dataclass(frozen=True)
class ScalarDist:
    """A nonnegative scalar random variable with known moments.

    ``sample_sum(rng, counts)`` draws X_1 + ... + X_n for i.i.d. copies, one
    for each entry n of ``counts``, in one numpy call and in entry order (an
    array of the same shape; a zero count gives 0 and draws nothing).
    ``mgf(t)`` = E[exp(tX)] and ``mgf_prime(t)`` = E[X exp(tX)] are exact
    and accept any t <= 0.  ``expect(f)`` = E[f(X)] for an f that maps a 1-d
    array of values to a same-length array (or (n, ...) stack).  A constant
    law is a one-atom discrete law, and an exponential law is gamma(1, mean).
    """

    name: str
    mean: float
    var: float
    sample: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)
    sample_sum: Callable[[np.random.Generator, np.ndarray], np.ndarray] = field(repr=False)
    mgf: Callable[[float], float] = field(repr=False)
    mgf_prime: Callable[[float], float] = field(repr=False)
    expect: Callable[[Callable[[np.ndarray], np.ndarray]], float] = field(repr=False)
    support_max: float = np.inf

    def __post_init__(self):
        if self.is_constant:  # a degenerate law (bernoulli(0), one atom) draws nothing
            value = self.mean
            object.__setattr__(self, "sample", lambda rng, size: np.full(size, value))
            object.__setattr__(self, "sample_sum", lambda rng, n: n * value)

    @property
    def is_constant(self) -> bool:
        return self.var == 0.0

    @staticmethod
    def constant(value: float) -> "ScalarDist":
        v = float(value)
        if v < 0:
            raise ValueError(f"constant distribution needs value >= 0, got {v}")
        return replace(ScalarDist.discrete([v], [1.0]), name=f"constant({v})")

    @staticmethod
    def exponential(mean: float) -> "ScalarDist":
        m = float(mean)
        if m <= 0:
            raise ValueError(f"exponential distribution needs mean > 0, got {m}")
        return replace(ScalarDist.gamma(1.0, m), name=f"exponential(mean={m})",
                       # gamma's pow can be an ulp off these, which moves extinction q
                       mgf=lambda t: 1.0 / (1.0 - m * t), mgf_prime=lambda t: m / (1.0 - m * t) ** 2,
                       # -m log(1 - u) = m log(1 + e^z) for u = expit(z): no gammaincinv nodes
                       expect=_quantile_rule(lambda z, u, v: m * np.logaddexp(0.0, z)))

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
            sample_sum=lambda rng, n: rng.standard_gamma(n * k) * s,  # = rng.gamma(n * k, s)
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
            sample_sum=lambda rng, n: 1.0 * rng.binomial(n, pp),
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
            sample_sum=_added(lambda rng, size: rng.uniform(a, b, size)),  # no closed form
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
            sample_sum=_added(lambda rng, size: rng.beta(aa, bb, size)),  # no closed form
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
            sample_sum=lambda rng, n: (rng.multinomial(n, ps) * vals).sum(axis=-1),
            mgf=lambda t: float(np.exp(t * vals) @ ps),
            mgf_prime=lambda t: float((vals * np.exp(t * vals)) @ ps),
            expect=_atoms(vals, ps),
            support_max=float(vals.max()),
        )


def _added(sample: Callable[[np.random.Generator, int], np.ndarray]) -> Callable:
    """``sample_sum`` for a law whose sums have no closed form: counts.sum()
    draws in one call, each entry's run of them added up as ``ndarray.sum`` does."""
    def sample_sum(rng: np.random.Generator, counts) -> np.ndarray:
        counts = np.asarray(counts)
        runs = np.split(sample(rng, int(counts.sum())), np.cumsum(counts.ravel())[:-1])
        return np.array([run.sum() for run in runs]).reshape(counts.shape)
    return sample_sum


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

"""Small scalar distribution helper used by kernel builders and configs.

Kernel specifications need a handful of nonnegative scalar laws (contact
probabilities W, infectious lifetimes Q, group sojourn times I).  Each law
exposes sampling, draws from the law of the sum of n i.i.d. copies for
every entry n of a count array (``sample_sum``: one Gamma, binomial or
multinomial call where the sum's law is closed; for uniform and beta laws,
n draws per entry added up by ``run_sums``, as the sampled escape term adds
its draws), exact first and second moments, and its exact moment
generating function M(t) = E[exp(tX)] and derivative M'(t) = E[X exp(tX)]
at nonpositive arguments: the extinction solver needs M, the dynamic-graph
moments need both.  Beta laws (and uniform ones, a shifted and scaled
Beta(1, 1)) evaluate M through Kummer's confluent hypergeometric function.

``expect(f)`` = weights @ f(values) gives E[f(X)] for any other vectorized f
(the dynamic graph's generating function) from the law's ``rule``: its atoms
if it has finitely many, else one fixed tanh-sinh rule in probability space
(Takahasi and Mori, Publ. RIMS 9, 1974) mapped through its quantile.  The
weights are positive and sum to 1, so E[f(X)] is an exact expectation over a
discrete law close to X: convexity and monotonicity in f carry over.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = ["ScalarDist"]
_RUN = 1 << 16  # most rows one ``draw`` call of ``run_sums`` returns, besides its last entry's


@dataclass(frozen=True)
class ScalarDist:
    """A nonnegative scalar random variable with known moments.

    ``sample_sum(rng, counts)`` draws X_1 + ... + X_n for i.i.d. copies, one
    for each entry n of ``counts``, in entry order (an array of the same
    shape; a zero count gives 0 and draws nothing).
    ``mgf(t)`` = E[exp(tX)] and ``mgf_prime(t)`` = E[X exp(tX)] are exact
    and accept any t <= 0.  ``rule()`` gives (values, weights), built on its
    first call, and ``expect(f)`` = E[f(X)] = weights @ f(values) for an f that
    maps a 1-d array of values to a same-length array (or (n, ...) stack).  A
    constant law is a one-atom discrete law, an exponential law gamma(1, mean).
    """

    name: str
    mean: float
    var: float
    sample: Callable[[np.random.Generator, int], np.ndarray] = field(repr=False)
    sample_sum: Callable[[np.random.Generator, np.ndarray], np.ndarray] = field(repr=False)
    mgf: Callable[[float], float] = field(repr=False)
    mgf_prime: Callable[[float], float] = field(repr=False)
    rule: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    support_max: float = np.inf
    gamma_shape_scale: Optional[tuple[float, float]] = None  # (shape, scale) of a gamma law

    def __post_init__(self):
        if self.is_constant:  # a degenerate law (bernoulli(0), one atom) draws nothing
            value = self.mean
            object.__setattr__(self, "sample", lambda rng, size: np.full(size, value))
            object.__setattr__(self, "sample_sum", lambda rng, n: n * value)

    @property
    def is_constant(self) -> bool:
        return self.var == 0.0

    def expect(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        values, weights = self.rule()
        return weights @ f(values)

    @staticmethod
    def constant(value: float) -> "ScalarDist":
        v = float(value)
        if not 0 <= v < math.inf:  # each check refuses NaN as well
            raise ValueError(f"constant distribution needs value >= 0 and finite, got {v}")
        return _atoms(f"constant({v})", np.array([v]), np.array([1.0]))

    @staticmethod
    def exponential(mean: float) -> "ScalarDist":
        m = float(mean)
        if not 0 < m < math.inf:
            raise ValueError(f"exponential distribution needs mean > 0 and finite, got {m}")
        return _gamma(f"exponential(mean={m})", 1.0, m,
                      # gamma's pow can be an ulp off these, which moves extinction q
                      mgf=lambda t: 1.0 / (1.0 - m * t), mgf_prime=lambda t: m / (1.0 - m * t) ** 2,
                      # -m log(1 - u) = m log(1 + e^z) for u = expit(z): no gammaincinv nodes
                      quantile=lambda z, u, v: m * np.logaddexp(0.0, z))

    @staticmethod
    def gamma(shape: float, scale: float) -> "ScalarDist":
        k, s = float(shape), float(scale)
        if not (0 < k < math.inf and 0 < s < math.inf):
            raise ValueError(f"gamma distribution needs finite shape > 0 and scale > 0, "
                             f"got shape={k}, scale={s}")
        return _gamma(f"gamma(shape={k}, scale={s})", k, s,
                      mgf=lambda t: float((1.0 - s * t) ** (-k)),
                      mgf_prime=lambda t: float(k * s * (1.0 - s * t) ** (-k - 1.0)),
                      quantile=lambda z, u, v: s * np.where(
                          z < 0, _special().gammaincinv(k, u), _special().gammainccinv(k, v)))

    @staticmethod
    def bernoulli(p: float) -> "ScalarDist":
        pp = float(p)
        if not 0 <= pp <= 1:
            raise ValueError(f"bernoulli distribution needs p in [0,1], got {pp}")
        atoms = np.array([0.0, 1.0]), np.array([1.0 - pp, pp])
        return ScalarDist(
            name=f"bernoulli({pp})",
            mean=pp,
            var=pp * (1 - pp),
            sample=lambda rng, size: (rng.random(size) < pp).astype(float),
            sample_sum=lambda rng, n: 1.0 * rng.binomial(n, pp),
            mgf=lambda t: float(1 - pp + pp * np.exp(t)),
            mgf_prime=lambda t: float(pp * np.exp(t)),
            rule=lambda: atoms,
            support_max=1.0 if pp > 0 else 0.0,
        )

    @staticmethod
    def uniform(low: float, high: float) -> "ScalarDist":
        a, b = float(low), float(high)
        if not 0 <= a < b < math.inf:
            raise ValueError(f"uniform distribution needs 0 <= low < high < inf, got [{a}, {b}]")
        w = b - a  # X = a + w B with B ~ Beta(1, 1)
        return ScalarDist(
            name=f"uniform({a}, {b})",
            mean=(a + b) / 2,
            var=w ** 2 / 12,
            sample=lambda rng, size: rng.uniform(a, b, size),
            sample_sum=lambda rng, n: run_sums(lambda size: rng.uniform(a, b, size), n),
            mgf=lambda t: math.exp(t * a) * _kummer(1.0, 2.0, t * w),
            mgf_prime=lambda t: math.exp(t * a) * (a * _kummer(1.0, 2.0, t * w)
                                                   + w / 2 * _kummer(2.0, 3.0, t * w)),
            rule=_quantile_rule(lambda z, u, v: np.where(z < 0, a + w * u, b - w * v)),
            support_max=b,
        )

    @staticmethod
    def beta(a: float, b: float) -> "ScalarDist":
        # M(t) = M(a, a+b, t) and M'(t) = (a/(a+b)) M(a+1, a+b+1, t) (Kummer's M)
        aa, bb = float(a), float(b)
        if not (0 < aa < math.inf and 0 < bb < math.inf):
            raise ValueError(f"beta distribution needs finite a > 0 and b > 0, got a={aa}, b={bb}")
        mean = aa / (aa + bb)
        var = aa * bb / ((aa + bb) ** 2 * (aa + bb + 1))
        return ScalarDist(
            name=f"beta({aa}, {bb})",
            mean=mean,
            var=var,
            sample=lambda rng, size: rng.beta(aa, bb, size),
            sample_sum=lambda rng, n: run_sums(lambda size: rng.beta(aa, bb, size), n),
            mgf=lambda t: _kummer(aa, aa + bb, t),
            mgf_prime=lambda t: mean * _kummer(aa + 1.0, aa + bb + 1.0, t),
            rule=_quantile_rule(lambda z, u, v: np.where(
                z < 0, _special().betaincinv(aa, bb, u), 1.0 - _special().betaincinv(bb, aa, v))),
            support_max=1.0,
        )

    @staticmethod
    def discrete(values, probs) -> "ScalarDist":
        vals = np.asarray(values, dtype=float)
        ps = np.asarray(probs, dtype=float)
        if vals.ndim != 1 or vals.shape != ps.shape:
            raise ValueError("discrete distribution needs matching 1-d values and probs")
        if not (np.all((0 <= vals) & (vals < np.inf)) and np.all(ps >= 0)
                and abs(ps.sum() - 1.0) <= 1e-12):
            raise ValueError("discrete distribution needs finite values >= 0 and probs summing to 1")
        return _atoms(f"discrete({vals.tolist()})", vals, ps)


def _gamma(name: str, k: float, s: float, mgf: Callable, mgf_prime: Callable,
           quantile: Callable) -> ScalarDist:
    """The gamma(k, s) law under ``name``, with M, M' and the quantile given."""
    return ScalarDist(
        name=name,
        mean=k * s,
        var=k * s * s,
        sample=lambda rng, size: rng.gamma(k, s, size),
        sample_sum=lambda rng, n: rng.standard_gamma(n * k) * s,  # = rng.gamma(n * k, s)
        mgf=mgf,
        mgf_prime=mgf_prime,
        rule=_quantile_rule(quantile),
        gamma_shape_scale=(k, s),
    )


def _atoms(name: str, vals: np.ndarray, ps: np.ndarray) -> ScalarDist:
    """The law of finitely many atoms, checked values ``vals`` with probabilities ``ps``."""
    mean = float(vals @ ps)
    return ScalarDist(
        name=name,
        mean=mean,
        var=float((vals - mean) ** 2 @ ps),
        sample=lambda rng, size: rng.choice(vals, size=size, p=ps),
        sample_sum=lambda rng, n: (rng.multinomial(n, ps) * vals).sum(axis=-1),
        mgf=lambda t: float(np.exp(t * vals) @ ps),
        mgf_prime=lambda t: float((vals * np.exp(t * vals)) @ ps),
        rule=lambda: (vals, ps),
        support_max=float(vals.max()),
    )


def run_sums(draw: Callable[[int], np.ndarray], counts, shape: tuple = ()) -> np.ndarray:
    """counts.shape + shape array: entry e is ``np.add.reduceat``'s sum of the next
    counts[e] rows of ``draw(size)`` (each of ``shape``), entries in order, and 0 for a
    count of 0.  Entries whose rows begin in one block of ``_RUN`` share one call, so
    memory is bounded; the calls follow in turn, so the sums are those of one call."""
    sizes = np.asarray(counts).ravel()
    out = np.zeros(sizes.shape + shape)
    starts = np.cumsum(sizes) - sizes  # each entry's first row
    entries = np.flatnonzero(sizes)
    calls = np.flatnonzero(np.diff(starts[entries] // _RUN, prepend=-1))  # each call's first entry
    for run in np.split(entries, calls)[1:]:  # the piece before calls[0] = 0 is empty
        draws = draw(int(starts[run[-1]] + sizes[run[-1]] - starts[run[0]]))
        out[run] = np.add.reduceat(draws, starts[run] - starts[run[0]], axis=0)
    return out.reshape(np.shape(counts) + shape)


@functools.cache
def _special():
    """``scipy.special``, imported on its first use: it would be most of what
    ``import epifrost`` costs, and only the quantiles, Kummer's M and the
    Mardia p-values need it."""
    from scipy import special
    return special


@functools.cache
def _tanh_sinh() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tanh-sinh rule on (0, 1) as (z, u, 1 - u, weights): nodes
    u = expit(z), z = pi sinh(t), at t = j / 64 for |t| <= 4 (513 nodes, the
    last within 1e-37 of either end), weights normalized to sum to 1."""
    t = np.arange(-256, 257) / 64.0
    z = math.pi * np.sinh(t)
    u, v = 1.0 / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z))
    w = u * v * np.cosh(t)  # du/dt up to the constant pi / 64, removed below
    return z, u, v, w / w.sum()


def _quantile_rule(quantile: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]) -> Callable:
    """The rule of E[f(X)] = int_0^1 f(F^-1(u)) du: the tanh-sinh nodes through
    the quantile, a function of (z, u, 1 - u) so that either tail keeps its
    precision, and their weights.  Nodes are built on the first call."""
    memo = []

    def rule() -> tuple[np.ndarray, np.ndarray]:
        if not memo:
            z, u, v, w = _tanh_sinh()
            memo.append((quantile(z, u, v), w))
        return memo[0]

    return rule


def _kummer(a: float, c: float, t: float) -> float:
    """Kummer's M(a, c, t) for t <= 0 as e^t M(c - a, c, -t), a series of positive
    terms; below t = -700, where that form overflows, scipy's M(a, c, t) itself."""
    if t < -700.0:
        return float(_special().hyp1f1(a, c, t))
    return math.exp(t) * float(_special().hyp1f1(c - a, c, -t))

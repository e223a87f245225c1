"""Small scalar distribution helper used by kernel builders and configs.

Kernel specifications need a handful of nonnegative scalar laws (contact
probabilities W, infectious lifetimes Q, group sojourn times I).  Each law
exposes sampling, draws from the law of the sum of n i.i.d. copies for
every entry n of a count array (``sample_sum``: one Gamma, binomial or
multinomial call where the sum's law is closed; for uniform and beta laws,
n draws per entry added up by ``run_sums``, as the sampled escape term adds
its draws), exact first and second moments, and its moment generating
function M(t) = E[exp(tX)] and derivative M'(t) = E[X exp(tX)] at
nonpositive arguments: the extinction solver needs M, the dynamic-graph
moments need both.  Gamma and exponential laws have M in closed form; every
other law takes M and M' from its rule, below, as weights @ exp(t values).

``expect(f)`` = weights @ f(values) gives E[f(X)] for any vectorized f (the
dynamic graph's generating function) from the law's ``rule``: its atoms if it
has finitely many, else one double-exponential rule weighted by the density
(Takahasi and Mori, Publ. RIMS 9, 1974).  A gamma law is X = scale e^Z and a
beta law X = expit(Z) (a uniform law a shifted and scaled Beta(1, 1)), with
Z = pi sinh(s) on a grid of s (``_rule``: longer for a slow tail, narrowed
about the mode for a sharp peak); the weights are Z's density there times
dZ/ds.  They are positive and sum to 1, so E[f(X)] is an exact expectation
over a discrete law close to X: convexity and monotonicity in f carry over.
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
    ``mgf(t)`` = E[exp(tX)] and ``mgf_prime(t)`` = E[X exp(tX)] are exact to
    rounding and accept any t <= 0.  ``rule()`` gives (values, weights), built
    on its first call, and ``expect(f)`` = E[f(X)] = weights @ f(values) for an
    f that maps a 1-d array of values to a same-length array (or (n, ...)
    stack).  A constant law is a one-atom discrete law, an exponential law
    gamma(1, mean).
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
                      mgf=lambda t: 1.0 / (1.0 - m * t), mgf_prime=lambda t: m / (1.0 - m * t) ** 2)

    @staticmethod
    def gamma(shape: float, scale: float) -> "ScalarDist":
        k, s = float(shape), float(scale)
        if not (0 < k < math.inf and 0 < s < math.inf):
            raise ValueError(f"gamma distribution needs finite shape > 0 and scale > 0, "
                             f"got shape={k}, scale={s}")
        return _gamma(f"gamma(shape={k}, scale={s})", k, s,
                      mgf=lambda t: float((1.0 - s * t) ** (-k)),
                      mgf_prime=lambda t: float(k * s * (1.0 - s * t) ** (-k - 1.0)))

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
            **_by_rule(_beta_rule(1.0, 1.0, lambda x: a + w * x)),
            support_max=b,
        )

    @staticmethod
    def beta(a: float, b: float) -> "ScalarDist":
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
            **_by_rule(_beta_rule(aa, bb, lambda x: x)),
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


def _gamma(name: str, k: float, s: float, mgf: Callable, mgf_prime: Callable) -> ScalarDist:
    """The gamma(k, s) law under ``name``, with M and M' given."""
    return ScalarDist(
        name=name,
        mean=k * s,
        var=k * s * s,
        sample=lambda rng, size: rng.gamma(k, s, size),
        sample_sum=lambda rng, n: rng.standard_gamma(n * k) * s,  # = rng.gamma(n * k, s)
        mgf=mgf,
        mgf_prime=mgf_prime,
        # X = s e^Z: Z's density is e^(kz - e^z) up to a constant, peaked at log k
        rule=_rule(lambda z: s * np.exp(z), lambda z: k * z - np.exp(z), math.log(k), (k, math.inf)),
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
        **_by_rule(lambda: (vals, ps)),
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
def _grid(first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """pi sinh(s) and log cosh(s), the log of d(pi sinh s)/ds up to the constant pi,
    at s = j / 64 for j = first..last."""
    s = np.arange(first, last + 1) / 64.0
    return math.pi * np.sinh(s), np.log(np.cosh(s))


def _end(rate: float) -> int:
    """The last grid index on a side where Z's density falls off as exp(-rate |z|)
    (rate inf: faster): 320, s = 5, or further out until rate |z| >= 37, so that
    the tail beyond holds below about 1e-16 of the mass (capped at s = 708, for a
    rate so small that 1 / rate overflows)."""
    return max(320, math.ceil(64.0 * math.asinh(min(37.0 / (math.pi * rate), 1e307))))


def _rule(nodes: Callable[[np.ndarray], np.ndarray], log_density: Callable[[np.ndarray], np.ndarray],
          mode: float, rates: tuple[float, float]) -> Callable:
    """The double-exponential rule of E[f(X)] for X = nodes(Z), Z of log density
    ``log_density`` up to a constant, peaked at ``mode`` and falling off as
    exp(rates[0] z) and exp(-rates[1] z) in its tails.

    The points are z = pi sinh(s) at s = j / 64 for |s| <= 5, each end extended
    as ``_end`` says.  A density narrower at its peak than the grid resolves,
    6 sd < 1 with sd = (1/rates[0] + 1/rates[1])^(1/2), gets the points
    mode + 6 sd pi sinh(s) instead.  Each weighs the density times dz/ds there,
    normalized to sum to 1, and points whose weight underflows are left out.
    The rule is built on its first call."""
    width = min(1.0, 6.0 * math.sqrt(1.0 / rates[0] + 1.0 / rates[1]))
    center = mode if width < 1.0 else 0.0
    memo = []

    def rule() -> tuple[np.ndarray, np.ndarray]:
        if not memo:
            grid, log_cosh = _grid(-_end(rates[0]), _end(rates[1]))
            z = center + width * grid
            log_w = log_density(z) + log_cosh
            w = np.exp(log_w - log_w.max())
            keep = w > 0.0
            memo.append((nodes(z[keep]), w[keep] / w[keep].sum()))
        return memo[0]

    return rule


def _beta_rule(a: float, b: float, scaled: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """The rule of scaled(X) for X ~ Beta(a, b), X = expit(Z): Z's density is
    X^a (1 - X)^b, with log X = -log(1 + e^-z) and log(1 - X) = -log(1 + e^z)."""
    return _rule(lambda z: scaled(np.exp(-np.logaddexp(0.0, -z))),
                 lambda z: -a * np.logaddexp(0.0, -z) - b * np.logaddexp(0.0, z),
                 math.log(a) - math.log(b), (a, b))


def _by_rule(rule: Callable[[], tuple[np.ndarray, np.ndarray]]) -> dict:
    """``rule`` with the M and M' it gives, weights @ exp(tX) and weights @ (X exp(tX)),
    as ``ScalarDist`` fields: each call reads the rule's arrays once."""
    def mgf(t: float) -> float:
        values, weights = rule()
        return float(np.exp(t * values) @ weights)

    def mgf_prime(t: float) -> float:
        values, weights = rule()
        return float((values * np.exp(t * values)) @ weights)

    return {"mgf": mgf, "mgf_prime": mgf_prime, "rule": rule}

"""The four sampling distributions used by the simulation harness.

Each distribution carries exact pdf/cdf/quantile forms, a seeded sampler,
and closed-form moment machinery:

    power_moment(t)  E[X**t] for real t (inf when divergent)
    mgf(t)           E[exp(tX)] (inf when divergent, None when no closed form)
    log_moments()    mean/variance/skewness/excess kurtosis of ln X

Gamma is parameterized shape-rate.  Pareto defaults to scale 1.  Divergent
moments are flagged as math.inf, not raised; callers decide whether infinity
is an error in their context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import (
    digamma,
    gammainc,
    gammainccinv,
    gammaincinv,
    gammaln,
    ndtr,
    ndtri,
    polygamma,
)

from .errors import DomainError, InvalidParameterError
from .generators import Interval

__all__ = [
    "LogNormal",
    "Gamma",
    "Uniform",
    "Pareto",
    "DistributionModel",
    "parse_distribution",
]


def _on_support(x, inside, f):
    """f on the values of x where inside holds, 0 elsewhere; a float for a
    scalar x."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(arr)
    ok = inside(arr)
    out[ok] = f(arr[ok])
    return float(out[0]) if np.ndim(x) == 0 else out


def _check_u(u) -> np.ndarray:
    arr = np.asarray(u, dtype=float)
    # the complement also catches NaN, which compares False everywhere
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise InvalidParameterError("quantile argument must lie strictly in (0, 1)")
    return arr


@dataclass(frozen=True)
class LogNormal:
    """ln X ~ Normal(mu, sigma2); sigma2 is the *variance* of ln X."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and 0 < self.sigma2 < math.inf):
            raise InvalidParameterError(f"lognormal needs finite mu, sigma2 > 0, got {self}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def support(self) -> Interval:
        return Interval(0.0, math.inf)

    @property
    def spec(self) -> str:
        return f"lognormal:{self.mu:g}:{self.sigma2:g}"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return np.exp(self.mu + self.sigma * rng.standard_normal(n))

    def pdf(self, x):
        def density(v):
            z = (np.log(v) - self.mu) / self.sigma
            return np.exp(-0.5 * z * z) / (v * self.sigma * math.sqrt(2 * math.pi))
        return _on_support(x, lambda v: v > 0, density)

    def cdf(self, x):
        return _on_support(x, lambda v: v > 0, lambda v: ndtr((np.log(v) - self.mu) / self.sigma))

    def quantile(self, u):
        arr = _check_u(u)
        out = np.exp(self.mu + self.sigma * ndtri(arr))
        return out if out.ndim else float(out)

    def isf(self, u):
        """Upper-tail quantile: isf(u) = quantile(1-u), computed without the
        1-u cancellation so tiny u stay resolvable."""
        arr = _check_u(u)
        out = np.exp(self.mu - self.sigma * ndtri(arr))
        return out if out.ndim else float(out)

    def power_moment(self, t: float) -> float:
        return math.exp(t * self.mu + 0.5 * t * t * self.sigma2)

    def mgf(self, t: float):
        if t > 0:
            return math.inf  # heavier than every exponential tail
        if t == 0:
            return 1.0
        return None  # finite for t < 0, but no closed form

    def log_moments(self):
        return (self.mu, self.sigma2, 0.0, 0.0)


@dataclass(frozen=True)
class Gamma:
    """Shape-rate parameterization: density ~ x**(shape-1) exp(-rate*x)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise InvalidParameterError(
                f"gamma needs finite shape, rate > 0, got ({self.shape}, {self.rate})")

    @property
    def support(self) -> Interval:
        return Interval(0.0, math.inf)

    @property
    def spec(self) -> str:
        return f"gamma:{self.shape:g}:{self.rate:g}"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    def pdf(self, x):
        return _on_support(x, lambda v: v > 0, lambda v: np.exp(
            self.shape * math.log(self.rate) + (self.shape - 1) * np.log(v)
            - self.rate * v - gammaln(self.shape)))

    def cdf(self, x):
        return _on_support(x, lambda v: v > 0, lambda v: gammainc(self.shape, self.rate * v))

    def quantile(self, u):
        arr = _check_u(u)
        out = gammaincinv(self.shape, arr) / self.rate
        return out if out.ndim else float(out)

    def isf(self, u):
        arr = _check_u(u)
        out = gammainccinv(self.shape, arr) / self.rate
        return out if out.ndim else float(out)

    def power_moment(self, t: float) -> float:
        if self.shape + t <= 0:
            return math.inf  # not integrable at the origin
        return math.exp(gammaln(self.shape + t) - gammaln(self.shape)
                        - t * math.log(self.rate))

    def mgf(self, t: float):
        if t >= self.rate:
            return math.inf
        return (1.0 - t / self.rate) ** (-self.shape)

    def log_moments(self):
        v = float(polygamma(1, self.shape))
        return (
            float(digamma(self.shape)) - math.log(self.rate),
            v,
            float(polygamma(2, self.shape)) / v ** 1.5,
            float(polygamma(3, self.shape)) / (v * v),
        )


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise InvalidParameterError(f"uniform needs finite lo < hi, got ({self.lo}, {self.hi})")

    @property
    def support(self) -> Interval:
        return Interval(self.lo, self.hi)

    @property
    def spec(self) -> str:
        return f"uniform:{self.lo:g}:{self.hi:g}"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random(n)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        arr = _check_u(u)
        out = self.lo + (self.hi - self.lo) * arr
        return out if out.ndim else float(out)

    def isf(self, u):
        arr = _check_u(u)
        out = self.hi - (self.hi - self.lo) * arr
        return out if out.ndim else float(out)

    def power_moment(self, t: float) -> float:
        if self.lo <= 0:
            if t >= 0 and float(t).is_integer():
                pass  # polynomial moments are fine across/at zero
            elif self.lo <= 0 <= self.hi and t <= -1:
                return math.inf
            else:
                raise DomainError(
                    f"E[X**{t}] undefined for uniform support [{self.lo}, {self.hi}]")
        if t == -1:
            return math.log(self.hi / self.lo) / (self.hi - self.lo)
        return ((self.hi ** (t + 1) - self.lo ** (t + 1))
                / ((t + 1) * (self.hi - self.lo)))

    def mgf(self, t: float):
        if t == 0:
            return 1.0
        return (math.exp(t * self.hi) - math.exp(t * self.lo)) / (t * (self.hi - self.lo))

    def log_moments(self):
        if self.lo <= 0:
            raise DomainError("ln X needs strictly positive support")
        raw = [self._log_raw(k) for k in range(1, 5)]
        m = raw[0]
        c2 = raw[1] - m * m
        c3 = raw[2] - 3 * m * raw[1] + 2 * m ** 3
        c4 = raw[3] - 4 * m * raw[2] + 6 * m * m * raw[1] - 3 * m ** 4
        return (m, c2, c3 / c2 ** 1.5, c4 / (c2 * c2) - 3.0)

    def _log_raw(self, k: int) -> float:
        # E[(ln X)^k] via the antiderivative of (ln x)^k:
        #   x * sum_{i=0..k} (-1)^(k-i) (k!/i!) (ln x)^i
        def anti(x: float) -> float:
            return x * math.fsum(
                (-1) ** (k - i) * (math.factorial(k) / math.factorial(i)) * math.log(x) ** i
                for i in range(k + 1))
        return (anti(self.hi) - anti(self.lo)) / (self.hi - self.lo)


@dataclass(frozen=True)
class Pareto:
    """Standard Pareto: cdf 1 - (scale/x)**alpha on [scale, inf)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.scale < math.inf):
            raise InvalidParameterError(
                f"pareto needs finite alpha, scale > 0, got ({self.alpha}, {self.scale})")

    @property
    def support(self) -> Interval:
        return Interval(self.scale, math.inf)

    @property
    def spec(self) -> str:
        return f"pareto:{self.alpha:g}:{self.scale:g}"

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # inverse CDF with U in (0, 1]: rng.random() is [0, 1), so 1-U never
        # hits the singular endpoint
        return self.scale * (1.0 - rng.random(n)) ** (-1.0 / self.alpha)

    def pdf(self, x):
        return _on_support(x, lambda v: v >= self.scale,
                           lambda v: self.alpha * self.scale ** self.alpha / v ** (self.alpha + 1))

    def cdf(self, x):
        return _on_support(x, lambda v: v >= self.scale,
                           lambda v: 1.0 - (self.scale / v) ** self.alpha)

    def quantile(self, u):
        arr = _check_u(u)
        out = self.scale * (1.0 - arr) ** (-1.0 / self.alpha)
        return out if out.ndim else float(out)

    def isf(self, u):
        arr = _check_u(u)
        out = self.scale * arr ** (-1.0 / self.alpha)
        return out if out.ndim else float(out)

    def power_moment(self, t: float) -> float:
        if t >= self.alpha:
            return math.inf  # tail of order alpha: E[X**t] diverges at t >= alpha
        return self.alpha * self.scale ** t / (self.alpha - t)

    def mgf(self, t: float):
        if t > 0:
            return math.inf  # polynomial tail beats every exp(tx)
        if t == 0:
            return 1.0
        return None

    def log_moments(self):
        # ln X = ln(scale) + Exponential(alpha)
        return (math.log(self.scale) + 1.0 / self.alpha, self.alpha ** -2, 2.0, 6.0)


DistributionModel = LogNormal | Gamma | Uniform | Pareto


def parse_distribution(spec: str) -> DistributionModel:
    """Parse "lognormal:2:1", "gamma:100:1", "uniform:1:2", "pareto:10"
    (optional scale: "pareto:10:1.5")."""
    parts = spec.strip().split(":")
    kind, args = parts[0], parts[1:]
    try:
        vals = [float(a) for a in args]
    except ValueError:
        raise InvalidParameterError(f"bad distribution parameters in {spec!r}") from None
    if kind == "lognormal":
        if len(vals) != 2:
            raise InvalidParameterError("lognormal spec is lognormal:<mu>:<sigma2>")
        return LogNormal(*vals)
    if kind == "gamma":
        if len(vals) != 2:
            raise InvalidParameterError("gamma spec is gamma:<shape>:<rate>")
        return Gamma(*vals)
    if kind == "uniform":
        if len(vals) != 2:
            raise InvalidParameterError("uniform spec is uniform:<lo>:<hi>")
        return Uniform(*vals)
    if kind == "pareto":
        if len(vals) not in (1, 2):
            raise InvalidParameterError("pareto spec is pareto:<alpha>[:<scale>]")
        return Pareto(*vals)
    raise InvalidParameterError(f"unknown distribution kind {kind!r}")

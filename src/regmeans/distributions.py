"""The four sampling distributions used by the simulation harness.

Each distribution carries exact pdf/cdf/quantile forms, a seeded sampler
sample(n, rng, *, out=None), and closed-form moment machinery:

    power_moment(t)  E[X**t] for real t (inf when divergent)
    mgf(t)           E[exp(tX)] (inf when divergent, None when no closed form)
    log_moments()    mean/variance/skewness/excess kurtosis of ln X

Gamma is parameterized shape-rate.  Pareto defaults to scale 1.  A
parameter that is not a real number, or a sample size n that is not an
integer >= 1, is InvalidParameterError naming it.  Divergent
moments are flagged as math.inf, not raised; callers decide whether infinity
is an error in their context.  A finite moment beyond the float range raises
NumericError, so inf keeps meaning divergent.  The moments need no
scipy: Gamma's take math.lgamma, exact products at integer orders and the
digamma series of _polygamma.  Only the cdf, quantile and isf methods of
LogNormal and Gamma import scipy.special, on first use: after regmeans it
takes 0.20-0.27 s and raises the resident set from about 30 to 53 MB (3
runs on a 2-vCPU host).  Quadrature and its tail screen call them;
sampling, means and the Monte Carlo harness do not.

pdf, cdf, quantile and isf take a number (giving a float) or an array; the
quadrature in asymptotics calls quantile and isf on arrays of nodes.

sample draws into out where given (the Monte Carlo harness passes each
worker's kept buffer), else into a new array, and transforms the draws in
place, with the bits of the plain formulas and no temporary array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, InvalidParameterError, NumericError
from .generators import Interval, _require_real, require_count

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


def _standardize(mean: float, central) -> tuple:
    """(mean, variance, skewness, excess kurtosis) of Y, cut to 1 +
    len(central) entries, from its mean and its central moments of orders
    2, 3, 4 (none, the first, or all three).  A variance that rounds below
    zero is zero, and a zero variance gives NaN skewness and kurtosis.  The
    central moments are divided by the variance one factor at a time:
    var**1.5 and var**2 underflow where var is a normal float."""
    if not central:
        return (mean,)
    var = max(central[0], 0.0)
    if len(central) == 1:
        return mean, var
    if var == 0.0:
        return mean, var, math.nan, math.nan
    c3, c4 = central[1:]
    return mean, var, c3 / var / math.sqrt(var), c4 / var / var - 3.0


def moments_from_raw(raws) -> tuple:
    """_standardize from the raw moments E[Y**k], k = 1, ..., len(raws)
    (1, 2 or 4)."""
    r1, central = raws[0], []
    if len(raws) > 1:
        central.append(raws[1] - r1 * r1)
    if len(raws) == 4:
        r2, r3, r4 = raws[1:]
        central += [r3 - 3.0 * r1 * r2 + 2.0 * r1 ** 3,
                    r4 - 4.0 * r1 * r3 + 6.0 * r1 * r1 * r2 - 3.0 * r1 ** 4]
    return _standardize(r1, central)


def _overflow(what: str, spec: str) -> NumericError:
    """A finite moment beyond the float range: NumericError, not inf, which
    callers would take for a divergent moment."""
    return NumericError(f"{what} overflows a float for {spec!r}")


def _normal(v: float, what: str, spec: str) -> float:
    """v, a positive closed-form moment, unless it fell below the smallest
    normal float: a 0 or a subnormal has lost its digits, so NumericError."""
    if v < sys.float_info.min:
        raise NumericError(f"{what} underflows the normal float range for {spec!r}")
    return v


def _draw_buffer(n, out) -> np.ndarray:
    """The array a sampler fills with n draws: out, which must be a
    writable, aligned, C-contiguous float64 array of shape (n,), else
    InvalidParameterError; a new array when out is None."""
    n = require_count(n, "n", 1)
    if out is None:
        return np.empty(n)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (n,)
            and out.flags.carray):
        raise InvalidParameterError(
            f"out must be a writable, aligned, contiguous float64 array of shape ({n},), "
            f"got {out!r:.80}")
    return out


def _at_u(u, f):
    """f at the values of u, which must lie strictly in (0, 1); a float for
    a scalar u.  A quantile beyond the float range (a power that
    overflows) is inf."""
    arr = np.asarray(u, dtype=float)
    # NaN compares False everywhere, so it fails both checks
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise InvalidParameterError("quantile argument must lie strictly in (0, 1)")
    with np.errstate(over="ignore"):
        out = f(arr)
    return out if out.ndim else float(out)


# Integer orders of Gamma.power_moment up to this size are exact products.
_EXACT_ORDERS = 1024

# B_2k, k = 1..10, for the asymptotic series of the polygamma functions
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
              43867 / 798, -174611 / 330)


def _polygamma(n: int, x: float) -> float:
    """psi^(n)(x), the n-th derivative of digamma, for n in 0..3 and x > 0.
    The recurrence psi^(n)(x) = psi^(n)(x + 1) - (-1)^n n! / x^(n+1) takes
    x up to y >= 12, where ten terms of the asymptotic series (Abramowitz
    and Stegun 6.3.18 and 6.4.11) reach a double; every term is summed by
    math.fsum, so a value near digamma's root, about 1.4616, keeps its
    absolute accuracy.  Raises OverflowError where x**-(n+1) does."""
    sign, fact = (-1.0) ** (n + 1), math.factorial(n)
    m = max(0, math.ceil(12.0 - x))
    terms = [sign * fact * (x + i) ** -(n + 1) for i in range(m)]
    y = x + m
    if n == 0:
        terms += [math.log(y), -0.5 / y]
        terms += [-b / (2 * k) * y ** (-2 * k) for k, b in enumerate(_BERNOULLI, 1)]
    else:
        # (-1)^(n-1) [(n-1)!/y^n + n!/(2 y^(n+1)) + sum B_2k (2k+n-1)!/((2k)! y^(2k+n))]
        terms += [sign * math.factorial(n - 1) * y ** -n, sign * 0.5 * fact * y ** -(n + 1)]
        terms += [sign * b * math.factorial(2 * k + n - 1) / math.factorial(2 * k)
                  * y ** -(2 * k + n) for k, b in enumerate(_BERNOULLI, 1)]
    return math.fsum(terms)


@dataclass(frozen=True)
class LogNormal:
    """ln X ~ Normal(mu, sigma2); sigma2 is the *variance* of ln X."""

    mu: float
    sigma2: float

    def __post_init__(self):
        _require_real(self.mu, "mu")
        _require_real(self.sigma2, "sigma2")
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

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        x = rng.standard_normal(out=_draw_buffer(n, out))
        x *= self.sigma
        x += self.mu
        return np.exp(x, out=x)

    def pdf(self, x):
        def density(v):
            z = (np.log(v) - self.mu) / self.sigma
            return np.exp(-0.5 * z * z) / (v * self.sigma * math.sqrt(2 * math.pi))
        return _on_support(x, lambda v: v > 0, density)

    def cdf(self, x):
        from scipy.special import ndtr

        return _on_support(x, lambda v: v > 0, lambda v: ndtr((np.log(v) - self.mu) / self.sigma))

    def quantile(self, u):
        from scipy.special import ndtri

        return _at_u(u, lambda v: np.exp(self.mu + self.sigma * ndtri(v)))

    def isf(self, u):
        """Upper-tail quantile: isf(u) = quantile(1-u), computed without the
        1-u cancellation so tiny u stay resolvable."""
        from scipy.special import ndtri

        return _at_u(u, lambda v: np.exp(self.mu - self.sigma * ndtri(v)))

    def power_moment(self, t: float) -> float:
        try:
            return _normal(math.exp(t * self.mu + 0.5 * t * t * self.sigma2),
                           f"E[X**{t:g}]", self.spec)
        except OverflowError:
            raise _overflow(f"E[X**{t:g}]", self.spec) from None

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
        _require_real(self.shape, "shape")
        _require_real(self.rate, "rate")
        if not (0 < self.shape < math.inf and 0 < self.rate < math.inf):
            raise InvalidParameterError(
                f"gamma needs finite shape, rate > 0, got ({self.shape}, {self.rate})")

    @property
    def support(self) -> Interval:
        return Interval(0.0, math.inf)

    @property
    def spec(self) -> str:
        return f"gamma:{self.shape:g}:{self.rate:g}"

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        # rng.gamma(k, s) is s * standard_gamma(k), bit for bit
        x = rng.standard_gamma(self.shape, out=_draw_buffer(n, out))
        x *= 1.0 / self.rate
        return x

    @cached_property
    def _log_norm(self) -> float:
        try:
            return self.shape * math.log(self.rate) - math.lgamma(self.shape)
        except OverflowError:  # lgamma beyond the float range, a shape above 1e305
            raise _overflow("lgamma(shape)", self.spec) from None

    def pdf(self, x):
        c, a, r = self._log_norm, self.shape - 1.0, self.rate
        with np.errstate(over="ignore"):  # x**(shape - 1) beyond the float range is inf
            return _on_support(x, lambda v: v > 0, lambda v: np.exp(c + a * np.log(v) - r * v))

    def cdf(self, x):
        from scipy.special import gammainc

        return _on_support(x, lambda v: v > 0, lambda v: gammainc(self.shape, self.rate * v))

    def quantile(self, u):
        from scipy.special import gammaincinv

        return _at_u(u, lambda v: gammaincinv(self.shape, v) / self.rate)

    def isf(self, u):
        from scipy.special import gammainccinv

        return _at_u(u, lambda v: gammainccinv(self.shape, v) / self.rate)

    def power_moment(self, t: float) -> float:
        """Gamma(shape + t) / (Gamma(shape) rate**t).  At an integer t up to
        _EXACT_ORDERS in size it is the product of the factors (shape + i) /
        rate, or rate / (shape - 1 - i) at t < 0, one rounding each; the
        lgamma difference of other orders cancels, and at shape 1000 it kept
        only 9 digits of the variance."""
        if self.shape + t <= 0:
            return math.inf  # not integrable at the origin
        what = f"E[X**{t:g}]"
        try:
            if float(t).is_integer() and abs(t) <= _EXACT_ORDERS:
                m = 1.0
                for i in range(int(abs(t))):
                    m *= ((self.shape + i) / self.rate if t > 0
                          else self.rate / (self.shape - 1.0 - i))
            else:
                m = math.exp(math.lgamma(self.shape + t) - math.lgamma(self.shape)
                             - t * math.log(self.rate))
        except OverflowError:
            raise _overflow(what, self.spec) from None
        if math.isinf(m):
            raise _overflow(what, self.spec)
        return _normal(m, what, self.spec)

    def mgf(self, t: float):
        if t >= self.rate:
            return math.inf
        return (1.0 - t / self.rate) ** (-self.shape)

    def log_moments(self):
        # a shape near the float's smallest sends digamma to -inf and the
        # polygammas to inf: NumericError, not a moment of inf or NaN
        try:
            v = _polygamma(1, self.shape)
            out = (
                _polygamma(0, self.shape) - math.log(self.rate),
                v,
                _polygamma(2, self.shape) / v / math.sqrt(v),
                _polygamma(3, self.shape) / v / v,
            )
        except OverflowError:
            raise _overflow("a moment of ln X", self.spec) from None
        if not all(math.isfinite(m) for m in out):
            raise _overflow("a moment of ln X", self.spec)
        return out


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        _require_real(self.lo, "lo")
        _require_real(self.hi, "hi")
        if not -math.inf < self.lo < self.hi < math.inf:
            raise InvalidParameterError(f"uniform needs finite lo < hi, got ({self.lo}, {self.hi})")

    @property
    def support(self) -> Interval:
        return Interval(self.lo, self.hi)

    @property
    def spec(self) -> str:
        return f"uniform:{self.lo:g}:{self.hi:g}"

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        x = rng.random(out=_draw_buffer(n, out))
        x *= self.hi - self.lo
        x += self.lo
        return x

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.lo) & (x <= self.hi), 1.0 / (self.hi - self.lo), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((x - self.lo) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, u):
        return _at_u(u, lambda v: self.lo + (self.hi - self.lo) * v)

    def isf(self, u):
        return _at_u(u, lambda v: self.hi - (self.hi - self.lo) * v)

    def power_moment(self, t: float) -> float:
        if self.lo <= 0:
            if t >= 0 and float(t).is_integer():
                pass  # polynomial moments are fine across/at zero
            elif self.lo <= 0 <= self.hi and t <= -1:
                return math.inf
            else:
                raise DomainError(
                    f"E[X**{t}] undefined for uniform support [{self.lo}, {self.hi}]")
        what = f"E[X**{t:g}]"
        if t == -1:
            return _normal(math.log(self.hi / self.lo) / (self.hi - self.lo), what, self.spec)
        # (hi**s - lo**s) / (s (hi - lo)) with s = t + 1, led by the end u
        # whose power dominates: u**t times f, the mean of (x/u)**t over the
        # support, at most 1 in size
        s = t + 1.0
        u, v = ((self.hi, self.lo) if (s > 0.0) == (abs(self.hi) >= abs(self.lo))
                else (self.lo, self.hi))
        w = v / u
        # on a narrow support 1 - w**s cancels: log1p keeps it
        lead = -math.expm1(s * math.log1p((v - u) / u)) if w > 0.5 else 1.0 - w ** s
        f = u / (u - v) * lead / s
        try:
            try:
                m = u ** t * f
            except OverflowError:
                # u**t alone is beyond the float range; the moment may not be
                half = abs(u) ** (0.5 * t)
                m = (-1.0 if u < 0.0 else 1.0) ** t * (half * f * half)
        except OverflowError:
            raise _overflow(what, self.spec) from None
        if math.isinf(m):
            raise _overflow(what, self.spec)
        return _normal(m, what, self.spec) if self.lo > 0 else m

    def mgf(self, t: float):
        """E[exp(tX)] = exp(a) (1 - exp(-s)) / s, a the larger of t lo and
        t hi and s = |t| (hi - lo), summed in logs: expm1 keeps a narrow
        support accurate, and exp(a) alone may overflow where the mgf does
        not.  An mgf beyond the float range is NumericError, not inf, which
        callers would take for a divergent moment; so is one below the
        smallest normal float, a 0 or a subnormal that has lost digits."""
        a, s = max(t * self.lo, t * self.hi), abs(t) * (self.hi - self.lo)
        try:
            # s = 0: t = 0, or |t| (hi - lo) below the smallest float;
            # log(inf) = inf: an overflowing width gives exp(-inf) = 0
            v = math.exp(a if s == 0.0 else a + math.log(-math.expm1(-s)) - math.log(s))
        except OverflowError:
            raise _overflow(f"E[exp({t:g} X)]", self.spec) from None
        return _normal(v, f"E[exp({t:g} X)]", self.spec)

    def log_moments(self):
        if self.lo <= 0:
            raise DomainError("ln X needs strictly positive support")
        return moments_from_raw([self._log_raw(k) for k in range(1, 5)])

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
        _require_real(self.alpha, "alpha")
        _require_real(self.scale, "scale")
        if not (0 < self.alpha < math.inf and 0 < self.scale < math.inf):
            raise InvalidParameterError(
                f"pareto needs finite alpha, scale > 0, got ({self.alpha}, {self.scale})")

    @property
    def support(self) -> Interval:
        return Interval(self.scale, math.inf)

    @property
    def spec(self) -> str:
        return f"pareto:{self.alpha:g}:{self.scale:g}"

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        # inverse CDF with U in (0, 1]: rng.random() is [0, 1), so 1-U never
        # hits the singular endpoint
        x = rng.random(out=_draw_buffer(n, out))
        np.subtract(1.0, x, out=x)
        x **= -1.0 / self.alpha
        x *= self.scale
        return x

    def pdf(self, x):
        return _on_support(x, lambda v: v >= self.scale,
                           lambda v: self.alpha * self.scale ** self.alpha / v ** (self.alpha + 1))

    def cdf(self, x):
        return _on_support(x, lambda v: v >= self.scale,
                           lambda v: 1.0 - (self.scale / v) ** self.alpha)

    def quantile(self, u):
        return _at_u(u, lambda v: self.scale * (1.0 - v) ** (-1.0 / self.alpha))

    def isf(self, u):
        return _at_u(u, lambda v: self.scale * v ** (-1.0 / self.alpha))

    def power_moment(self, t: float) -> float:
        if t >= self.alpha:
            return math.inf  # tail of order alpha: E[X**t] diverges at t >= alpha
        try:
            return _normal(self.alpha * self.scale ** t / (self.alpha - t),
                           f"E[X**{t:g}]", self.spec)
        except OverflowError:
            raise _overflow(f"E[X**{t:g}]", self.spec) from None

    def mgf(self, t: float):
        if t > 0:
            return math.inf  # polynomial tail beats every exp(tx)
        if t == 0:
            return 1.0
        return None

    def log_moments(self):
        # ln X = ln(scale) + Exponential(alpha)
        try:
            var = self.alpha ** -2
        except OverflowError:
            raise _overflow("var(ln X)", self.spec) from None
        return (math.log(self.scale) + 1.0 / self.alpha, var, 2.0, 6.0)


DistributionModel = LogNormal | Gamma | Uniform | Pareto


# kind -> (class, spec form, accepted parameter counts)
_SPEC_FORMS = {
    "lognormal": (LogNormal, "lognormal:<mu>:<sigma2>", (2,)),
    "gamma": (Gamma, "gamma:<shape>:<rate>", (2,)),
    "uniform": (Uniform, "uniform:<lo>:<hi>", (2,)),
    "pareto": (Pareto, "pareto:<alpha>[:<scale>]", (1, 2)),
}


def parse_distribution(spec: str) -> DistributionModel:
    """Parse "lognormal:2:1", "gamma:100:1", "uniform:1:2", "pareto:10"
    (optional scale: "pareto:10:1.5")."""
    if not isinstance(spec, str):
        raise InvalidParameterError(f"distribution spec must be a string, got {spec!r}")
    parts = spec.strip().split(":")
    kind, args = parts[0], parts[1:]
    try:
        vals = [float(a) for a in args]
    except ValueError:
        raise InvalidParameterError(f"bad distribution parameters in {spec!r}") from None
    if kind not in _SPEC_FORMS:
        raise InvalidParameterError(f"unknown distribution kind {kind!r}")
    cls, form, arities = _SPEC_FORMS[kind]
    if len(vals) not in arities:
        raise InvalidParameterError(f"{kind} spec is {form}")
    return cls(*vals)

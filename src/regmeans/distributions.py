"""The four sampling distributions used by the simulation harness.

Each law is a frozen dataclass of real-number fields on one base, _Law,
which checks them (a field that is not a real number is
InvalidParameterError naming it, one outside the law's range rule _valid
"<kind> needs <_needs>, got (...)") and writes spec, the kind and each field
in its shortest round-trip form: parse_distribution(d.spec) == d, and the
parser's usage texts are read off the same fields.  Each carries a seeded
sampler sample(n, rng, *, out=None), exact quantile forms and closed-form
moment machinery:

    power_moment(t)  E[X**t] for real t (inf when divergent)
    mgf(t)           E[exp(tX)] (inf when divergent; ConfigurationError where
                     there is no closed form: t < 0 or NaN for LogNormal, Pareto)
    log_moments()    mean/variance/skewness/excess kurtosis of ln X

A law's quantile forms are its _quantile(v) = Q(v) and _isf(v) = Q(1 - v),
the latter without the cancellation of 1 - v.  They take an array of v in
(0, 1) unchecked: their one caller, the quadrature of asymptotics, gives
them its own nodes under the np.errstate it holds.

Gamma is parameterized shape-rate.  Pareto defaults to scale 1.  A sample
size n that is not an integer >= 1 is InvalidParameterError.
Divergent moments are flagged as math.inf, not raised; callers decide
whether infinity is an error in their context.  One rule, _in_range, decides
when a finite moment is not a usable float, for the closed forms here and
for every moment of g(X) in asymptotics: one beyond the float range raises
NumericError ("overflows a float"), so inf keeps meaning divergent, and so
does a positive one below the smallest normal float ("underflows the normal
float range"), a 0 or a subnormal that has lost its digits.  The moments
need no scipy: Gamma's take math.lgamma, exact products at integer orders
and the digamma series of _polygamma.  Only the quantile forms of
LogNormal and Gamma import scipy.special, on first use: after regmeans it
takes 0.20-0.27 s and raises the resident set from about 30 to 53 MB (3
runs on a 2-vCPU host).  Quadrature and its tail screen call them;
sampling, means and the Monte Carlo harness do not.

sample draws into out where given (the Monte Carlo harness passes each
worker's kept buffer), else into a new array, and transforms the draws in
place, with the bits of the plain formulas and no temporary array.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigurationError, DomainError, InvalidParameterError, NumericError
from .generators import Interval, _require_instance, _require_real, _spec_number, require_count

__all__ = [
    "LogNormal",
    "Gamma",
    "Uniform",
    "Pareto",
    "DistributionModel",
    "parse_distribution",
]


def _in_range(compute, what, where, positive: bool = True):
    """compute(), the moment named what of the law or pair named where, when
    it is a usable float (a tuple of floats may pass positive=False).  The
    one place that rules on it: an OverflowError, an inf or a NaN from a
    finite moment is NumericError "overflows a float", not inf, which
    callers would take for a divergent moment; a positive moment below the
    smallest normal float, a 0 or a subnormal that has lost its digits, is
    NumericError "underflows the normal float range".  what and where are
    functions that return the words, called only to word the error: a law's
    spec takes microseconds to write, and a moment is mostly fine."""
    try:
        v = compute()
    except OverflowError:
        v = math.inf
    if not all(map(math.isfinite, v if isinstance(v, tuple) else (v,))):
        raise NumericError(f"{what()} overflows a float for {where()}")
    if positive and v < sys.float_info.min:
        raise NumericError(f"{what()} underflows the normal float range for {where()}")
    return v


def _standardize(mean: float, central, of: str, where) -> tuple:
    """(mean, variance, skewness, excess kurtosis) of Y (named of), cut to 1
    + len(central) entries, from its mean and its central moments of orders
    2, 3, 4 (none, the first, or all three).  The even ones are positive for
    a Y that is not constant, so each goes through _in_range first: one that
    cancelled or underflowed to 0 or a subnormal is NumericError.  The
    central moments are divided by the variance one factor at a time:
    var**1.5 and var**2 underflow where var is a normal float.  where is a
    function that words the law or pair, as _in_range takes it."""
    for k, c in zip((2, 4), central[::2]):
        _in_range(lambda: c, lambda: f"the central moment of order {k} of {of}", where)
    if not central:
        return (mean,)
    var = central[0]
    if len(central) == 1:
        return mean, var
    c3, c4 = central[1:]
    return mean, var, c3 / var / math.sqrt(var), c4 / var / var - 3.0


def _central(raws) -> tuple:
    """(E[Y], [its central moments of orders 2 to len(raws)]) from the raw
    moments E[Y**k], k = 1, ..., len(raws) (1, 2 or 4), as _standardize
    takes them."""
    r1, central = raws[0], []
    if len(raws) > 1:
        central.append(raws[1] - r1 * r1)
    if len(raws) == 4:
        r2, r3, r4 = raws[1:]
        central += [r3 - 3.0 * r1 * r2 + 2.0 * r1 ** 3,
                    r4 - 4.0 * r1 * r3 + 6.0 * r1 * r1 * r2 - 3.0 * r1 ** 4]
    return r1, central


def _draw_buffer(n, rng, out) -> np.ndarray:
    """The array a sampler fills with n draws from rng: out, which must be a
    writable, aligned, C-contiguous float64 array of shape (n,), else
    InvalidParameterError; a new array when out is None.  An rng that is
    not a numpy.random.Generator is InvalidParameterError too."""
    n = require_count(n, "n", 1)
    _require_instance(rng, np.random.Generator, "rng", "a numpy.random.Generator")
    if out is None:
        return np.empty(n)
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == (n,)
            and out.flags.carray):
        raise InvalidParameterError(
            f"out must be a writable, aligned, contiguous float64 array of shape ({n},), "
            f"got {out!r:.80}")
    return out


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


class _Law:
    """The protocol of a law (see the module docstring).  Each law declares
    kind, _needs and _valid; _attains_lo is true where its sampler can
    return support.lo exactly."""

    _attains_lo = False

    def __post_init__(self):
        values = [_require_real(getattr(self, f.name), f.name) for f in fields(self)]
        if not self._valid():
            raise InvalidParameterError(
                f"{self.kind} needs {self._needs}, got ({', '.join(map(str, values))})")

    @property
    def spec(self) -> str:
        return ":".join([self.kind, *(_spec_number(getattr(self, f.name)) for f in fields(self))])

    def _where(self) -> str:
        """The law as an error names it (see _in_range)."""
        return repr(self.spec)

    def mgf(self, t: float):
        """A heavy tail's E[exp(tX)]; Gamma and Uniform have their own."""
        if t >= 0:
            return math.inf if t > 0 else 1.0  # heavier than every exponential tail
        raise ConfigurationError(f"no closed form for E[exp(tX)] at t < 0 or NaN: "
                                 f"t={t!r} for {self.spec!r}")


@dataclass(frozen=True)
class LogNormal(_Law):
    """ln X ~ Normal(mu, sigma2); sigma2 is the *variance* of ln X."""

    mu: float
    sigma2: float

    kind, _needs = "lognormal", "finite mu, sigma2 > 0"
    support = Interval(0.0, math.inf)

    def _valid(self) -> bool:
        return math.isfinite(self.mu) and 0 < self.sigma2 < math.inf

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        x = _draw_buffer(n, rng, out)
        rng.standard_normal(out=x)
        x *= self.sigma
        x += self.mu
        return np.exp(x, out=x)

    def _quantile(self, v):
        from scipy.special import ndtri

        return np.exp(self.mu + self.sigma * ndtri(v))

    def _isf(self, v):
        from scipy.special import ndtri

        return np.exp(self.mu - self.sigma * ndtri(v))

    def power_moment(self, t: float) -> float:
        return _in_range(lambda: math.exp(t * self.mu + 0.5 * t * t * self.sigma2),
                         lambda: f"E[X**{t:g}]", self._where)

    def log_moments(self):
        return (self.mu, self.sigma2, 0.0, 0.0)


@dataclass(frozen=True)
class Gamma(_Law):
    """Shape-rate parameterization: density ~ x**(shape-1) exp(-rate*x)."""

    shape: float
    rate: float

    kind, _needs = "gamma", "finite shape, rate > 0"
    support = Interval(0.0, math.inf)

    def _valid(self) -> bool:
        return 0 < self.shape < math.inf and 0 < self.rate < math.inf

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        # rng.gamma(k, s) is s * standard_gamma(k), bit for bit; at shape 1
        # numpy's standard_gamma is standard_exponential, the same draws and
        # stream state at 5.2 against 6.7 ns a draw (numpy 2.4.6, pinned by
        # tests/test_distributions.py)
        x = _draw_buffer(n, rng, out)
        if self.shape == 1.0:
            rng.standard_exponential(out=x)
        else:
            rng.standard_gamma(self.shape, out=x)
        x *= 1.0 / self.rate
        return x

    def _quantile(self, v):
        from scipy.special import gammaincinv

        return gammaincinv(self.shape, v) / self.rate

    def _isf(self, v):
        from scipy.special import gammainccinv

        return gammainccinv(self.shape, v) / self.rate

    def power_moment(self, t: float) -> float:
        """Gamma(shape + t) / (Gamma(shape) rate**t).  At an integer t up to
        _EXACT_ORDERS in size it is the product of the factors (shape + i) /
        rate, or rate / (shape - 1 - i) at t < 0, one rounding each; the
        lgamma difference of other orders cancels, and at shape 1000 it kept
        only 9 digits of the variance."""
        if self.shape + t <= 0:
            return math.inf  # not integrable at the origin

        def moment():
            if float(t).is_integer() and abs(t) <= _EXACT_ORDERS:
                m = 1.0
                for i in range(int(abs(t))):
                    m *= ((self.shape + i) / self.rate if t > 0
                          else self.rate / (self.shape - 1.0 - i))
                return m
            return math.exp(math.lgamma(self.shape + t) - math.lgamma(self.shape)
                            - t * math.log(self.rate))
        return _in_range(moment, lambda: f"E[X**{t:g}]", self._where)

    def mgf(self, t: float):
        if t >= self.rate:
            return math.inf
        return _in_range(lambda: (1.0 - t / self.rate) ** (-self.shape),
                         lambda: f"E[exp({t:g} X)]", self._where)

    def log_moments(self):
        # a shape near the float's smallest sends digamma to -inf and the
        # polygammas to inf: NumericError, not a moment of inf or NaN
        def moments():
            v = _polygamma(1, self.shape)
            return (_polygamma(0, self.shape) - math.log(self.rate), v,
                    _polygamma(2, self.shape) / v / math.sqrt(v),
                    _polygamma(3, self.shape) / v / v)
        return _in_range(moments, lambda: "a moment of ln X", self._where, positive=False)


@dataclass(frozen=True)
class Uniform(_Law):
    lo: float
    hi: float

    kind, _needs, _attains_lo = "uniform", "finite lo < hi", True

    def _valid(self) -> bool:
        return -math.inf < self.lo < self.hi < math.inf

    @property
    def support(self) -> Interval:
        return Interval(self.lo, self.hi)

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        x = _draw_buffer(n, rng, out)
        rng.random(out=x)
        x *= self.hi - self.lo
        x += self.lo
        return x

    def _quantile(self, v):
        return self.lo + (self.hi - self.lo) * v

    def _isf(self, v):
        return self.hi - (self.hi - self.lo) * v

    def power_moment(self, t: float) -> float:
        if self.lo <= 0:
            if t >= 0 and float(t).is_integer():
                pass  # polynomial moments are fine across/at zero
            elif self.lo <= 0 <= self.hi and t <= -1:
                return math.inf
            elif self.lo < 0:
                raise DomainError(
                    f"E[X**{t}] undefined for uniform support [{self.lo}, {self.hi}]")
            # else lo = 0 < t + 1: x**t is integrable at 0, and the general
            # form below is hi**t / (t + 1)
        if t == -1:
            # log(hi/lo) as log1p of the relative width, which keeps a narrow
            # support's digits, or where that overflows, as a log difference
            rel = (self.hi - self.lo) / self.lo
            log_ratio = (math.log1p(rel) if math.isfinite(rel)
                         else math.log(self.hi) - math.log(self.lo))
            return _in_range(lambda: log_ratio / (self.hi - self.lo), lambda: f"E[X**{t:g}]",
                             self._where)
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

        def moment():
            if t * math.log2(abs(u)) < 1000.0:  # |u**t| < 2**1000: a float
                return u ** t * f
            # u**t alone may be beyond the float range where the moment is not
            half = abs(u) ** (0.5 * t)
            return (-1.0 if u < 0.0 else 1.0) ** t * (half * f * half)
        # a support reaching 0 or below has moments of either sign
        return _in_range(moment, lambda: f"E[X**{t:g}]", self._where, positive=self.lo > 0)

    def mgf(self, t: float):
        """E[exp(tX)] = exp(a) (1 - exp(-s)) / s, a the larger of t lo and
        t hi and s = |t| (hi - lo), summed in logs: expm1 keeps a narrow
        support accurate, and exp(a) alone may overflow where the mgf does
        not."""
        a, s = max(t * self.lo, t * self.hi), abs(t) * (self.hi - self.lo)
        # s = 0: t = 0, or |t| (hi - lo) below the smallest float;
        # log(inf) = inf: an overflowing width gives exp(-inf) = 0
        return _in_range(
            lambda: math.exp(a if s == 0.0 else a + math.log(-math.expm1(-s)) - math.log(s)),
            lambda: f"E[exp({t:g} X)]", self._where)

    def log_moments(self):
        return _standardize(*_central([self._log_raw(k) for k in range(1, 5)]), "ln X",
                            self._where)

    def _log_raw(self, k: int) -> float:
        if self.lo < 0:
            raise DomainError("ln X needs a support inside [0, inf)")

        # E[(ln X)^k] via the antiderivative of (ln x)^k:
        #   x * sum_{i=0..k} (-1)^(k-i) (k!/i!) (ln x)^i,
        # which tends to 0 at x = 0
        def anti(x: float) -> float:
            if x == 0.0:
                return 0.0
            return x * math.fsum(
                (-1) ** (k - i) * (math.factorial(k) / math.factorial(i)) * math.log(x) ** i
                for i in range(k + 1))
        return (anti(self.hi) - anti(self.lo)) / (self.hi - self.lo)


@dataclass(frozen=True)
class Pareto(_Law):
    """Standard Pareto: cdf 1 - (scale/x)**alpha on [scale, inf)."""

    alpha: float
    scale: float = 1.0

    kind, _needs, _attains_lo = "pareto", "finite alpha, scale > 0", True

    def _valid(self) -> bool:
        return 0 < self.alpha < math.inf and 0 < self.scale < math.inf

    @property
    def support(self) -> Interval:
        return Interval(self.scale, math.inf)

    def sample(self, n: int, rng: np.random.Generator, *, out=None) -> np.ndarray:
        # inverse CDF with U in (0, 1]: rng.random() is [0, 1), so 1-U never
        # hits the singular endpoint
        x = _draw_buffer(n, rng, out)
        rng.random(out=x)
        np.subtract(1.0, x, out=x)
        x **= -1.0 / self.alpha
        x *= self.scale
        return x

    def _quantile(self, v):
        return self.scale * (1.0 - v) ** (-1.0 / self.alpha)

    def _isf(self, v):
        return self.scale * v ** (-1.0 / self.alpha)

    def power_moment(self, t: float) -> float:
        if t >= self.alpha:
            return math.inf  # tail of order alpha: E[X**t] diverges at t >= alpha
        return _in_range(lambda: self.alpha * self.scale ** t / (self.alpha - t),
                         lambda: f"E[X**{t:g}]", self._where)

    def log_moments(self):
        # ln X = ln(scale) + Exponential(alpha)
        return _in_range(lambda: (math.log(self.scale) + 1.0 / self.alpha, self.alpha ** -2,
                                  2.0, 6.0), lambda: "a moment of ln X", self._where,
                         positive=False)


DistributionModel = LogNormal | Gamma | Uniform | Pareto
_LAWS = {law.kind: law for law in DistributionModel.__args__}


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
    if kind not in _LAWS:
        raise InvalidParameterError(f"unknown distribution kind {kind!r}")
    params = fields(law := _LAWS[kind])
    if not sum(f.default is MISSING for f in params) <= len(vals) <= len(params):
        # a field with a default may be left out: [:<name>]
        form = "".join(f":<{f.name}>" if f.default is MISSING else f"[:<{f.name}>]"
                       for f in params)
        raise InvalidParameterError(f"{kind} spec is {kind}{form}")
    return law(*vals)

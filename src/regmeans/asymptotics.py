"""Population-level quantities for quasi-arithmetic means.

For X ~ dist and a generator g, the population counterpart of the mean is

    E_g(X) = g_inv( E[g(X)] )

and the scaled estimation error sqrt(n)*(M_g - E_g) is asymptotically normal
with variance var(g(X)) / g'(E_g)**2.  This module computes those quantities
(closed forms where the distribution provides them, adaptive quadrature
otherwise), plus the Edgeworth refinement of the normal CDF driven by the
skewness and excess kurtosis of g(X).

All of them rest on the first four moments of g(X), and one routine,
``_g_stats``, computes those: E_g needs the mean, the limiting variance the
mean and variance, the Edgeworth terms all four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from .distributions import Gamma, LogNormal, Uniform
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSlopeError,
    DivergenceError,
    InvalidParameterError,
)
from .generators import Generator

__all__ = [
    "GMoments",
    "AsymptoticSpec",
    "expect",
    "kolmogorov_expectation",
    "g_moments",
    "asymptotic_variance",
    "hermite",
    "edgeworth_corrections",
    "edgeworth_cdf",
    "phi_cdf",
    "phi_pdf",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Quadrature targets (relative accuracy is what matters: values span e**16).
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-11
_QUAD_LIMIT = 200

_METHODS = ("auto", "closed_form", "quadrature", "monte_carlo")


@dataclass(frozen=True)
class GMoments:
    """First four moments of g(X): mean, variance, skewness, excess
    kurtosis, plus how they were computed.  Skewness/kurtosis are NaN for a
    degenerate (zero-variance) g(X)."""

    mean_g: float
    var_g: float
    skew_g: float
    exkurt_g: float
    method: str

    def __post_init__(self):
        if self.var_g < 0:
            raise InvalidParameterError(f"variance must be >= 0, got {self.var_g}")
        if self.method not in ("closed_form", "quadrature", "monte_carlo"):
            raise InvalidParameterError(f"unknown moments method {self.method!r}")


@dataclass(frozen=True)
class AsymptoticSpec:
    """E_g(X), g'(E_g(X)), and the limiting variance of sqrt(n)*(M_g - E_g)."""

    eg: float
    gprime_at_eg: float
    asym_var: float


# ---------------------------------------------------------------------------
# Quadrature

def _tail_slope(fn, pick) -> float:
    """Log-log slope of |fn(pick(u))| against u as u -> 0, where pick is a
    distribution's quantile (lower end) or isf (upper end): fn(Q(u)) ~ u**slope
    there.  Probes reach u=1e-60 via the quantile/isf closed forms, far beyond
    where quadrature samples.  Overflow gives -inf; an integrand that vanishes
    at the probes gives 0."""
    u1, u2 = 1e-54, 1e-60
    try:
        # overflow to inf is the divergence signal, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            h1 = abs(float(fn(float(pick(u1)))))
            h2 = abs(float(fn(float(pick(u2)))))
    except OverflowError:
        return -math.inf
    if not (math.isfinite(h1) and math.isfinite(h2)):
        return -math.inf
    if h1 == 0.0 or h2 == 0.0:
        return 0.0
    return (math.log(h2) - math.log(h1)) / (math.log(u2) - math.log(u1))


def _run_quad(fn, lo, hi, **kwargs):
    out = quad(fn, lo, hi, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL,
               limit=_QUAD_LIMIT, full_output=1, **kwargs)
    value = out[0]
    if len(out) > 3:  # QUADPACK attached a failure message
        raise ConvergenceError(f"quadrature did not converge: {out[3]}")
    if not math.isfinite(value):
        raise ConvergenceError("quadrature produced a non-finite value")
    return float(value)


def expect(dist, fn) -> float:
    """E[fn(X)] by adaptive quadrature.

    The integration variable is chosen per family (Gaussian z-space for
    LogNormal, a windowed x-space for Gamma, quantile space for Pareto,
    direct x-space for Uniform; quantile space for anything duck-typed).
    Because the windowed/z-space forms truncate tails that carry negligible
    probability mass, a tail-exponent screen runs first and raises
    DivergenceError for integrands those tails cannot absorb: a slope <= -1
    means the quantile-space integrand is non-integrable at that end.
    """
    lower, upper = (_tail_slope(fn, pick) for pick in (dist.quantile, dist.isf))
    if min(lower, upper) <= -(1.0 - 1e-3):
        raise DivergenceError(f"E[fn(X)] diverges for {getattr(dist, 'spec', dist)!r}")

    if isinstance(dist, LogNormal):
        mu, sig = dist.mu, dist.sigma

        def integrand(z):
            e = -0.5 * z * z
            if e < -745.0:  # Gaussian weight underflows first
                return 0.0
            return fn(math.exp(mu + sig * z)) * _INV_SQRT2PI * math.exp(e)

        return _run_quad(integrand, -np.inf, np.inf)

    if isinstance(dist, Gamma):
        lo = float(dist.quantile(1e-15))
        hi = float(dist.isf(1e-15))
        mode = dist.shape / dist.rate
        points = [mode] if lo < mode < hi else None
        return _run_quad(lambda x: fn(x) * dist.pdf(x), lo, hi, points=points)

    if isinstance(dist, Uniform):
        w = dist.hi - dist.lo
        return _run_quad(lambda x: fn(x) / w, dist.lo, dist.hi)

    # Pareto and any duck-typed distribution: integrate in quantile space,
    # where the density cancels; endpoints carry no mass.  Each half goes
    # through the function that resolves its end: quantile(u) below 1/2, and
    # above it isf, since quantile(1 - p) rounds to quantile(1) for tiny p.
    # The upper tail fn(isf(p)) ~ p**upper is an endpoint singularity that
    # defeats QAGS' extrapolation (pareto:10:1, x**8); p = v**k with
    # k >= 1/(1 + upper) turns it into the bounded k v**(k-1) fn(isf(v**k)).
    k = max(1, math.ceil(1.0 / (1.0 + upper)))

    def lower_half(u):
        return fn(float(dist.quantile(u))) if u > 0.0 else 0.0

    def upper_half(v):
        p = v ** k
        return fn(float(dist.isf(p))) * k * v ** (k - 1) if p > 0.0 else 0.0

    return _run_quad(lower_half, 0.0, 0.5) + _run_quad(upper_half, 0.0, 0.5 ** (1.0 / k))


# ---------------------------------------------------------------------------
# Closed-form dispatch

def _has_closed_forms(g: Generator, dist) -> bool:
    if g.kind == "log":
        return hasattr(dist, "log_moments")
    if g.kind == "exp":
        return hasattr(dist, "mgf")
    if g.kind in ("identity", "reciprocal", "power"):
        return hasattr(dist, "power_moment")
    return False


def _closed_g_raw(g: Generator, dist, k: int) -> float:
    """E[g(X)**k] in closed form; math.inf when divergent.  Only for kinds
    other than log (log works from cumulants directly)."""
    if g.kind == "identity":
        return dist.power_moment(float(k))
    if g.kind == "reciprocal":
        return dist.power_moment(float(-k))
    if g.kind == "power":
        return dist.power_moment(g.param * k)
    if g.kind == "exp":
        v = dist.mgf(float(k))
        if v is None:
            raise ConfigurationError("no closed-form MGF here")
        return v
    raise ConfigurationError(f"no closed-form moments for generator {g.name!r}")


def _resolve_method(g: Generator, dist, method: str) -> str:
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if method == "auto":
        return "closed_form" if _has_closed_forms(g, dist) else "quadrature"
    if method == "closed_form" and not _has_closed_forms(g, dist):
        raise ConfigurationError(
            f"no closed forms for generator {g.name!r} with this distribution")
    return method


def _g_stats(g: Generator, dist, how: str, order: int) -> tuple:
    """The first ``order`` (1, 2 or 4) of (mean, variance, skewness, excess
    kurtosis) of g(X), from closed forms or by quadrature (``how``); only
    g_moments samples.

    Raises DivergenceError naming the first raw moment E[g(X)**k] that
    diverges.  A zero-variance g(X) yields NaN skewness and kurtosis.
    """
    if how == "monte_carlo":
        raise InvalidParameterError("use g_moments for the monte_carlo method")
    if how == "closed_form" and g.kind == "log":
        return dist.log_moments()[:order]
    raws = []
    for k in range(1, order + 1):
        if how == "closed_form":
            r = _closed_g_raw(g, dist, k)
        else:
            r = expect(dist, lambda x: g.forward(x) ** k)
        if math.isinf(r):
            raise DivergenceError(
                f"E[g(X)**{k}] diverges for g={g.name!r}, dist={dist.spec!r}")
        raws.append(r)
    r1 = raws[0]
    if order == 1:
        return (r1,)
    var = max(raws[1] - r1 * r1, 0.0)
    if order == 2:
        return r1, var
    if var == 0.0:
        return r1, var, math.nan, math.nan
    r2, r3, r4 = raws[1:]
    c3 = r3 - 3.0 * r1 * r2 + 2.0 * r1 ** 3
    c4 = r4 - 4.0 * r1 * r3 + 6.0 * r1 * r1 * r2 - 3.0 * r1 ** 4
    return r1, var, c3 / var ** 1.5, c4 / (var * var) - 3.0


def kolmogorov_expectation(g: Generator, dist, method: str = "auto") -> float:
    """E_g(X) = g_inv(E[g(X)]).

    Closed forms (when the distribution provides the needed moment):
    identity -> E[X]; log -> exp(E[ln X]); reciprocal -> 1/E[1/X];
    power p -> E[X**p]**(1/p); exp -> ln E[exp X].  Raises DivergenceError
    when E[g(X)] diverges.
    """
    (mean_g,) = _g_stats(g, dist, _resolve_method(g, dist, method), 1)
    return float(g.inverse(mean_g))


def g_moments(g: Generator, dist, method: str = "auto",
              mc_samples: int = 10 ** 6, mc_seed: int = 0) -> GMoments:
    """Mean, variance, skewness, and excess kurtosis of g(X).

    Divergent moments raise DivergenceError naming the offending order.  A
    zero-variance g(X) yields NaN skewness/kurtosis.
    """
    how = _resolve_method(g, dist, method)
    if how == "monte_carlo":
        y = np.asarray(g.forward(dist.sample(mc_samples, np.random.default_rng(mc_seed))),
                       dtype=float)
        m = float(np.mean(y))
        d = y - m
        v = float(np.mean(d * d))
        if v == 0.0:
            return GMoments(m, 0.0, math.nan, math.nan, "monte_carlo")
        return GMoments(m, v, float(np.mean(d ** 3)) / v ** 1.5,
                        float(np.mean(d ** 4)) / (v * v) - 3.0, "monte_carlo")
    return GMoments(*_g_stats(g, dist, how, 4), how)


def asymptotic_variance(g: Generator, dist, method: str = "auto") -> AsymptoticSpec:
    """E_g(X), g'(E_g(X)), and var(g(X)) / g'(E_g(X))**2."""
    mean_g, var_g = _g_stats(g, dist, _resolve_method(g, dist, method), 2)
    eg = float(g.inverse(mean_g))
    gp = float(g.derivative(eg))
    if not math.isfinite(gp) or gp == 0.0:
        raise DegenerateSlopeError(f"g'(E_g) = {gp} for generator {g.name!r}")
    return AsymptoticSpec(eg=eg, gprime_at_eg=gp, asym_var=var_g / (gp * gp))


# ---------------------------------------------------------------------------
# Edgeworth expansion

def phi_cdf(x):
    """Standard normal CDF via the complementary error function."""
    out = 0.5 * erfc(-np.asarray(x, dtype=float) / _SQRT2)
    return float(out) if np.ndim(x) == 0 else out


def phi_pdf(x):
    out = _INV_SQRT2PI * np.exp(-0.5 * np.square(np.asarray(x, dtype=float)))
    return float(out) if np.ndim(x) == 0 else out


def hermite(k: int, x):
    """The polynomial factors of the first three Edgeworth corrections:
    p1 = x^2-1, p2 = x^3-3x, p3 = x^5-10x^3+15x, in Horner form."""
    x2 = x * x
    if k == 1:
        return x2 - 1.0
    if k == 2:
        return x * (x2 - 3.0)
    if k == 3:
        return x * (x2 * (x2 - 10.0) + 15.0)
    raise InvalidParameterError(f"hermite order must be 1, 2, or 3, got {k}")


def _check_expansion_inputs(n: int, mom: GMoments, third_order: str) -> float:
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if not (math.isfinite(mom.skew_g) and math.isfinite(mom.exkurt_g)):
        raise ConfigurationError("Edgeworth expansion needs finite skewness and kurtosis")
    if third_order == "skew_sq":
        return mom.skew_g * mom.skew_g
    if third_order == "kurt_sq":
        return mom.exkurt_g * mom.exkurt_g
    raise InvalidParameterError(f"third_order must be 'skew_sq' or 'kurt_sq', got {third_order!r}")


def edgeworth_corrections(x, n: int, mom: GMoments, third_order: str = "skew_sq"):
    """The three subtracted terms phi(x)*t_k, in expansion order.

    third_order selects the coefficient of the O(1/n) p3 term: the squared
    skewness ("skew_sq", the classical choice and the default) or the squared
    excess kurtosis ("kurt_sq", kept for comparison).
    """
    c3 = _check_expansion_inputs(n, mom, third_order)
    w = phi_pdf(x)
    rn = math.sqrt(n)
    return (
        w * mom.skew_g * hermite(1, x) / (6.0 * rn),
        w * mom.exkurt_g * hermite(2, x) / (24.0 * n),
        w * c3 * hermite(3, x) / (72.0 * n),
    )


def edgeworth_cdf(x, n: int, mom: GMoments, third_order: str = "skew_sq"):
    """Edgeworth-corrected CDF approximation at x (raw, not clamped to [0,1]):

        Phi(x) - phi(x) * [ skew*p1/(6 sqrt(n)) + exkurt*p2/(24 n) + c3*p3/(72 n) ]
    """
    c1, c2, c3 = edgeworth_corrections(x, n, mom, third_order)
    return phi_cdf(x) - (c1 + c2 + c3)

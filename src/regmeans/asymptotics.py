"""Population-level quantities for quasi-arithmetic means.

For X ~ dist and a generator g, the population counterpart of the mean is

    E_g(X) = g_inv( E[g(X)] )

and the scaled estimation error sqrt(n)*(M_g - E_g) is asymptotically normal
with variance var(g(X)) / g'(E_g)**2.  This module computes those quantities
(closed forms for the built-in generators, adaptive quadrature for custom
ones), plus the Edgeworth refinement of the normal CDF driven by the
skewness and excess kurtosis of g(X).

All of them rest on the first four moments of g(X), and one routine,
``_g_stats``, computes those: E_g needs the mean, the limiting variance the
mean and variance, the Edgeworth terms all four.  It standardizes raw
moments with distributions.moments_from_raw, as Uniform.log_moments does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .distributions import Gamma, LogNormal, Uniform, moments_from_raw
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSlopeError,
    DivergenceError,
    DomainError,
    InvalidParameterError,
    NumericError,
)
from .generators import Generator, require_count

__all__ = [
    "GMoments",
    "AsymptoticSpec",
    "expect",
    "kolmogorov_expectation",
    "g_moments",
    "asymptotic_variance",
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

_METHODS = ("auto", "closed_form", "quadrature")


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
        if self.method not in ("closed_form", "quadrature"):
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
    # imported on first use: scipy.integrate adds about 27 MB and 0.3 s to a
    # process, and only quadrature needs it
    from scipy.integrate import quad

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

    QUADPACK calls the integrand one node at a time, so the cost per node
    sets the cost of a call.  In quantile space each node is one
    dist.quantile or dist.isf call on a Python float, which the built-in
    families answer with float arithmetic, not a 0-d array; a quantile whose
    power overflows is inf there, as in the array path, never OverflowError.
    """
    # float errors are values here: overflow is the tail screen's divergence
    # signal and a non-finite quadrature is ConvergenceError, underflow a
    # zero, so a caller's np.errstate leaves the result as it is
    with np.errstate(all="ignore"):
        lower, upper = (_tail_slope(fn, pick) for pick in (dist.quantile, dist.isf))
        if min(lower, upper) <= -(1.0 - 1e-3):
            raise DivergenceError(f"E[fn(X)] diverges for {dist.spec!r}")

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

def _closed_g_raw(g: Generator, dist, k: int) -> float:
    """E[g(X)**k] in closed form; math.inf when divergent.  For the
    built-in kinds other than log (log works from cumulants directly); every
    distribution has an mgf closed form at t = k > 0."""
    if g.kind == "identity":
        return dist.power_moment(float(k))
    if g.kind == "reciprocal":
        return dist.power_moment(float(-k))
    if g.kind == "power":
        return dist.power_moment(g.param * k)
    return dist.mgf(float(k))


def _resolve_method(g: Generator, method: str) -> str:
    # every distribution has closed forms for every built-in generator kind
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if g.kind != "custom":
        return "closed_form" if method == "auto" else method
    if method == "closed_form":
        raise ConfigurationError(f"no closed forms for custom generator {g.name!r}")
    return "quadrature" if method == "auto" else method


def _g_stats(g: Generator, dist, how: str, order: int) -> tuple:
    """The first ``order`` (1, 2 or 4) of (mean, variance, skewness, excess
    kurtosis) of g(X), from closed forms or by quadrature (``how``, one of
    _resolve_method's answers).

    Raises DivergenceError naming the first raw moment E[g(X)**k] that
    diverges.  A zero-variance g(X) yields NaN skewness and kurtosis.
    """
    if how == "closed_form" and g.kind == "log":
        return dist.log_moments()[:order]
    raws = []
    for k in range(1, order + 1):
        if how == "closed_form":
            r = _closed_g_raw(g, dist, k)
        else:
            r = expect(dist, lambda x: g.forward(x) ** k)
            if g.kind == "exp" and r < sys.float_info.min:
                # as Uniform.mgf rules: a 0 or a subnormal has lost its digits
                raise NumericError(
                    f"E[g(X)**{k}] underflows the normal float range for "
                    f"g={g.name!r}, dist={dist.spec!r}")
        if math.isinf(r):
            raise DivergenceError(
                f"E[g(X)**{k}] diverges for g={g.name!r}, dist={dist.spec!r}")
        raws.append(r)
    return moments_from_raw(raws)


def kolmogorov_expectation(g: Generator, dist, method: str = "auto") -> float:
    """E_g(X) = g_inv(E[g(X)]).

    Closed forms (when the distribution provides the needed moment):
    identity -> E[X]; log -> exp(E[ln X]); reciprocal -> 1/E[1/X];
    power p -> E[X**p]**(1/p); exp -> ln E[exp X].  Raises DivergenceError
    when E[g(X)] diverges.
    """
    (mean_g,) = _g_stats(g, dist, _resolve_method(g, method), 1)
    return float(g.inverse(mean_g))


def g_moments(g: Generator, dist, method: str = "auto") -> GMoments:
    """Mean, variance, skewness, and excess kurtosis of g(X).

    Divergent moments raise DivergenceError naming the offending order.  A
    zero-variance g(X) yields NaN skewness/kurtosis.
    """
    how = _resolve_method(g, method)
    return GMoments(*_g_stats(g, dist, how, 4), how)


def asymptotic_variance(g: Generator, dist, method: str = "auto") -> AsymptoticSpec:
    """E_g(X), g'(E_g(X)), and var(g(X)) / g'(E_g(X))**2."""
    mean_g, var_g = _g_stats(g, dist, _resolve_method(g, method), 2)
    eg = float(g.inverse(mean_g))
    gp = float(g.derivative(eg))
    if not math.isfinite(gp) or gp == 0.0:
        raise DegenerateSlopeError(f"g'(E_g) = {gp} for generator {g.name!r}")
    return AsymptoticSpec(eg=eg, gprime_at_eg=gp, asym_var=var_g / (gp * gp))


# ---------------------------------------------------------------------------
# Edgeworth expansion
#
# The arrays here are filled by ufuncs writing into buffers (out=), in the
# order of operations of the plain formulas, so the bits are theirs: an
# Edgeworth CDF takes five fresh arrays besides Phi, where the plain
# operators made thirty temporaries.  One formula, _expansion with
# _term_into, serves edgeworth_corrections and the CDF, which callers that
# already hold Phi(x) reach through _edgeworth_cdf.

def phi_cdf(x):
    """Standard normal CDF via the complementary error function.  A NaN
    value is DomainError."""
    from scipy.special import erfc  # imported on first use, as quad is

    xa = np.asarray(x, dtype=float)
    out = np.negative(xa, out=np.empty(xa.shape))
    np.divide(out, _SQRT2, out=out)
    erfc(out, out=out)
    np.multiply(out, 0.5, out=out)
    if np.isnan(np.min(out, initial=0.0)):  # NaN only from a NaN x; no temporary
        raise DomainError("phi_cdf got a NaN value")
    return float(out) if np.ndim(x) == 0 else out


def _pdf_from_square(x2, out):
    """phi at the points whose squares are x2, into out."""
    np.multiply(x2, -0.5, out=out)
    np.exp(out, out=out)
    return np.multiply(out, _INV_SQRT2PI, out=out)


def phi_pdf(x):
    xa = np.asarray(x, dtype=float)
    out = np.square(xa, out=np.empty(xa.shape))
    _pdf_from_square(out, out)
    return float(out) if np.ndim(x) == 0 else out


def _hermite_into(k: int, x, x2, out):
    """The polynomial factor of the k-th Edgeworth correction at x, into out,
    given x2 = x*x: p1 = x^2-1, p2 = x^3-3x, p3 = x^5-10x^3+15x, in Horner
    form."""
    if k == 1:
        return np.subtract(x2, 1.0, out=out)
    if k == 2:
        np.subtract(x2, 3.0, out=out)
        return np.multiply(x, out, out=out)
    np.subtract(x2, 10.0, out=out)
    np.multiply(x2, out, out=out)
    np.add(out, 15.0, out=out)
    return np.multiply(x, out, out=out)


def _expansion(x, n: int, mom: GMoments) -> tuple:
    """The checked inputs of the three terms: x as floats clamped to +-1e10,
    x*x, phi(x), and each term's (k, coef, den), the term being
    ((phi(x) * coef) * p_k(x)) / den."""
    n = require_count(n, "n", 1)
    if not (math.isfinite(mom.skew_g) and math.isfinite(mom.exkurt_g)):
        raise ConfigurationError("Edgeworth expansion needs finite skewness and kurtosis")
    xa = np.asarray(x, dtype=float)
    lo, hi = np.min(xa, initial=math.inf), np.max(xa, initial=-math.inf)
    if np.isnan(lo):  # NaN propagates through min and max alike
        raise DomainError("Edgeworth expansion got a NaN value")
    if lo < -1e10 or hi > 1e10:  # a copy only where needed
        xa = np.clip(xa, -1e10, 1e10)
    x2 = np.multiply(xa, xa, out=np.empty(xa.shape))
    # phi of the clamped x: beyond +-1e10 it is 0 either way
    w = _pdf_from_square(x2, np.empty(xa.shape))
    rn = math.sqrt(n)
    return xa, x2, w, ((1, mom.skew_g, 6.0 * rn), (2, mom.exkurt_g, 24.0 * n),
                       (3, mom.skew_g * mom.skew_g, 72.0 * n))


def _term_into(out, scratch, k: int, coef: float, den: float, x, x2, w):
    """One term of _expansion into out, with p_k in scratch."""
    np.multiply(w, coef, out=out)
    np.multiply(out, _hermite_into(k, x, x2, scratch), out=out)
    return np.divide(out, den, out=out)


def edgeworth_corrections(x, n: int, mom: GMoments):
    """The three subtracted terms phi(x)*t_k, in expansion order, with the
    classical coefficients: skew/(6 sqrt(n)) on p1, exkurt/(24 n) on p2 and
    skew**2/(72 n) on p3.  Terms are 0, not NaN, out to x = +-inf: x is
    clamped to +-1e10, beyond which phi(x) is 0.  A NaN value is DomainError.
    """
    xa, x2, w, terms = _expansion(x, n, mom)
    p = np.empty(xa.shape)
    out = tuple(_term_into(np.empty(xa.shape), p, *term, xa, x2, w) for term in terms)
    return tuple(float(c) for c in out) if np.ndim(x) == 0 else out


def _edgeworth_cdf(x, n: int, mom: GMoments, phi=None):
    """edgeworth_cdf, given phi = phi_cdf(x) where the caller holds it."""
    xa, x2, w, terms = _expansion(x, n, mom)
    if phi is None:
        phi = phi_cdf(x)
    total, term, p = (np.empty(xa.shape) for _ in range(3))
    _term_into(total, p, *terms[0], xa, x2, w)
    for spec in terms[1:]:  # (c1 + c2) + c3
        np.add(total, _term_into(term, p, *spec, xa, x2, w), out=total)
    np.subtract(phi, total, out=total)
    return float(total) if np.ndim(x) == 0 else total


def edgeworth_cdf(x, n: int, mom: GMoments):
    """Edgeworth-corrected CDF approximation at x (raw, not clamped to [0,1]):

        Phi(x) - phi(x) * [ skew*p1/(6 sqrt(n)) + exkurt*p2/(24 n) + skew**2*p3/(72 n) ]
    """
    return _edgeworth_cdf(x, n, mom)

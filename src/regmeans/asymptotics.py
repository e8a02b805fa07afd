"""Population-level quantities for quasi-arithmetic means.

For X ~ dist and a generator g, the population counterpart of the mean is

    E_g(X) = g_inv( E[g(X)] )

and the scaled estimation error sqrt(n)*(M_g - E_g) is asymptotically normal
with variance var(g(X)) / g'(E_g)**2.  This module computes those quantities
(closed forms for the built-in generators, quadrature for custom ones),
plus the Edgeworth refinement of the normal CDF driven by the skewness and
excess kurtosis of g(X).

All of them rest on the first four moments of g(X), and one routine,
``_g_stats``, computes those: E_g needs the mean, the limiting variance the
mean and variance, the Edgeworth terms all four.  Closed forms give raw
moments, quadrature the mean and central moments; both are standardized by
distributions._standardize, and every moment that is not a usable float is
NumericError by the one rule of distributions._in_range.

The quadrature is one tanh-sinh rule in quantile space for every law
(Takahasi and Mori, 1974; Trefethen and Weideman, 2014): E[fn(X)] is the
integral of fn(Q(u)) over (0, 1), a trapezoid sum in t after u = 1/(1 +
exp(-pi sinh t)), whose error squares as the step halves for an integrand
smooth inside the support.  fn is called on arrays of nodes.

The rule's distances d = 1/(1 + exp(pi sinh t)) from the ends of (0, 1) and
its weights depend on the step alone, not on the law: they are constants of
the rule, built once at import for every step (_RULES, 150 KB in 0.14 ms),
and no law's nodes or values outlive a call.  Each step writes the law's
raw quantile forms at d (its _quantile and _isf, which take d unchecked
under the np.errstate the caller holds) into one array, its values and
weights into the next slice of one pair of buffers, and decides on its
sums, at most four, as Python floats.  Over the benchmark's certify workload's
quadrature (five generators, four laws, the three moment functions) that
took a pass from 11.7 to 7.1 ms, and kolmogorov_expectation(log,
lognormal:2:1, "quadrature") from 173 to 92 us (best of 30 and of 15 runs,
2-vCPU host), every outcome the same to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, Uniform, _central, _in_range, _standardize
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSlopeError,
    DivergenceError,
    DomainError,
    InvalidParameterError,
)
from .generators import Generator, _at, _real_array, _require_instance, _vectorized, require_count

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

_METHODS = ("auto", "closed_form", "quadrature")


@dataclass(frozen=True)
class GMoments:
    """First four moments of g(X): mean, variance, skewness, excess
    kurtosis, plus how they were computed."""

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

_STEP = 0.125        # the first step h of the rule
_HALVINGS = 7        # halvings of h before ConvergenceError
_T_END = 6.1         # the last node: d = 1/(1 + exp(pi sinh 6.1)) ~ 1e-304
_RTOL = 1e-11        # agreement of two steps, relative to sum(w |term|)
_DIVERGES = -(1.0 - 1e-3)  # a tail slope at or below this is not integrable


def _rule(level: int) -> tuple:
    """(d, w) for the nodes that the rule of step h = _STEP / 2**level adds
    to the rule of step 2h (all of them at level 0): their distances d =
    1/(1 + exp(pi sinh t)) from an end of (0, 1), and their weights w/h at
    the lower end, then at the upper end, where t = 0 is not repeated."""
    first = level == 0
    h = _STEP * 0.5 ** level
    t = np.arange(0 if first else 1, int(_T_END / h) + 1, 1 if first else 2) * h
    d = 1.0 / (1.0 + np.exp(np.pi * np.sinh(t)))
    w = np.pi * np.cosh(t) * d * (1.0 - d)
    w = np.concatenate([w, w[int(first):]])
    d.flags.writeable = w.flags.writeable = False
    return d, w


# the rule's tables, read-only (see the module docstring): a law's quantile
# is given them as its argument
_RULES = tuple(_rule(level) for level in range(_HALVINGS + 1))
_NODES = sum(w.size for _, w in _RULES)  # nodes of all steps together
_PROBES = np.array([1e-54, 1e-60])  # _tail_slope's distances from the ends
_PROBES.flags.writeable = False
_PROBE_SPAN = math.log(1e-60 / 1e-54)


def _nodes(dist, d: np.ndarray, skip: int = 0) -> np.ndarray:
    """Q(d), then Q(1 - d[skip:]), in one array: the points of quantile
    space at distances d from the lower and from the upper end of (0, 1).
    Held as d itself, since quantile(1 - d) rounds to the end for tiny d.
    The law's raw forms take the rule's d, which lie in (0, 1), unchecked;
    the caller holds np.errstate(all="ignore") for an overflowing one."""
    x = np.empty(2 * d.size - skip)
    x[:d.size] = dist._quantile(d)
    x[d.size:] = dist._isf(d[skip:])
    return x


def _tail_slope(dist, fn) -> float:
    """The smaller of the log-log slopes of |fn(Q(u))| against u as u -> 0,
    Q being dist._quantile at the lower end and dist._isf at the upper:
    fn(Q(u)) ~ u**slope there, not integrable at slope -1 or below.  The
    probes are u = 1e-54 and 1e-60.  A value that is not finite at a probe
    (an overflow) gives -inf; one that vanishes gives 0."""
    h = np.abs(_vectorized(fn, _nodes(dist, _PROBES), "fn")).tolist()
    return min(-math.inf if not (math.isfinite(a) and math.isfinite(b)) else
               0.0 if a == 0.0 or b == 0.0 else
               (math.log(b) - math.log(a)) / _PROBE_SPAN
               for a, b in (h[:2], h[2:]))


def _moments(dist, fn, order: int) -> tuple:
    """The mean of fn(X) and its central moments of orders 2 to ``order``,
    all from one evaluation of fn per step: raw moments lose digits to
    cancellation.  The step halves from 1/8 until every sum agrees with the
    previous step's to _RTOL of its sum of |terms|; ConvergenceError after
    _HALVINGS halvings, or at once for a tail so heavy (a slope of about
    -0.95 or below) that the nodes do not reach where it fades.  A node
    whose quantile rounds onto an end of dist.support, where fn is not
    finite, carries no mass: the tail screen has shown the integrand
    integrable there.  The values and weights of every step so far sit in
    one pair of buffers, each step filling the next slice.  The sums, at
    most four, are decided on as Python floats."""
    support = dist.support  # a property that builds an Interval on some laws
    y, w = np.empty(_NODES), np.empty(_NODES)
    h, n, last = _STEP, 0, None
    for level, (d, ws) in enumerate(_RULES):
        xs = _nodes(dist, d, int(level == 0))  # t = 0 is one node, not two
        ys = _vectorized(fn, xs, "fn")
        m, n = n, n + xs.size
        y[m:n], w[m:n] = ys, ws
        finite = np.isfinite(ys)
        if not np.logical_and.reduce(finite):
            void = (xs == support.lo) | (xs == support.hi)
            void &= ~finite
            y[m:n][void] = w[m:n][void] = 0.0
        terms = np.empty((order, n))
        np.multiply(w[:n], y[:n], out=terms[0])
        mean = h * np.add.reduce(terms[0])
        for row, k in zip(terms[1:], range(2, order + 1)):
            np.subtract(y[:n], mean, out=row)
            np.power(row, k, out=row)
            np.multiply(w[:n], row, out=row)
        size = np.abs(terms)
        sums = [h * s for s in np.add.reduce(terms, axis=1).tolist()]
        scale = [h * s for s in np.add.reduce(size, axis=1).tolist()]
        if not all(map(math.isfinite, scale)):
            raise ConvergenceError("quadrature produced a non-finite value")
        # past the screen, the tail beyond the first step's outermost nodes
        # (t = -6 and 6) is at most about 1.6 times their term: a term there
        # that is not negligible is a tail the rule would cut off
        if level == 0 and any(max(ends) > _RTOL * c
                              for ends, c in zip(size[:, [n // 2, -1]].tolist(), scale)):
            raise ConvergenceError("the integrand is not negligible at the rule's last nodes")
        if last is not None and all(abs(s - t) <= _RTOL * c
                                    for s, t, c in zip(sums, last, scale)):
            return tuple(sums)
        h, last = 0.5 * h, sums
    raise ConvergenceError(f"quadrature did not converge in {_HALVINGS} halvings of the step")


def expect(dist, fn) -> float:
    """E[fn(X)] by tanh-sinh quadrature in quantile space, the one rule for
    every law; dist that is not one of the four laws is
    InvalidParameterError, as in g_moments.

    fn must be vectorized: it is called on arrays of nodes, and a
    scalar-only fn is ConfigurationError.  The rule converges double
    exponentially for an integrand that is smooth inside the support; a
    kink, as in a piecewise fn, is ConvergenceError, not a value.  A
    tail-exponent screen runs first and raises DivergenceError for an
    integrand that one end of the quantile space cannot absorb.
    """
    _require_instance(dist, DistributionModel, "dist", "a distribution model")
    # float errors are values here: overflow is the tail screen's divergence
    # signal and a non-finite sum is ConvergenceError, underflow a zero, so
    # a caller's np.errstate leaves the result as it is
    with np.errstate(all="ignore"):
        if _tail_slope(dist, fn) <= _DIVERGES:
            raise DivergenceError(f"E[fn(X)] diverges for {dist.spec!r}")
        return _moments(dist, fn, 1)[0]


# ---------------------------------------------------------------------------
# Closed-form dispatch

def _closed_g_raw(g: Generator, dist, k: int) -> float:
    """E[g(X)**k] in closed form; math.inf when divergent.  Every
    distribution has an mgf closed form at t = k > 0.  Log is here for a
    Uniform, whose moments of ln X come from raw ones; _g_stats takes the
    other laws' log_moments."""
    if g.kind == "log":
        return dist._log_raw(k)
    if g.kind == "exp":
        return dist.mgf(float(k))
    # identity, reciprocal and power: E[X**(p k)] with p = 1, -1 and param
    return dist.power_moment({"identity": 1.0, "reciprocal": -1.0}.get(g.kind, g.param) * k)


def _resolve_method(g: Generator, method: str) -> str:
    # every distribution has closed forms for every built-in generator kind
    _require_instance(g, Generator, "g", "a Generator")
    if method not in _METHODS:
        raise InvalidParameterError(f"method must be one of {_METHODS}, got {method!r}")
    if g.kind != "custom":
        return "closed_form" if method == "auto" else method
    if method == "closed_form":
        raise ConfigurationError(f"no closed forms for custom generator {g.name!r}")
    return "quadrature" if method == "auto" else method


def _require_support(g: Generator, dist, sampled: bool = False) -> None:
    """DomainError "support of <dist> is not inside the domain of generator
    <g>" unless dist.support lies inside the closure of g's domain, where
    g(X) is defined almost surely.  sampled, for draws of dist, asks more:
    an end the sampler can return (dist._attains_lo) inside the open
    domain."""
    dom, sup = g.domain, dist.support
    if not (dom.lo <= sup.lo and sup.hi <= dom.hi) or (
            sampled and sup.lo == dom.lo and dist._attains_lo):
        raise DomainError(
            f"support of {dist.spec!r} is not inside the domain of generator {g.name!r}")


def _g_stats(g: Generator, dist, how: str, order: int) -> tuple:
    """The first ``order`` (1, 2 or 4) of (mean, variance, skewness, excess
    kurtosis) of g(X), from closed forms or by quadrature (``how``, one of
    _resolve_method's answers).

    A support that leaves the closure of g's domain is DomainError
    (_require_support) before either runs, so both answer it alike.
    Raises DivergenceError naming the first raw moment E[g(X)**k] that
    diverges.  A strictly monotone g of a continuous X has a positive
    variance and fourth central moment, and exp(X) a positive mean: on every
    path each that is asked for goes through distributions._in_range, so
    one lost to cancellation or underflow is NumericError, not a zero
    variance with NaN shape.
    """
    _require_instance(dist, DistributionModel, "dist", "a distribution model")
    _require_support(g, dist)
    where = _pair_words(g, dist)
    if how == "closed_form" and g.kind == "log" and not isinstance(dist, Uniform):
        # ln X's shape is the law's own closed form, not a quotient of
        # central moments: the variance is the one to rule on
        stats = dist.log_moments()[:order]
        return _standardize(stats[0], stats[1:2], "g(X)", where) + stats[2:]
    if how == "quadrature":
        with np.errstate(all="ignore"):  # as in expect
            slope = _tail_slope(dist, g.forward)
            for k in range(1, order + 1):
                if k * slope <= _DIVERGES:  # |g**k| has k times the slope of |g|
                    raise _divergent(g, dist, k)
            mean, *central = _moments(dist, g.forward, order)
    else:
        raws = []
        for k in range(1, order + 1):
            r = _closed_g_raw(g, dist, k)
            if math.isinf(r):
                raise _divergent(g, dist, k)
            raws.append(r)
        mean, central = _central(raws)
    if g.kind == "exp":
        _in_range(lambda: mean, lambda: "E[g(X)]", where)
    return _standardize(mean, central, "g(X)", where)


def _divergent(g: Generator, dist, k: int) -> DivergenceError:
    return DivergenceError(f"E[g(X)**{k}] diverges for {_pair_words(g, dist)()}")


def _pair_words(g: Generator, dist):
    """A function that words the pair for an error (see
    distributions._in_range): a law's spec takes microseconds to write."""
    return lambda: f"g={g.name!r}, dist={dist.spec!r}"


def _eg(g: Generator, mean_g: float, where) -> float:
    """E_g = g_inv(mean_g) as a float; one beyond the float range is
    NumericError by the rule of distributions._in_range.  The inverse runs
    as generators._at runs a callable at one value (a custom one on a
    one-value array, checked, and the library's own on a numpy float), with
    float errors ignored, whatever np.errstate the caller holds: a division
    by zero or an overflow gives inf there, where a Python float raises
    ZeroDivisionError or OverflowError."""
    with np.errstate(all="ignore"):
        return _in_range(lambda: _at(g.inverse, mean_g, "inverse", g.name), lambda: "E_g", where,
                         positive=False)


def kolmogorov_expectation(g: Generator, dist, method: str = "auto") -> float:
    """E_g(X) = g_inv(E[g(X)]).

    Closed forms (when the distribution provides the needed moment):
    identity -> E[X]; log -> exp(E[ln X]); reciprocal -> 1/E[1/X];
    power p -> E[X**p]**(1/p); exp -> ln E[exp X].  Raises DivergenceError
    when E[g(X)] diverges, and NumericError when E_g is beyond the float
    range though E[g(X)] is not.
    """
    (mean_g,) = _g_stats(g, dist, _resolve_method(g, method), 1)
    return _eg(g, mean_g, _pair_words(g, dist))


def g_moments(g: Generator, dist, method: str = "auto") -> GMoments:
    """Mean, variance, skewness, and excess kurtosis of g(X).

    Divergent moments raise DivergenceError naming the offending order.  A
    moment that is not a usable float is NumericError, a variance or fourth
    central moment lost to cancellation or underflow included: no zero
    variance with NaN skewness and kurtosis.
    """
    how = _resolve_method(g, method)
    return GMoments(*_g_stats(g, dist, how, 4), how)


def asymptotic_variance(g: Generator, dist, method: str = "auto") -> AsymptoticSpec:
    """E_g(X), g'(E_g(X)), and var(g(X)) / g'(E_g(X))**2.  The limiting
    variance is positive for a strictly monotone g of a continuous X, so it
    goes through distributions._in_range: beyond the float range or below
    the smallest normal float it is NumericError.

    E_g and g' at E_g come under one range rule.  An E_g beyond the float
    range is NumericError (see kolmogorov_expectation).  g' runs at one
    value as the inverse does in _eg; a g' at E_g that is 0 or
    not finite is DegenerateSlopeError, or NumericError where E_g has
    underflowed: to a subnormal, or to 0 off the domain of g."""
    where = _pair_words(g, dist)
    mean_g, var_g = _g_stats(g, dist, _resolve_method(g, method), 2)
    eg = _eg(g, mean_g, where)
    with np.errstate(all="ignore"):
        gp = _at(g.derivative, eg, "derivative", g.name)
    if not math.isfinite(gp) or gp == 0.0:
        if eg != 0.0 or not g.domain.lo < 0.0 < g.domain.hi:
            # the slope of the rounding, not of g: "underflows" by the one rule
            _in_range(lambda: abs(eg), lambda: "E_g", where)
        raise DegenerateSlopeError(f"g'(E_g) = {gp} for generator {g.name!r}")
    # gp * gp is below the normal range, where it has lost digits (or is 0),
    # just when |gp| < 2**-511: divide by gp twice there
    asym_var = _in_range(
        lambda: var_g / (gp * gp) if abs(gp) >= 2.0 ** -511 else var_g / gp / gp,
        lambda: "the limiting variance", where)
    return AsymptoticSpec(eg=eg, gprime_at_eg=gp, asym_var=asym_var)


# ---------------------------------------------------------------------------
# Points, as phi_cdf, phi_pdf, the Edgeworth terms and the empirical CDF take them

def _real_points(x, owner: str) -> tuple[np.ndarray, float]:
    """x as a float array and its least value (inf for no value).  Values
    that are not real numbers are InvalidParameterError (generators.
    _real_array) and a NaN is DomainError, naming owner.  The NaN check is
    the one min reduction, whose value callers reuse."""
    arr = _real_array(x, owner)
    lo = float(np.min(arr, initial=math.inf))  # NaN propagates through min
    if math.isnan(lo):
        raise DomainError(f"{owner} got a NaN value")
    return arr, lo


# ---------------------------------------------------------------------------
# The standard normal CDF
#
# fdlibm's erfc (s_erf.c, Sun Microsystems, 1993), on whole arrays.  |a| is
# cut into four regions, each with its own rational form, as in fdlibm:
# below 0.84375 erf(a) = a + a P(a^2)/Q(a^2); up to 1.25 erf(a) = erx +
# P(s)/Q(s), s = |a| - 1; beyond, erfc(|a|) = exp(-a^2 - 0.5625 + R(s)/S(s))
# / |a| with s = 1/a^2, one form up to 1/0.35 and one beyond.  Each form is
# a pair of coefficient tuples, numerator and denominator, highest order
# first, each evaluated by Horner's rule in place, as fdlibm orders it.

def _rational(p, q) -> tuple:
    """The form p(s)/q(s), p and q given lowest order first as in fdlibm."""
    return tuple(p[::-1]), tuple(q[::-1])


_ERX = 8.45062911510467529297e-01
_ERF_SMALL = _rational(
    (1.28379167095512558561e-01, -3.25042107247001499370e-01, -2.84817495755985104766e-02,
     -5.77027029648944159157e-03, -2.37630166566501626084e-05),
    (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02, 5.08130628187576562776e-03,
     1.32494738004321644526e-04, -3.96022827877536812320e-06))
_ERF_NEAR_ONE = _rational(
    (-2.36211856075265944077e-03, 4.14856118683748331666e-01, -3.72207876035701323847e-01,
     3.18346619901161753674e-01, -1.10894694282396677476e-01, 3.54783043256182359371e-02,
     -2.16637559486879084300e-03),
    (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01, 7.18286544141962662868e-02,
     1.26171219808761642112e-01, 1.36370839120290507362e-02, 1.19844998467991074170e-02))
_ERFC_MID = _rational(
    (-9.86494403484714822705e-03, -6.93858572707181764372e-01, -1.05586262253232909814e+01,
     -6.23753324503260060396e+01, -1.62396669462573470355e+02, -1.84605092906711035994e+02,
     -8.12874355063065934246e+01, -9.81432934416914548592e+00),
    (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02, 4.34565877475229228821e+02,
     6.45387271733267880336e+02, 4.29008140027567833386e+02, 1.08635005541779435134e+02,
     6.57024977031928170135e+00, -6.04244152148580987438e-02))
_ERFC_FAR = _rational(
    (-9.86494292470009928597e-03, -7.99283237680523006574e-01, -1.77579549177547519889e+01,
     -1.60636384855821916062e+02, -6.37566443368389627722e+02, -1.02509513161107724954e+03,
     -4.83519191608651397019e+02),
    (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02, 1.53672958608443695994e+03,
     3.19985821950859553908e+03, 2.55305040643316442583e+03, 4.74528541206955367215e+02,
     -2.24409524465858183362e+01))
# the region ends, exact in binary: 1/0.35 is the double 0x4006DB6D00000000,
# and from 28 on erfc is 0 (2 below -28)
_ERFC_CUTS = (0.84375, 1.25, float.fromhex("0x1.6db6dp+1"), 28.0)
# where a sorted array crosses them, and 1/4, by one left-sided search:
# a <= -c is a < nextafter(-c, inf), |a| >= c below zero
_ERFC_EDGES = np.array([np.nextafter(-c, np.inf) for c in _ERFC_CUTS[2::-1]]
                       + [0.25, *_ERFC_CUTS[:3]])
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)


def _ratio(form: tuple, s: np.ndarray, out=None) -> np.ndarray:
    """p(s)/q(s) for a _rational form, into out (the numerator's array if
    None)."""
    num, den = (_horner(c, s) for c in form)
    return np.divide(num, den, out=num if out is None else out)


def _horner(c: tuple, s: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients c (highest order first) at s, by
    Horner's rule in one new array.  A numerator and a denominator run
    apart: numpy broadcasts a (2, 1) column of coefficients over a (2, m)
    buffer several times slower up to m of about 4096."""
    acc = np.multiply(s, c[0])
    for k in c[1:-1]:
        np.add(acc, k, out=acc)
        np.multiply(acc, s, out=acc)
    return np.add(acc, c[-1], out=acc)


def _erfc_sorted(a: np.ndarray, flip: bool) -> None:
    """erfc of the sorted 1-D array a, in place; a is descending when flip.
    Each region is a slice of a, or mirrored slices taken as one array of
    |a|: erfc(-t) = 2 - erfc(t)."""
    n = a.size
    up = a[::-1] if flip else a  # ascending; searchsorted only probes it
    i0, i1, i2, i3, i4, i5, i6 = np.searchsorted(up, _ERFC_EDGES).tolist()

    def part(i, j):
        """The slice of a that holds up[i:j]."""
        return slice(n - j, n - i) if flip else slice(i, j)

    if i2 > i1 or i5 > i4:  # |a| up to 1.25: erf(|a|) = erx + P(s)/Q(s), s = |a| - 1
        k = i2 - i1
        t = np.concatenate((a[part(i1, i2)], a[part(i4, i5)]))
        np.abs(t, out=t)
        pq = _ratio(_ERF_NEAR_ONE, np.subtract(t, 1.0, out=t))
        np.subtract(1.0 - _ERX, pq[k:], out=a[part(i4, i5)])
        np.add(1.0, np.add(_ERX, pq[:k], out=pq[:k]), out=a[part(i1, i2)])
    # the tails, |a| >= 1.25, in one pass: the two forms below 1/0.35 first,
    # below zero first within each form
    pieces = ((i0, i1, True), (i5, i6, False), (0, i0, True), (i6, n, False))
    if i1 > 0 or i5 < n:
        t = np.concatenate([a[part(i, j)] for i, j, _ in pieces])
        np.abs(t, out=t)
        np.minimum(t, _ERFC_CUTS[3], out=t)  # erfc is 0 from 28 on; inf would give NaN
        s = np.multiply(t, t)
        np.divide(1.0, s, out=s)
        rs, m = np.empty_like(t), i1 - i0 + i6 - i5
        for form, span in ((_ERFC_MID, slice(0, m)), (_ERFC_FAR, slice(m, t.size))):
            if span.stop > span.start:
                _ratio(form, s[span], rs[span])
        # exp(-t^2) as exp(-z^2 - 0.5625) exp((z - t)(z + t) + R/S), z being t
        # with the low 32 bits of its significand zeroed, so z^2 is exact
        z = np.bitwise_and(t.view(np.uint64), _HIGH_WORD).view(np.float64)
        d = np.subtract(z, t)
        np.multiply(d, np.add(z, t, out=s), out=d)
        np.add(d, rs, out=d)
        np.exp(d, out=d)
        np.multiply(z, z, out=z)
        np.subtract(-0.5625, z, out=z)  # -z*z - 0.5625
        np.exp(z, out=z)
        np.multiply(z, d, out=z)
        r = np.divide(z, t, out=t)
        start = 0
        for i, j, below_zero in pieces:
            piece, start = r[start:start + j - i], start + j - i
            if below_zero:
                np.subtract(2.0, piece, out=a[part(i, j)])
            else:
                a[part(i, j)] = piece
    # |a| < 0.84375: erf(a) = a + a y, in two halves, each with its own last
    # step and half the scratch
    for lo, hi, below in ((i2, i3, True), (i3, i4, False)):
        if hi > lo:
            x = a[part(lo, hi)]
            z = np.multiply(x, x)
            y = _ratio(_ERF_SMALL, z)
            xy = np.multiply(x, y, out=z)
            if below:  # below 1/4: 1 - (a + a y)
                np.add(x, xy, out=xy)
                np.subtract(1.0, xy, out=x)
            else:  # 1/2 - (a y + (a - 1/2))
                np.add(xy, np.subtract(x, 0.5, out=y), out=xy)
                np.subtract(0.5, xy, out=x)


def _erfc(a: np.ndarray) -> None:
    """erfc of the 1-D float array a, in place, by fdlibm's forms on whole
    arrays.  A sorted a (either way) is cut into slices; any other order is
    sorted first and the values put back.  It underflows to 0 in the far
    tail: callers run it under np.errstate(all="ignore")."""
    flip = a.size > 1 and a[0] > a[-1]
    if np.all(a[:-1] >= a[1:]) if flip else np.all(a[:-1] <= a[1:]):
        _erfc_sorted(a, flip)
    else:  # unsorted, or holding a NaN, which sorts last
        order = np.argsort(a)
        ordered = a[order]
        _erfc_sorted(ordered, False)
        a[order] = ordered


def phi_cdf(x):
    """Standard normal CDF, 0.5 erfc(-x/sqrt(2)), with erfc the numpy port
    of fdlibm's s_erf.c above (Sun Microsystems, 1993; the forms of Cody,
    Math. Comp. 23, 1969).  On 10 million random points of [-40, 40], both
    tails included, it was within 4 ulp of 0.5 math.erfc(-x/sqrt(2)), with
    the C library's (glibc) erfc; scipy's is up to about 500 ulp off that
    above 6.  It is 0 and 1 at -inf and inf.  A value that is not a real
    number is InvalidParameterError and a NaN is DomainError."""
    xa, _ = _real_points(x, "phi_cdf")
    out = np.negative(xa, out=np.empty(xa.shape)).ravel()
    # underflow is a value here (a subnormal x, a tail beyond 1e-308), so a
    # caller's np.errstate leaves the result as it is
    with np.errstate(all="ignore"):
        np.divide(out, _SQRT2, out=out)
        _erfc(out)
        np.multiply(out, 0.5, out=out)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(xa.shape)


# ---------------------------------------------------------------------------
# Edgeworth expansion
#
# The arrays here are filled by ufuncs writing into buffers (out=), in the
# order of operations of the plain formulas, so the bits are theirs: an
# Edgeworth CDF takes five fresh arrays besides Phi, where the plain
# operators made thirty temporaries.  One formula, _expansion with
# _term_into, serves edgeworth_corrections and the CDF, which callers that
# already hold Phi(x) reach through _edgeworth_cdf.

def _pdf_from_square(x2, out):
    """phi at the points whose squares are x2, into out."""
    np.multiply(x2, -0.5, out=out)
    np.exp(out, out=out)
    return np.multiply(out, _INV_SQRT2PI, out=out)


def phi_pdf(x):
    """Standard normal density; a value that is not a real number is
    InvalidParameterError and a NaN is DomainError, as in phi_cdf."""
    xa, _ = _real_points(x, "phi_pdf")
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
    _require_instance(mom, GMoments, "mom", "a GMoments")
    if not (math.isfinite(mom.skew_g) and math.isfinite(mom.exkurt_g)):
        raise ConfigurationError("Edgeworth expansion needs finite skewness and kurtosis")
    xa, lo = _real_points(x, "Edgeworth expansion")
    hi = np.max(xa, initial=-math.inf)
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
    clamped to +-1e10, beyond which phi(x) is 0.  A value that is not a real
    number is InvalidParameterError and a NaN is DomainError.
    """
    xa, x2, w, terms = _expansion(x, n, mom)
    p = np.empty(xa.shape)
    out = tuple(_term_into(np.empty(xa.shape), p, *term, xa, x2, w) for term in terms)
    return tuple(float(c) for c in out) if np.ndim(x) == 0 else out


def _edgeworth_cdf(x, n: int, mom: GMoments, phi=None, scratch=None):
    """edgeworth_cdf, given phi = phi_cdf(x) where the caller holds it, and
    scratch, an array of x's shape that it may overwrite, where it has one."""
    xa, x2, w, terms = _expansion(x, n, mom)
    if phi is None:
        phi = phi_cdf(x)
    total, term = np.empty(xa.shape), np.empty(xa.shape)
    p = np.empty(xa.shape) if scratch is None else scratch
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

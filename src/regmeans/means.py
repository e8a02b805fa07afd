"""Quasi-arithmetic means and their defining properties.

The mean of a sample x1..xn under a generator g is

    M_g(x) = g_inv( (1/n) * sum g(xi) )

which specializes to the arithmetic, geometric, harmonic, power, and
exponential means for the built-in generators, each through one sample check
and one forward-sum-inverse kernel whose sum is correctly rounded (equal to
``math.fsum``); exp and power means are anchored where g cannot overflow,
at the maximum (the minimum for power_mean's p < 0) that the sample check
has already found, and a single sample's last step runs on floats.
``mean(power:p, x)`` and ``power_mean(p, x)`` take one path, which keeps
its digits near p = 0 through expm1 and log1p; ``row_means`` picks the same
branch row by row.
``check_axioms`` verifies the four characterizing properties numerically:
per-coordinate monotonicity, symmetry, idempotence on constant samples, and
invariance when a leading block is replaced by its own mean.  ``row_means``
is the batch form, one mean per row of a matrix, for the Monte Carlo path
and ``check_axioms``; its last step, ``means_from_sums``, is shared with the
stability certificates.  Floating-point underflow inside a mean is never an
error, whatever ``np.errstate`` the caller has set.

A short sample's mean pays for its arithmetic and little more.  The
callables of the built-in generators are the library's own
(``generators._OWNED``): they skip the shape check that a custom
generator's callables get on every call, and the inverse runs on a numpy
float instead of a one-value array (``generators._at``), its bits the same.
The domain check takes the min and max of a short sample from a list, and
``np.errstate`` is entered only where a float flag can arise (``_QUIET``,
and the range rule of ``_power_sample``).  Over 10 alternating
parent/change pairs of the benchmark's mean_requests (seeds 101-110, 2-vCPU
host) the p50 request went from 28.2 to 23.8 us, faster in 10 of 10; the
errstate rule alone is 26.5 to 23.8 us of it (6 of 6 pairs), and a log mean
of 8 values went from 8.8 to 4.8 us.

The sum of g(x) is correctly rounded: math.fsum below _FSUM_BELOW values,
and from there on Rump, Ogita and Oishi's error-free extraction
(``_exact_sum``), which needs an upper bound of max|g(x)|.  For the
built-in kinds that bound is read off the min and max the sample check has
already found (``_BOUNDS``, and below 2 for the ratios of a power mean far
from p = 0) instead of two reductions over g(x): a sum of 10**4 values went
from 32.2 to 27.2 us.  Custom generators and a power mean near p = 0 keep
the reductions.  fsum reads the array's buffer from _LIST_BELOW values on,
where building a list of floats costs more than reading them once: 2.4
against 1.8 us at 100 values; an unaligned array goes as a list, since
memoryview cannot read numpy's export of it.  Over 10 alternating
parent/change pairs of the benchmark's mean_requests (seeds 501-510, its
22 s runs, 2-vCPU host) ops_per_s went from 31 440 to 34 340, higher in 10
of 10 (parent interquartile range 800), and the p50 request from 23.7 to
22.2 us, lower in 10 of 10 (range 0.71).

Row extremes (the exp anchor, and the max and min that choose each power
row's branch) are folded column by column on a tall matrix
(``_row_extreme``): numpy's reduction along the last axis costs about 50 ns
a row on short rows, and the min that the power rows' branches added had
made ``check_axioms(power:2.0)`` 1.6 to 2.1 times as slow.  ``check_axioms``
takes the means of its A1-A3 samples in one ``row_means`` call, and at
n0 = n its A4 block mean is the base mean: two calls where there were six.
In the benchmark's certify workload the 15 axiom certificates went from a
median of 15.7 to 7.4 ms a pass (11.9 ms before the branches; 2-vCPU host),
every report equal.

Row sums are numpy's own, np.add.reduce along the rows, bit for bit
(``_row_sum``).  Below eight values numpy adds a row left to right onto
+0.0, so a tall matrix of such rows is summed in that order one column at
a time, where the reduction costs about 18 to 50 ns a row; from eight
values on numpy sums pairwise, and every matrix of such rows is reduced.
The n = 2 and n = 5 axiom certificates and the n = 5 Monte Carlo
scenarios take the fold; ``check_axioms`` went from 7.5 to 6.8 ms a pass
over the workload's 15 certificates (best of 7, 2-vCPU host).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, NumericError
from .generators import (_LIST_BELOW, Generator, Interval, _at, _real_array, _reciprocal,
                         _require_box, _require_instance, _require_real, _times_one, _vectorized,
                         make_builtin, require_count)

_EPS = float(np.finfo(float).eps)
_POSITIVE = Interval(0.0, math.inf)
_EXP = make_builtin("exp")
_OVERFLOW = "g(x), its sum or its mean is not finite on the sample"
_BELOW_TWO = math.nextafter(2.0, 0.0)

# Below this many values math.fsum (through the array's buffer) beats the
# extraction passes of _exact_sum.  Given a bound of max|v| the extraction
# ties fsum at 300-350 values and takes 6.9-7.1 us at 400 against fsum's
# 8.1-8.5; without one, as for custom generators, it ties near 450-500
# (lognormal, signed normal and exp-mean values, best of 15, 2-vCPU host).
# Moving the threshold to the bounded tie would speed under 2% of the
# benchmark's log-uniform request sizes by about 1 us, and slow the
# unbounded sums there, so it stays at 400.  Two passes empty typical data;
# what exponents spread over hundreds of binades leave after four goes to
# fsum.
_FSUM_BELOW = 400
_MAX_PASSES = 4

# A matrix at least this many times as tall as it is wide takes its row
# extremes column by column.  numpy's reduction along the last axis costs
# about 50 ns per row on short rows, a column about 1 us: 59 us on 1000 x 5
# rows against 5.8 us by columns, while 32 x 1000 takes 6.8 us along the
# rows against 385 us by columns (the two tie near 16 rows per column at
# 2**16 values).  check_axioms' matrices are tall; the Monte Carlo tasks of
# a power or exp generator at n = 1000 are 64 x 1000, where folding every
# matrix made run_scenario 1.5 times as slow (2-vCPU host, CHANGES.md).
_FOLD_RATIO = 32
# From this many values on, numpy sums a row pairwise with eight
# accumulators (numpy's pairwise_sum), an order a fold by columns does not
# keep; below it, a plain loop from +0.0, which it does.
_PAIRWISE_FROM = 8

__all__ = [
    "mean",
    "power_mean",
    "exp_mean_stable",
    "AxiomCheck",
    "AxiomReport",
    "check_axioms",
]


def _sample(x: Sequence[float] | np.ndarray, domain: Interval,
            owner: str) -> tuple[np.ndarray, float, float]:
    """(x, min x, max x), x as a nonempty 1-D float array with every value
    inside the open domain, else ConfigurationError (InvalidParameterError
    for values that are not real numbers, DomainError for NaN and
    infinities)."""
    arr = _real_array(x, owner)
    if arr.ndim != 1:
        if arr.ndim:
            raise ConfigurationError("sample must be one-dimensional")
        arr = arr.reshape(1)  # a bare number is a sample of one
    if arr.size == 0:
        raise ConfigurationError("sample must be nonempty")
    return (arr, *domain.require_interior(arr, owner))


def _exact_sum(v: np.ndarray, bound: float | None = None) -> float:
    """math.fsum(v): the correctly rounded sum of v, the same bits and the
    same OverflowError and ValueError, in a few vectorised passes.  bound,
    when given, is an upper bound of max|v|, finite only when v is: the
    caller's, read off the min and max of the sample, saves the two
    reductions that find max|v|.

    This is Rump, Ogita and Oishi's error-free extraction (Accurate
    floating-point summation I, SIAM J. Sci. Comput. 31, 2008).  With sigma
    a power of two above 2 n max|r|, q = (sigma + r) - sigma and r - q are
    exact, |r - q| <= 2**-53 sigma, and every q is a multiple of 2**-53 sigma
    no larger than sigma / n, so the sum of q is exact in any order.  Each
    pass moves about 53 - log2(2n) leading bits of every value into one
    exact partial sum; fsum rounds the partial sums and the short remainder
    once.  Below _FSUM_BELOW values, and when the bound is 0, inf or NaN or
    sigma would overflow, fsum sums v itself (_fsum).
    """
    if v.size < _FSUM_BELOW:
        return _fsum(v)
    mu = max(v.max(), -v.min()) if bound is None else bound
    e = math.frexp(mu)[1]  # max|v| < 2**e
    if not 0.0 < mu < math.inf or e + (2 * v.size - 1).bit_length() > 1023:
        return _fsum(v)
    r, parts = v, []
    while r.size >= _FSUM_BELOW and len(parts) < _MAX_PASSES:
        e += (2 * r.size - 1).bit_length()
        sigma = math.ldexp(1.0, e)
        q = r + sigma
        q -= sigma
        parts.append(np.add.reduce(q))
        r = r - q
        e -= 53  # now |r| <= 2**e
        if len(parts) > 1:  # after two passes few values have bits left
            r = r[r != 0.0]
    return math.fsum(parts + r.tolist())


def _fsum(v: np.ndarray) -> float:
    """math.fsum(v), which reads the array's buffer from _LIST_BELOW values
    on.  An unaligned view (a packed record field, a buffer at an odd
    offset) goes as a list: numpy exports it in a format memoryview cannot
    read."""
    return math.fsum(memoryview(v) if v.size >= _LIST_BELOW and v.flags.aligned
                     else v.tolist())


def _average(gx: np.ndarray, bound: float | None = None) -> float:
    """The mean of gx, its sum correctly rounded (equal to math.fsum), or
    NumericError if the sum is not finite; bound as _exact_sum takes it."""
    try:
        total = _exact_sum(gx, bound)
    except (OverflowError, ValueError):  # fsum raises on overflow and on inf - inf
        total = math.inf
    return _finite(total) / gx.size


def _finite(m: float) -> float:
    """m, or NumericError if it is not finite."""
    if not math.isfinite(m):
        raise NumericError(_OVERFLOW)
    return m


def _guarded(quiet: bool, step: Callable, *args):
    """step(*args) under np.errstate(all="ignore"), or without it when quiet,
    that is when no float flag can arise in step: entering np.errstate costs
    1 to 2 us, more than the arithmetic of a short sample."""
    if quiet:
        return step(*args)
    with np.errstate(all="ignore"):
        return step(*args)


# The built-in pairs of forward and inverse, by the identity of the forward,
# each with the floats (lo, hi) of the forward's argument on which neither
# step nor the sum can raise a float flag: x * 1.0 always; log, exp and 1 / x
# of a value, and of a mean of such values, away from the ends of the float
# range; exp of an exp mean's argument x - max x only from -700 on, where it
# cannot underflow.  Any other pair is guarded.
_QUIET = {id(fwd): (fwd, inv, lo, hi) for fwd, inv, lo, hi in (
    (_times_one, _times_one, -math.inf, math.inf), (np.log, np.exp, 1e-300, 1e300),
    (_reciprocal, _reciprocal, 1e-300, 1e300), (np.exp, np.log, -700.0, 700.0))}

# An upper bound of max|g(x)| for the built-in kinds, from the ends (a, b)
# of the forward's argument, finite only where every g(x) is: their
# forwards are monotone.  x * 1.0 is exact, and so is the bound; 1 / a is
# the same correctly rounded division, inf for a subnormal a, where fsum's
# error path takes over; numpy's log may differ from math's by an ulp, which
# the factor 1 + 2**-40 covers; an exp mean's argument x - max x is at most
# 0, and exp of it at most 1.
_BOUNDS = {
    "identity": lambda a, b: max(-a, b),
    "reciprocal": lambda a, b: 1.0 / a,
    "log": lambda a, b: max(-math.log(a), math.log(b)) * (1.0 + 2.0 ** -40),
    "exp": lambda a, b: 1.0,
}


def _kernel(g: Generator, x: np.ndarray, lo: float, hi: float) -> float:
    """M_g of a 1-D sample x with min lo and max hi, for every kind but
    power: g's inverse at the mean of g(x), its sum correctly rounded, or
    NumericError if a step is not finite.  Exp means are shift-equivariant,
    so they are taken relative to an anchor where g cannot overflow: the
    maximum hi."""
    c = hi if g.kind == "exp" else None
    a, b = (lo, hi) if c is None else (lo - hi, 0.0)
    fwd, inv, quiet_lo, quiet_hi = _QUIET.get(id(g.forward), (None,) * 4)
    # strict, so that an x - max x that overflows to -inf is guarded
    quiet = fwd is g.forward and inv is g.inverse and quiet_lo < a and b < quiet_hi
    bound = _BOUNDS[g.kind](a, b) if x.size >= _FSUM_BELOW and g.kind in _BOUNDS else None
    return _guarded(quiet, _forward_inverse, g, x, c, bound)


def _forward_inverse(g: Generator, x: np.ndarray, c: float | None,
                     bound: float | None) -> float:
    gx = _vectorized(g.forward, x if c is None else x - c, "forward", g.name)
    m = _finite(_at(g.inverse, _average(gx, bound), "inverse", g.name))
    return m if c is None else c + m


def _row_kernel(rows: np.ndarray, forward: Callable, inverse: Callable, name=None) -> np.ndarray:
    with np.errstate(all="ignore"):
        sums = _row_sum(_vectorized(forward, rows, "forward", name))
        return means_from_sums(inverse, sums, rows.shape[1], name)[1]


def _tall(rows: np.ndarray) -> bool:
    """Whether a 2-D array is folded column by column (see _FOLD_RATIO)."""
    return 0 < _FOLD_RATIO * rows.shape[1] <= rows.shape[0]


def _row_extreme(ufunc: np.ufunc, rows: np.ndarray) -> np.ndarray:
    """The maximum (ufunc np.maximum) or minimum (np.minimum) of every row
    of a 2-D array, as rows.max(axis=-1) or rows.min(axis=-1) give them,
    NaN and infinities included; only the sign of a zero may differ.  A
    tall matrix is folded column by column, any other reduced along its
    rows by the ufunc itself."""
    if _tall(rows):
        return functools.reduce(ufunc, rows.T)
    return ufunc.reduce(rows, axis=1)


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of every row of a 2-D array, np.add.reduce(rows, axis=1) bit
    for bit.  Below _PAIRWISE_FROM columns numpy adds a row's values left
    to right onto +0.0, so a tall matrix of such rows is summed in that
    order column by column; any other is reduced along its rows."""
    if rows.shape[1] < _PAIRWISE_FROM and _tall(rows):
        cols = rows.T
        acc = np.add(cols[0], 0.0)
        for col in cols[1:]:
            np.add(acc, col, out=acc)
        return acc
    return np.add.reduce(rows, axis=1)


def _anchored(g: Generator, rows: np.ndarray) -> np.ndarray:
    """M_g of every row for every kind but power, exp means anchored as in
    _kernel, at the maximum of each row."""
    if g.kind != "exp":
        return _row_kernel(rows, g.forward, g.inverse, g.name)
    c = _row_extreme(np.maximum, rows)
    return c + _row_kernel(rows, lambda t: g.forward(t - c[:, None]), g.inverse, g.name)


def _power(p: float, logs: np.ndarray, c: np.ndarray, log_c: np.ndarray) -> np.ndarray:
    """M_p(x) = c * M_p(x / c) of every row of logs = log x, with c the
    anchor (the maximum, or the minimum for p < 0) and log_c = log c, as
    _power_sample takes it of one sample: every branch of its tail computed
    and one kept."""
    r = _row_kernel(logs, lambda t: np.exp(p * (t - log_c[:, None])), lambda y: np.log(y) / p)
    with np.errstate(all="ignore"):  # the branch not kept may leave the float range
        return np.where(np.abs(r) < 700.0, c * np.exp(np.minimum(r, 700.0)), np.exp(log_c + r))


def mean(g: Generator, x: Sequence[float] | np.ndarray) -> float:
    """The quasi-arithmetic mean of x under generator g.

    The sum of g(x) is correctly rounded (equal to math.fsum), so the result
    is exactly permutation-invariant, and it is clipped into
    [min(x), max(x)], which a last step of exp can leave by |log x| ulp.
    Raises ConfigurationError unless x is a nonempty flat sequence of
    numbers, DomainError if any value (NaN and infinities too) is outside the
    generator's domain, and NumericError if g, its sum or the mean is not
    finite on the sample.
    """
    _require_instance(g, Generator, "g", "a Generator")
    arr, lo, hi = _sample(x, g.domain, f"generator {g.name!r}")
    if arr.size == 1:
        return float(arr[0])
    m = _power_sample(g.param, arr, lo, hi) if g.kind == "power" else _kernel(g, arr, lo, hi)
    return min(max(m, lo), hi)


def row_means(g: Generator, rows: np.ndarray) -> np.ndarray:
    """M_g of every row of a 2-D array, with mean's domain check, anchoring
    and NumericError, but summed in numpy's order (np.add.reduce along the
    rows) instead of math.fsum: it agrees with ``mean`` to rounding rather
    than bit for bit."""
    g.domain.require_interior(rows, f"generator {g.name!r}")
    return row_means_in_domain(g, rows)


def row_means_in_domain(g: Generator, rows: np.ndarray) -> np.ndarray:
    """row_means for rows whose values the caller has already found inside
    g's domain.  Each row's value depends on that row alone."""
    if g.kind == "power":
        return _power_rows(g.param, rows)
    return _anchored(g, rows)


def means_from_sums(inverse: Callable, sums: np.ndarray, n: int,
                    name: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(sums / n, inverse(sums / n)) for per-row sums of g over n values,
    the inverse through _vectorized, named as generator name's.

    Raises NumericError when a sum or a mean is not finite, that is when g or
    its inverse overflowed.  Callers hold np.errstate(all="ignore").
    """
    if not np.logical_and.reduce(np.isfinite(sums), axis=None):
        raise NumericError(_OVERFLOW)
    avg = sums / n
    m = _vectorized(inverse, avg, "inverse", name)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise NumericError(_OVERFLOW)
    return avg, m


def power_mean(p: float, x: Sequence[float] | np.ndarray) -> float:
    """The power mean ((1/n) sum xi**p)**(1/p) of positive values, p finite.

    p = 0 returns the geometric mean (the continuous limit), and so does an
    exponent too small for x**p to differ from 1 on the sample.  Like mean,
    the result is clipped into [min(x), max(x)].
    """
    if not math.isfinite(_require_real(p, "p")):
        raise InvalidParameterError(f"power mean needs a finite exponent, got {p}")
    arr, lo, hi = _sample(x, _POSITIVE, "power mean")
    return min(max(_power_sample(p, arr, lo, hi), lo), hi)


def _power_sample(p: float, arr: np.ndarray, lo: float, hi: float) -> float:
    """M_p of a 1-D sample arr of positive values with min lo and max hi,
    the one path of mean(power:p) and power_mean(p), before the clip into
    [lo, hi] that every branch needs, as each ends in exp.

    Far from p = 0 it is c * M_p(x / c), with c the anchor (the maximum, or
    the minimum for p < 0).  x / c and M / c go through the logs: on a
    sample that spans more than the float range they leave it.
    """
    logs = np.log(arr)
    # floats, whose products underflow silently under any np.errstate
    log_lo, log_hi = math.log(lo), math.log(hi)
    top = abs(p) * max(-log_lo, log_hi)  # max |log x|
    # no float flag can arise away from the ends of the float range while
    # x**p / c**p stays above e**-700; 1e-9 covers the last bits in which
    # numpy's logs may differ from math's
    quiet = 1e-300 <= lo and hi <= 1e300 and abs(p) * (log_hi - log_lo + 1e-9) < 700.0
    if top < _EPS:
        return _guarded(quiet, _own_kernel, logs, *_FLAT)
    if top < 0.1:
        return _guarded(quiet, _own_kernel, logs, *_near_zero(p))
    c, log_c = (hi, log_hi) if p > 0 else (lo, log_lo)
    # x**p / c**p = exp(p (log x - log c)) is at most 1 but for the ulp or
    # two by which numpy's log x may exceed math's log c; p times that is
    # at most 2**-51 top, so every ratio is below 2 while top < 2**50
    bound = _BELOW_TWO if arr.size >= _FSUM_BELOW and top < 2.0 ** 50 else None
    r = _guarded(quiet, _far_ratio, p, logs, log_c, bound)
    if abs(r) < 700.0:
        return c * float(np.exp(r))
    with np.errstate(under="ignore"):  # the mean may be subnormal
        return float(np.exp(log_c + r))


def _own_kernel(values: np.ndarray, forward: Callable, inverse: Callable,
                bound: float | None = None) -> float:
    """inverse(mean of forward(values)) for the means' own callables, which
    are called directly, the inverse on a numpy float; NumericError if a
    step is not finite.  bound, if given, bounds max|forward(values)|."""
    return _finite(float(inverse(np.float64(_average(forward(values), bound)))))


def _far_ratio(p: float, logs: np.ndarray, log_c: float, bound: float | None) -> float:
    """log(M_p / c) from logs = log x and log_c = log c, where x**p / c**p
    = exp(p * (log x - log c)) is computed in place of logs."""
    logs -= log_c
    logs *= p
    return _own_kernel(logs, _exp_in_place, lambda y: np.log(y) / p, bound)


def _exp_in_place(u: np.ndarray) -> np.ndarray:
    return np.exp(u, out=u)


# x**p is within an ulp of 1 for every x (|p log x| < eps): only the p -> 0
# limit, the geometric mean, is resolvable, and dividing an underflowed sum
# by p cannot recover it.  Forward and inverse act on log x.
_FLAT = ((lambda t: t), np.exp)


def _near_zero(p: float) -> tuple[Callable, Callable]:
    """Forward and inverse on log x of a power mean near p = 0 (|p log x|
    below 0.1), where the mean of x**p rounds to about 1 and loses the O(p)
    signal; expm1/log1p keeps full relative precision."""
    return (lambda t: np.expm1(p * t)), (lambda y: np.exp(np.log1p(y) / p))


def _power_rows(p: float, rows: np.ndarray) -> np.ndarray:
    """M_p of every row of positive values, p > 0: each row takes the
    branch of _power_sample that its own min and max choose."""
    c = _row_extreme(np.maximum, rows)
    logs, log_c = np.log(rows), np.log(c)
    with np.errstate(over="ignore"):  # a huge p is far from 0 at inf
        top = p * np.maximum(-np.log(_row_extreme(np.minimum, rows)), log_c)
    # every row through the far branch, which is finite on the others too
    # (x**p / c**p lies within exp(+-0.2) there), then those rows again
    # through their own
    m = _power(p, logs, c, log_c)
    for pick, fns in ((top < _EPS, _FLAT), ((top >= _EPS) & (top < 0.1), _near_zero(p))):
        if pick.any():
            m[pick] = _row_kernel(logs[pick], *fns)
    return m


def exp_mean_stable(x: Sequence[float] | np.ndarray) -> float:
    """log((1/n) sum exp(xi)), the exponential mean, clipped into
    [min(x), max(x)]; it never overflows for finite inputs."""
    arr, lo, hi = _sample(x, _EXP.domain, "exponential mean")
    return min(max(_kernel(_EXP, arr, lo, hi), lo), hi)


class AxiomCheck(NamedTuple):
    passed: bool
    worst_violation: float


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the four mean axioms over randomized trials.

    worst_violation is the largest observed defect; it is <= tolerance
    whenever the corresponding flag is True (for the monotonicity check a
    negative value is the margin by which strictness held).
    """

    a1_monotone: AxiomCheck
    a2_symmetric: AxiomCheck
    a3_idempotent: AxiomCheck
    a4_replacement: AxiomCheck
    trials: int
    tolerance: float

    @property
    def all_passed(self) -> bool:
        return (self.a1_monotone.passed and self.a2_symmetric.passed
                and self.a3_idempotent.passed and self.a4_replacement.passed)

    def as_dict(self) -> dict:
        d = asdict(self)
        for key in ("a1_monotone", "a2_symmetric", "a3_idempotent", "a4_replacement"):
            passed, worst = d[key]
            d[key] = {"passed": bool(passed), "worst_violation": float(worst)}
        d["all_passed"] = self.all_passed
        return d


def _default_box(g: Generator) -> Interval:
    # Compact sub-box of the domain; modest scales keep exp/power tame.
    if g.domain.lo == -math.inf:
        return Interval(-2.0, 2.0)
    return Interval(0.5, 2.0)


def check_axioms(g: Generator, n: int, n0: int | None = None, trials: int = 1000,
                 tol: float = 1e-9, rng_seed: int = 0,
                 box: Interval | None = None) -> AxiomReport:
    """Verify the four mean axioms on random samples from a compact box.

    A1: the mean strictly increases when one coordinate is perturbed by
        +1e-4*(box width).
    A2: the mean is invariant under a random permutation, within tol.
    A3: the mean of a constant sample is that constant, within tol.
    A4: replacing the first n0 coordinates by their own mean leaves the
        overall mean unchanged, within tol.  At the default n0 = n that is
        idempotence on the constant rows of the base means.

    Failures are recorded in the report, never raised; a generator that
    overflows on the box raises NumericError.  A box must lie inside the
    domain (DomainError) and be finite (else InvalidParameterError).
    """
    _require_instance(g, Generator, "g", "a Generator")
    n = require_count(n, "n", 1)
    n0 = n if n0 is None else require_count(n0, "n0", 1)
    if n0 > n:
        raise InvalidParameterError(f"n0 must satisfy 1 <= n0 <= n, got n0={n0}, n={n}")
    trials = require_count(trials, "trials", 1)
    rng_seed = require_count(rng_seed, "rng_seed", 0)
    if not 0.0 <= _require_real(tol, "tol") < math.inf:
        raise InvalidParameterError(f"tol must be finite and >= 0, got {tol}")
    box = _require_box(_default_box(g) if box is None else box, "box", g)
    if not box.is_finite:  # finite ends, as inside the domain, and an infinite width
        raise InvalidParameterError(f"box ({box.lo}, {box.hi}) has an infinite width")

    rng = np.random.default_rng(rng_seed)
    X = rng.uniform(box.lo, box.hi, size=(trials, n))
    # the A1-A3 samples stacked, their means taken in one call (each row's
    # mean depends on that row alone); the draws are in the order of one
    # sample after the other
    samples = np.empty((4, trials, n))
    samples[0] = samples[1] = X
    cols = rng.integers(0, n, size=trials)
    samples[1, np.arange(trials), cols] += 1e-4 * box.width
    rng.permuted(X, axis=1, out=samples[2])
    consts = rng.uniform(box.lo, box.hi, size=trials)
    samples[3] = consts[:, None]
    # pairwise summation reorder error is orders of magnitude below the 1e-9
    # tolerance
    base, bumped, permuted, const_means = row_means(g, samples.reshape(-1, n)).reshape(4, trials)

    a1 = AxiomCheck(bool((bumped > base).all()), float((base - bumped).max()))
    a2_worst = float(np.abs(permuted - base).max())
    a2 = AxiomCheck(a2_worst <= tol, a2_worst)
    a3_worst = float(np.abs(const_means - consts).max())
    a3 = AxiomCheck(a3_worst <= tol, a3_worst)

    # at n0 = n the block is the whole row and its mean is base
    block_means = base if n0 == n else row_means(g, X[:, :n0])
    replaced = X.copy()
    replaced[:, :n0] = block_means[:, None]
    a4_worst = float(np.abs(row_means(g, replaced) - base).max())
    a4 = AxiomCheck(a4_worst <= tol, a4_worst)

    return AxiomReport(a1, a2, a3, a4, trials=trials, tolerance=tol)

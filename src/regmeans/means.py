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
its digits near p = 0 through expm1 and log1p.
``check_axioms`` verifies the four characterizing properties numerically:
per-coordinate monotonicity, symmetry, idempotence on constant samples, and
invariance when a leading block is replaced by its own mean.  ``row_means``
is the batch form, one mean per row of a matrix, for the Monte Carlo path
and ``check_axioms``; its last step, ``means_from_sums``, is shared with the
stability certificates.  Floating-point underflow inside a mean is never an
error, whatever ``np.errstate`` the caller has set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, NumericError
from .generators import (Generator, Interval, _real_array, _require_interval, _require_real,
                         make_builtin, require_count)

_EPS = float(np.finfo(float).eps)
_POSITIVE = Interval(0.0, math.inf)
_EXP = make_builtin("exp")
_OVERFLOW = "g(x), its sum or its mean is not finite on the sample"

# Below this many values math.fsum beats the extraction passes of _exact_sum.
# On the forward values of mean requests fsum wins under about 380 values,
# the two tie at 380-420, and the extraction is 1.15x faster at 450-550
# values, 1.5x at 650-800, 2.9x at 1000-2000 and 6x at 5000-10^4.  Two passes
# empty typical data; what exponents spread over hundreds of binades leave
# after four goes to fsum.
_FSUM_BELOW = 400
_MAX_PASSES = 4

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


def _exact_sum(v: np.ndarray) -> float:
    """math.fsum(v): the correctly rounded sum of v, the same bits and the
    same OverflowError and ValueError, in a few vectorised passes.

    This is Rump, Ogita and Oishi's error-free extraction (Accurate
    floating-point summation I, SIAM J. Sci. Comput. 31, 2008).  With sigma
    a power of two above 2 n max|r|, q = (sigma + r) - sigma and r - q are
    exact, |r - q| <= 2**-53 sigma, and every q is a multiple of 2**-53 sigma
    no larger than sigma / n, so np.sum(q) is exact in any order.  Each pass
    moves about 53 - log2(2n) leading bits of every value into one exact
    partial sum; fsum rounds the partial sums and the short remainder once.
    Below _FSUM_BELOW values, and when v is all zeros, holds inf or NaN, or
    sigma would overflow, fsum sums v itself.
    """
    mu = max(v.max(), -v.min()) if v.size >= _FSUM_BELOW else 0.0
    e = math.frexp(mu)[1]  # max|v| < 2**e
    if not 0.0 < mu < math.inf or e + (2 * v.size - 1).bit_length() > 1023:
        return math.fsum(v.tolist())
    r, parts = v, []
    while r.size >= _FSUM_BELOW and len(parts) < _MAX_PASSES:
        e += (2 * r.size - 1).bit_length()
        sigma = math.ldexp(1.0, e)
        q = r + sigma
        q -= sigma
        parts.append(q.sum())
        r = r - q
        e -= 53  # now |r| <= 2**e
        if len(parts) > 1:  # after two passes few values have bits left
            r = r[r != 0.0]
    return math.fsum(parts + r.tolist())


def _kernel(x: np.ndarray, forward: Callable, inverse: Callable) -> float:
    """inverse(sum(forward(x)) / n) with a correctly rounded sum (equal to
    math.fsum), or NumericError if a step is not finite."""
    with np.errstate(all="ignore"):
        gx = np.asarray(forward(x), dtype=float)
        try:
            total = _exact_sum(gx)
        except (OverflowError, ValueError):  # fsum raises on overflow and on inf - inf
            total = math.inf
        m = float(inverse(np.float64(total / x.size))) if math.isfinite(total) else math.inf
    if not math.isfinite(m):
        raise NumericError(_OVERFLOW)
    return m


def _row_kernel(rows: np.ndarray, forward: Callable, inverse: Callable) -> np.ndarray:
    with np.errstate(all="ignore"):
        sums = np.sum(np.asarray(forward(rows), dtype=float), axis=1)
        return means_from_sums(inverse, sums, rows.shape[1])[1]


def _anchored(g: Generator, x: np.ndarray, kernel: Callable, hi: float | None = None):
    """M_g along the last axis of x.  Exp means are shift-equivariant and
    power means scale-equivariant, so both are taken relative to an anchor
    c where g cannot overflow: the maximum, as a power generator's p is
    positive.  A 1-D sample passes the max that _sample found as hi; rows
    leave it out and are anchored row by row."""
    if g.kind not in ("exp", "power"):
        return kernel(x, g.forward, g.inverse)
    c = x.max(axis=-1) if hi is None else hi
    if g.kind == "power":
        return _power(g.param, np.log(x), c, np.log(c), kernel)
    shift = c if x.ndim == 1 else c[:, None]
    return c + kernel(x, lambda t: g.forward(t - shift), g.inverse)


def _power(p: float, logs: np.ndarray, c, log_c, kernel: Callable):
    """M_p(x) = c * M_p(x / c) along the last axis of logs = log x, with c
    the anchor (the maximum, or the minimum for p < 0) and log_c = log c.
    x / c and M / c go through logs: on a sample that spans more than the
    float range they leave it.

    A 1-D sample has a float c and gets a float back, through one branch of
    the tail; rows get one mean each, every branch computed and one kept.
    """
    shift = log_c if logs.ndim == 1 else log_c[:, None]
    r = kernel(logs, lambda t: np.exp(p * (t - shift)), lambda y: np.log(y) / p)
    if logs.ndim == 1:
        if abs(r) < 700.0:
            return c * float(np.exp(r))
        with np.errstate(under="ignore"):  # the mean may be subnormal
            return float(np.exp(log_c + r))
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
    arr, lo, hi = _sample(x, g.domain, f"generator {g.name!r}")
    if arr.size == 1:
        return float(arr[0])
    m = (_power_sample(g.param, arr, lo, hi) if g.kind == "power"
         else _anchored(g, arr, _kernel, hi))
    return min(max(m, lo), hi)


def row_means(g: Generator, rows: np.ndarray) -> np.ndarray:
    """M_g of every row of a 2-D array, with mean's domain check, anchoring
    and NumericError, but summed pairwise with np.sum instead of math.fsum:
    it agrees with ``mean`` to rounding rather than bit for bit."""
    g.domain.require_interior(rows, f"generator {g.name!r}")
    return _anchored(g, rows, _row_kernel)


def means_from_sums(inverse: Callable, sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums / n, inverse(sums / n)) for per-row sums of g over n values.

    Raises NumericError when a sum or a mean is not finite, that is when g or
    its inverse overflowed.  Callers hold np.errstate(all="ignore").
    """
    if not np.all(np.isfinite(sums)):
        raise NumericError(_OVERFLOW)
    avg = sums / n
    m = np.asarray(inverse(avg), dtype=float)
    if not np.all(np.isfinite(m)):
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
    [lo, hi] that every branch needs, as each ends in exp."""
    logs = np.log(arr)
    # floats, whose products underflow silently under any np.errstate
    log_lo, log_hi = math.log(lo), math.log(hi)
    top = abs(p) * max(-log_lo, log_hi)  # max |log x|
    if top < _EPS:
        # x**p is within an ulp of 1 for every x: only the p -> 0 limit is
        # resolvable, and dividing an underflowed sum by p cannot recover it
        return _kernel(logs, lambda t: t, np.exp)
    if top < 0.1:
        # near p = 0 the mean of x**p rounds to about 1 and loses the O(p)
        # signal; expm1/log1p keeps full relative precision
        return _kernel(logs, lambda t: np.expm1(p * t), lambda y: np.exp(np.log1p(y) / p))
    c, log_c = (hi, log_hi) if p > 0 else (lo, log_lo)
    return _power(p, logs, c, log_c, _kernel)


def exp_mean_stable(x: Sequence[float] | np.ndarray) -> float:
    """log((1/n) sum exp(xi)), the exponential mean, clipped into
    [min(x), max(x)]; it never overflows for finite inputs."""
    arr, lo, hi = _sample(x, _EXP.domain, "exponential mean")
    return min(max(_anchored(_EXP, arr, _kernel, hi), lo), hi)


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
        overall mean unchanged, within tol.

    Failures are recorded in the report, never raised; a generator that
    overflows on the box raises NumericError.
    """
    n = require_count(n, "n", 1)
    n0 = n if n0 is None else require_count(n0, "n0", 1)
    if n0 > n:
        raise InvalidParameterError(f"n0 must satisfy 1 <= n0 <= n, got n0={n0}, n={n}")
    trials = require_count(trials, "trials", 1)
    rng_seed = require_count(rng_seed, "rng_seed", 0)
    if not 0.0 <= _require_real(tol, "tol") < math.inf:
        raise InvalidParameterError(f"tol must be finite and >= 0, got {tol}")
    box = _default_box(g) if box is None else _require_interval(box, "box")
    g.domain.require_interior([box.lo, box.hi], f"generator {g.name!r}")

    rng = np.random.default_rng(rng_seed)
    X = rng.uniform(box.lo, box.hi, size=(trials, n))

    # pairwise summation reorder error is orders of magnitude below the 1e-9
    # tolerance
    base = row_means(g, X)

    eps = 1e-4 * box.width
    cols = rng.integers(0, n, size=trials)
    bumped = X.copy()
    bumped[np.arange(trials), cols] += eps
    bumped_means = row_means(g, bumped)
    a1 = AxiomCheck(bool(np.all(bumped_means > base)),
                    float(np.max(base - bumped_means)))

    permuted = rng.permuted(X, axis=1)
    a2_worst = float(np.max(np.abs(row_means(g, permuted) - base)))
    a2 = AxiomCheck(a2_worst <= tol, a2_worst)

    consts = rng.uniform(box.lo, box.hi, size=trials)
    const_rows = np.broadcast_to(consts[:, None], (trials, n))
    a3_worst = float(np.max(np.abs(row_means(g, const_rows) - consts)))
    a3 = AxiomCheck(a3_worst <= tol, a3_worst)

    block_means = row_means(g, X[:, :n0])
    replaced = X.copy()
    replaced[:, :n0] = block_means[:, None]
    a4_worst = float(np.max(np.abs(row_means(g, replaced) - base)))
    a4 = AxiomCheck(a4_worst <= tol, a4_worst)

    return AxiomReport(a1, a2, a3, a4, trials=trials, tolerance=tol)

"""Quasi-arithmetic means and their defining properties.

The mean of a sample x1..xn under a generator g is

    M_g(x) = g_inv( (1/n) * sum g(xi) )

which specializes to the arithmetic, geometric, harmonic, power, and
exponential means for the built-in generators, each through one sample check
and one forward-fsum-inverse kernel; exp and power means are anchored at the
sample's maximum, where g cannot overflow.  ``check_axioms`` verifies the
four characterizing properties numerically: per-coordinate monotonicity,
symmetry, idempotence on constant samples, and invariance when a leading
block is replaced by its own mean.  ``row_means`` is the batch form, one mean
per row of a matrix, for the Monte Carlo path and ``check_axioms``; its last
step, ``means_from_sums``, is shared with the stability certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidParameterError, NumericError
from .generators import Generator, Interval, make_builtin

_EPS = float(np.finfo(float).eps)
_POSITIVE = Interval(0.0, math.inf)
_EXP = make_builtin("exp")
_OVERFLOW = "g(x), its sum or its mean is not finite on the sample"

__all__ = [
    "mean",
    "power_mean",
    "exp_mean_stable",
    "AxiomCheck",
    "AxiomReport",
    "check_axioms",
]


def _sample(x: Sequence[float] | np.ndarray, domain: Interval, owner: str) -> np.ndarray:
    """x as a nonempty 1-D float array with every value inside the open
    domain, else ConfigurationError (DomainError for NaN and infinities)."""
    try:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
    except (TypeError, ValueError):
        raise ConfigurationError(f"{owner} needs a flat sequence of numbers") from None
    if arr.ndim != 1:
        raise ConfigurationError("sample must be one-dimensional")
    if arr.size == 0:
        raise ConfigurationError("sample must be nonempty")
    domain.require_interior(arr, owner)
    return arr


def _kernel(x: np.ndarray, forward: Callable, inverse: Callable) -> float:
    """inverse(fsum(forward(x)) / n), or NumericError if a step is not finite."""
    with np.errstate(all="ignore"):
        gx = np.asarray(forward(x), dtype=float)
        try:  # over a list, fsum is the same exactly rounded sum, only faster
            total = math.fsum(gx.tolist())
        except (OverflowError, ValueError):  # fsum raises on overflow and on inf - inf
            total = math.inf
        m = float(inverse(np.float64(total / x.size))) if math.isfinite(total) else math.inf
    if not math.isfinite(m):
        raise NumericError(_OVERFLOW)
    return m


def _row_kernel(rows: np.ndarray, forward: Callable, inverse: Callable) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums = np.sum(np.asarray(forward(rows), dtype=float), axis=1)
    return means_from_sums(inverse, sums, rows.shape[1])[1]


def _anchored(g: Generator, x: np.ndarray, kernel: Callable):
    """M_g along the last axis of x; exp means are shift-equivariant."""
    if g.kind == "exp":
        c = x.max(axis=-1)
        return c + kernel(x, lambda t: g.forward(t - c[..., None]), g.inverse)
    if g.kind == "power":
        return _power(g.param, x, kernel)
    return kernel(x, g.forward, g.inverse)


def _power(p: float, x: np.ndarray, kernel: Callable):
    """M_p(x) = c * M_p(x / c), c the maximum (p > 0) or minimum (p < 0).
    x / c and M / c go through logs: on a sample that spans more than the
    float range they leave it."""
    c = x.max(axis=-1) if p > 0 else x.min(axis=-1)
    log_c = np.log(c)
    r = kernel(x, lambda t: np.exp(p * (np.log(t) - log_c[..., None])), lambda y: np.log(y) / p)
    return np.where(np.abs(r) < 700.0, c * np.exp(np.minimum(r, 700.0)), np.exp(log_c + r))


def mean(g: Generator, x: Sequence[float] | np.ndarray) -> float:
    """The quasi-arithmetic mean of x under generator g.

    Summation is compensated (math.fsum), so the result is exactly
    permutation-invariant, and it lies in [min(x), max(x)] up to rounding.
    Raises ConfigurationError unless x is a nonempty flat sequence of
    numbers, DomainError if any value (NaN and infinities too) is outside the
    generator's domain, and NumericError if g, its sum or the mean is not
    finite on the sample.
    """
    arr = _sample(x, g.domain, f"generator {g.name!r}")
    if arr.size == 1:
        return float(arr[0])
    return float(_anchored(g, arr, _kernel))


def row_means(g: Generator, rows: np.ndarray) -> np.ndarray:
    """M_g of every row of a 2-D array, with mean's domain check, anchoring
    and NumericError, but summed pairwise with np.sum instead of math.fsum:
    it agrees with ``mean`` to rounding rather than bit for bit."""
    g.domain.require_interior(rows, f"generator {g.name!r}")
    return _anchored(g, rows, _row_kernel)


def means_from_sums(inverse: Callable, sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums / n, inverse(sums / n)) for per-row sums of g over n values.

    Raises NumericError when a sum is not finite, that is when g overflowed.
    """
    if not np.all(np.isfinite(sums)):
        raise NumericError(_OVERFLOW)
    avg = sums / n
    return avg, np.asarray(inverse(avg), dtype=float)


def power_mean(p: float, x: Sequence[float] | np.ndarray) -> float:
    """The power mean ((1/n) sum xi**p)**(1/p) of positive values, p finite.

    p = 0 returns the geometric mean (the continuous limit), and so does an
    exponent too small for x**p to differ from 1 on the sample.
    """
    if not math.isfinite(p):
        raise InvalidParameterError(f"power mean needs a finite exponent, got {p}")
    arr = _sample(x, _POSITIVE, "power mean")
    logs = np.log(arr)
    top = abs(p) * float(np.max(np.abs(logs)))
    if top < _EPS:
        # x**p is within an ulp of 1 for every x: only the p -> 0 limit is
        # resolvable, and dividing an underflowed sum by p cannot recover it
        return _kernel(logs, lambda t: t, np.exp)
    if top < 0.1:
        # near p = 0 the mean of x**p rounds to about 1 and loses the O(p)
        # signal; expm1/log1p keeps full relative precision
        return _kernel(logs, lambda t: np.expm1(p * t), lambda y: np.exp(np.log1p(y) / p))
    return float(_power(p, arr, _kernel))


def exp_mean_stable(x: Sequence[float] | np.ndarray) -> float:
    """log((1/n) sum exp(xi)), the exponential mean; it never overflows for
    finite inputs."""
    return float(_anchored(_EXP, _sample(x, _EXP.domain, "exponential mean"), _kernel))


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
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if n0 is None:
        n0 = n
    if not 1 <= n0 <= n:
        raise InvalidParameterError(f"n0 must satisfy 1 <= n0 <= n, got n0={n0}, n={n}")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if box is None:
        box = _default_box(g)
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

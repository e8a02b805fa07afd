"""Quasi-arithmetic means and their defining properties.

The mean of a sample x1..xn under a generator g is

    M_g(x) = g_inv( (1/n) * sum g(xi) )

which specializes to the arithmetic, geometric, harmonic, power, and
exponential means for the built-in generators.  ``check_axioms`` verifies the
four characterizing properties numerically: per-coordinate monotonicity,
symmetry, idempotence on constant samples, and invariance when a leading
block is replaced by its own mean.  ``row_means`` is the batch form, one mean
per row of a matrix, shared by the Monte Carlo and certificate paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigurationError, DomainError, InvalidParameterError, NumericError
from .generators import Generator, Interval

_EPS = float(np.finfo(float).eps)

__all__ = [
    "mean",
    "power_mean",
    "exp_mean_stable",
    "AxiomCheck",
    "AxiomReport",
    "check_axioms",
]


def _as_sample(x: Sequence[float] | np.ndarray) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim != 1:
        raise ConfigurationError("sample must be one-dimensional")
    if arr.size == 0:
        raise ConfigurationError("sample must be nonempty")
    return arr


def mean(g: Generator, x: Sequence[float] | np.ndarray) -> float:
    """The quasi-arithmetic mean of x under generator g.

    Summation is compensated (math.fsum), so the result is exactly
    permutation-invariant.  The result always lies in [min(x), max(x)] up to
    the final rounding.  Raises DomainError if any value is outside the
    generator's domain, and NumericError if g overflows on the sample (use
    exp_mean_stable / power_mean for the stable log-space variants).
    """
    arr = _as_sample(x)
    g.require_in_domain(arr)
    if arr.size == 1:
        return float(arr[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gx = np.asarray(g.forward(arr), dtype=float)
    if not np.all(np.isfinite(gx)):
        raise NumericError(_overflow_message(g))
    try:
        total = math.fsum(gx)
    except OverflowError:  # fsum raises instead of returning inf
        raise NumericError("sum of transformed values overflowed") from None
    return float(g.inverse(total / arr.size))


def row_means(g: Generator, rows: np.ndarray) -> np.ndarray:
    """M_g of every row of a 2-D array: one vectorized forward, row sum and
    inverse.

    The batch counterpart of ``mean`` for the Monte Carlo and certificate
    paths.  It keeps mean's checks (DomainError for a value outside the
    domain, NumericError when a row sum is not finite) but sums pairwise with
    np.sum instead of math.fsum, so it agrees with ``mean`` to rounding
    rather than bit for bit.
    """
    g.require_in_domain(rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sums = np.sum(np.asarray(g.forward(rows), dtype=float), axis=1)
    if not np.all(np.isfinite(sums)):
        raise NumericError(_overflow_message(g))
    return np.asarray(g.inverse(sums / rows.shape[1]), dtype=float)


def _overflow_message(g: Generator) -> str:
    return f"generator {g.name!r} overflowed on the sample; use a stable variant"


def power_mean(p: float, x: Sequence[float] | np.ndarray) -> float:
    """The power mean ((1/n) sum xi**p)**(1/p), computed in log-space.

    p = 0 returns the geometric mean (the continuous limit), and so does an
    exponent too small for x**p to differ from 1 on the sample.  All values
    must be positive.
    """
    arr = _as_sample(x)
    if np.any(arr <= 0):
        raise DomainError("power mean requires strictly positive values")
    logs = np.log(arr)
    n = arr.size
    scaled = p * logs
    top = float(np.max(np.abs(scaled)))
    if p == 0 or top < _EPS:
        # x**p is within an ulp of 1 for every x: only the p -> 0 limit is
        # resolvable, and dividing an underflowed sum by p cannot recover it
        return float(math.exp(math.fsum(logs) / n))
    if top < 0.1:
        # near p = 0 the logsumexp route cancels log(n) against itself and
        # loses the O(p) signal; expm1/log1p keeps full relative precision
        return float(math.exp(math.log1p(math.fsum(np.expm1(scaled)) / n) / p))
    # log M = (logsumexp(p*log x) - log n) / p; immune to overflow in x**p
    return float(math.exp((logsumexp(scaled) - math.log(n)) / p))


def exp_mean_stable(x: Sequence[float] | np.ndarray) -> float:
    """log((1/n) sum exp(xi)) via the shifted-maximum technique; never
    overflows for finite inputs."""
    arr = _as_sample(x)
    return float(logsumexp(arr) - math.log(arr.size))


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
    if not g.domain.encloses(box):
        raise DomainError(f"box {box} not inside domain of generator {g.name!r}")

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

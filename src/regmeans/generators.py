"""Generator functions for quasi-arithmetic means.

A generator is a continuous, strictly monotone function g on an interval
domain, carried together with its inverse and derivative.  The built-ins
cover the classical means:

    identity    arithmetic mean         domain (-inf, inf)
    log         geometric mean          domain (0, inf)
    reciprocal  harmonic mean           domain (0, inf), decreasing
    power       power mean, p > 0       domain (0, inf)
    exp         exponential mean        domain (-inf, inf)

All three callables are elementwise: they accept floats or numpy arrays.
Generators are immutable; every operation here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSlopeError,
    DomainError,
    InvalidParameterError,
    NumericError,
    OutOfRangeError,
)

__all__ = [
    "Interval",
    "Generator",
    "make_builtin",
    "parse_generator",
    "register_generator",
    "invert",
    "min_slope",
    "normalize_increasing",
    "affine_transform",
]

BUILTIN_KINDS = ("identity", "log", "reciprocal", "power", "exp")

# Below this, a grid slope is treated as zero (strict monotonicity lost).
_DEGENERATE_TOL = 1e-12

# Smallest power-generator exponent.  The inverse y**(1/p) multiplies the
# rounding error of the averaged y by 1/p, so a mean computed through x**p
# is off by about eps/p relative; below 1e-6 that exceeds 1e-10, and an
# exponent under 1e-19 makes x**p == 1.0 on typical samples, so the mean
# answers 1.0 whatever the data.
_MIN_POWER = 1e-6


@dataclass(frozen=True)
class Interval:
    """A numeric interval (lo, hi), lo < hi.  Endpoints may be infinite;
    both must be finite wherever an interval is used as a compact
    evaluation domain."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise InvalidParameterError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def require_interior(self, x, owner: str) -> None:
        """Raise DomainError, naming the offender and owner, unless every
        element of x lies strictly inside the interval.  NaN and infinite
        values never do."""
        arr = np.asarray(x, dtype=float)
        # min and max decide; NaN fails both comparisons
        if not arr.size or (arr.min() > self.lo and arr.max() < self.hi):
            return
        ok = (arr > self.lo) & (arr < self.hi)
        offender = float(arr.flat[int(np.argmin(np.ravel(ok)))])
        raise DomainError(f"value {offender} outside domain ({self.lo}, {self.hi}) of {owner}")

    def grid(self, points: int) -> np.ndarray:
        if points < 2:
            raise InvalidParameterError("grid needs at least 2 points")
        if not self.is_finite:
            raise InvalidParameterError("cannot grid an unbounded interval")
        return np.linspace(self.lo, self.hi, points)


@dataclass(frozen=True)
class Generator:
    """A strictly monotone generator g with inverse and derivative.

    ``kind`` is one of the built-in kind names or "custom"; closed-form
    moments and the anchored exp and power means key off it.  ``param`` is
    the exponent for power generators, None otherwise.
    """

    name: str
    domain: Interval
    forward: Callable
    inverse: Callable
    derivative: Callable
    monotone_direction: str  # "increasing" | "decreasing"
    kind: str = "custom"
    param: float | None = None

    @property
    def increasing(self) -> bool:
        return self.monotone_direction == "increasing"


def _ones_like(x):
    if isinstance(x, np.ndarray):
        return np.ones_like(x, dtype=float)
    return 1.0


_REAL_LINE = Interval(-math.inf, math.inf)
_POSITIVE = Interval(0.0, math.inf)


def make_builtin(kind: str, p: float | None = None) -> Generator:
    """Construct one of the built-in generators.

    ``p`` is only meaningful for kind="power" and must be at least 1e-6
    there.
    """
    if kind == "power":
        if p is None or not _MIN_POWER <= p < math.inf:
            raise InvalidParameterError(
                f"power generator requires a finite p >= {_MIN_POWER:g}, got {p}; smaller "
                "exponents are served by 'log' (the p -> 0 limit) or power_mean")
    elif p is not None:
        raise InvalidParameterError(f"generator kind {kind!r} takes no parameter")

    if kind == "identity":
        return Generator("identity", _REAL_LINE, lambda x: x * 1.0, lambda y: y * 1.0,
                         _ones_like, "increasing", kind="identity")
    if kind == "log":
        return Generator("log", _POSITIVE, np.log, np.exp,
                         lambda x: 1.0 / x, "increasing", kind="log")
    if kind == "reciprocal":
        return Generator("reciprocal", _POSITIVE, lambda x: 1.0 / x, lambda y: 1.0 / y,
                         lambda x: -1.0 / (x * x), "decreasing", kind="reciprocal")
    if kind == "power":
        pf = float(p)
        return Generator(f"power:{pf:g}", _POSITIVE, lambda x: x ** pf,
                         lambda y: y ** (1.0 / pf),
                         lambda x: pf * x ** (pf - 1.0), "increasing",
                         kind="power", param=pf)
    if kind == "exp":
        return Generator("exp", _REAL_LINE, np.exp, np.log, np.exp, "increasing", kind="exp")
    raise ConfigurationError(f"unknown generator kind {kind!r}")


_REGISTRY: dict[str, Generator] = {}


def register_generator(name: str, gen: Generator) -> None:
    """Register a programmatic generator so parse_generator can find it."""
    if name.split(":")[0] in BUILTIN_KINDS:
        raise InvalidParameterError(f"cannot shadow built-in kind in {name!r}")
    _REGISTRY[name] = gen


def parse_generator(spec: str) -> Generator:
    """Parse a generator spec string: "identity", "log", "reciprocal",
    "power:2.0", "exp", or the name of a registered generator."""
    spec = spec.strip()
    head, _, tail = spec.partition(":")
    if head in BUILTIN_KINDS:
        if head == "power":
            if not tail:
                raise InvalidParameterError("power generator spec needs an exponent, e.g. power:2.0")
            try:
                p = float(tail)
            except ValueError:
                raise InvalidParameterError(f"bad power exponent {tail!r}") from None
            return make_builtin("power", p)
        if tail:
            raise InvalidParameterError(f"generator {head!r} takes no parameter (got {spec!r})")
        return make_builtin(head)
    if spec in _REGISTRY:
        return _REGISTRY[spec]
    raise InvalidParameterError(f"unknown generator spec {spec!r}")


def invert(g: Generator, y: float, bracket: Interval, tol: float = 1e-12,
           max_iter: int = 200) -> float:
    """Numerically invert g at y by bisection on the bracket.

    Returns x with |g(x) - y| <= tol, or the midpoint of the final bracket
    once its width is exhausted at float resolution (the residual is then as
    small as the arithmetic allows).  The bracket must straddle y.
    """
    if not bracket.is_finite:
        raise InvalidParameterError("invert needs a finite bracket")
    g.domain.require_interior([bracket.lo, bracket.hi], f"generator {g.name!r}")
    a, b = bracket.lo, bracket.hi
    fa, fb = float(g.forward(a)), float(g.forward(b))
    if (fa - y) * (fb - y) > 0:
        raise OutOfRangeError(f"y={y} outside the image [{min(fa, fb)}, {max(fa, fb)}] of the bracket")
    rising = fb >= fa
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        fm = float(g.forward(mid))
        if abs(fm - y) <= tol:
            return mid
        if b - a <= 4.0 * np.finfo(float).eps * max(1.0, abs(mid)):
            return mid
        if (fm < y) == rising:
            a = mid
        else:
            b = mid
    raise ConvergenceError(f"bisection failed to reach tol={tol} in {max_iter} iterations")


def min_slope(g: Generator, B: Interval, grid_points: int = 10001) -> float:
    """Grid estimate of inf |g'| on B (an upper bound of the true inf)."""
    xs = B.grid(grid_points)  # needs grid_points >= 2 and a compact B
    g.domain.require_interior([B.lo, B.hi], f"generator {g.name!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = float(np.min(np.abs(np.asarray(g.derivative(xs), dtype=float))))
    if not math.isfinite(m):
        raise NumericError(f"slope of generator {g.name!r} is not finite on [{B.lo}, {B.hi}]")
    if m <= _DEGENERATE_TOL:
        raise DegenerateSlopeError(
            f"generator {g.name!r} has vanishing slope on [{B.lo}, {B.hi}] (min |g'| = {m:g})")
    return m


def normalize_increasing(g: Generator) -> Generator:
    """Return g itself if increasing, else the negated (increasing) form.

    The quasi-arithmetic mean is invariant under g -> -g, so the negated
    generator defines exactly the same mean.
    """
    if g.increasing:
        return g
    fwd, inv, der = g.forward, g.inverse, g.derivative
    return Generator(
        name=f"neg_{g.name}",
        domain=g.domain,
        forward=lambda x: -fwd(x),
        inverse=lambda y: inv(-y),
        derivative=lambda x: -der(x),
        monotone_direction="increasing",
        kind="custom",
    )


def affine_transform(g: Generator, a: float, b: float) -> Generator:
    """The generator a*g + b (a != 0); defines the same mean as g."""
    if a == 0:
        raise InvalidParameterError("affine transform requires a != 0")
    fwd, inv, der = g.forward, g.inverse, g.derivative
    direction = g.monotone_direction if a > 0 else (
        "decreasing" if g.increasing else "increasing")
    return Generator(
        name=f"{a:g}*{g.name}{b:+g}",
        domain=g.domain,
        forward=lambda x: a * fwd(x) + b,
        inverse=lambda y: inv((y - b) / a),
        derivative=lambda x: a * der(x),
        monotone_direction=direction,
        kind="custom",
    )

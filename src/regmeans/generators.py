"""Generator functions for quasi-arithmetic means.

A generator is a continuous, strictly monotone function g on an interval
domain, carried together with its inverse and derivative.  The built-ins
cover the classical means:

    identity    arithmetic mean         domain (-inf, inf)
    log         geometric mean          domain (0, inf)
    reciprocal  harmonic mean           domain (0, inf), decreasing
    power       power mean, p > 0       domain (0, inf)
    exp         exponential mean        domain (-inf, inf)

All three callables are elementwise.  The library calls them on float
arrays only, a single value as a one-value array, and checks that each
returns an array of its argument's shape (_vectorized); the built-ins take
floats too.
Generators are immutable; every operation here is pure.  parse_generator
reads the built-in specs only; a custom generator is a Generator object,
passed as such wherever a generator is taken.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateSlopeError,
    DomainError,
    InvalidParameterError,
    NumericError,
)

__all__ = [
    "Interval",
    "Generator",
    "make_builtin",
    "parse_generator",
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
    wherever an interval is used as a compact evaluation domain (a grid, a
    box) it must be finite (is_finite)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require_real(self.lo, "lo")
        _require_real(self.hi, "hi")
        if not self.lo < self.hi:
            raise InvalidParameterError(f"interval requires lo < hi, got ({self.lo}, {self.hi})")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_finite(self) -> bool:
        """Usable as a compact box: a finite width, so finite ends too."""
        return math.isfinite(self.width)

    def require_interior(self, x, owner: str) -> tuple[float, float]:
        """(min x, max x) when every element of x lies strictly inside the
        interval, else DomainError naming the offender and owner.  NaN and
        infinite values never do; an empty x passes as (inf, -inf)."""
        arr = np.asarray(x, dtype=float)
        if not arr.size:
            return math.inf, -math.inf
        # the ufunc reductions themselves, without ndarray.min's wrappers
        lo = float(np.minimum.reduce(arr, axis=None))
        hi = float(np.maximum.reduce(arr, axis=None))
        # min and max decide; NaN fails both comparisons
        if lo > self.lo and hi < self.hi:
            return lo, hi
        ok = (arr > self.lo) & (arr < self.hi)
        offender = float(arr.flat[int(np.argmin(np.ravel(ok)))])
        raise DomainError(f"value {offender} outside domain ({self.lo}, {self.hi}) of {owner}")

    def grid(self, points: int) -> np.ndarray:
        """points evenly spaced values from lo to hi.  InvalidParameterError
        unless points is an integer >= 2 and the interval is_finite."""
        if not self.is_finite:
            raise InvalidParameterError(f"cannot grid ({self.lo}, {self.hi}) of infinite width")
        return np.linspace(self.lo, self.hi, require_count(points, "points", 2))


def require_count(value, name: str, least: int) -> int:
    """value as an int when operator.index takes it (an int or a numpy
    integer; not a float, a string or None) and it is >= least, else
    InvalidParameterError naming the parameter."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise InvalidParameterError(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _require_real(value, name: str):
    """value, unconverted, when it is a real number (numbers.Real: an int, a
    float or a numpy scalar of either; not a string or None), else
    InvalidParameterError naming the parameter."""
    if not isinstance(value, numbers.Real):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}")
    return value


def _require_instance(value, kind, name: str, what: str):
    """value if it is an instance of kind (a class or a tuple of classes),
    else InvalidParameterError "<name> must be <what>, got <value>"."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"{name} must be {what}, got {value!r}")
    return value


def _require_interval(value, name: str) -> Interval:
    """value if it is an Interval, else InvalidParameterError naming it."""
    return _require_instance(value, Interval, name, "an Interval")


def _require_box(box, name: str, *gens: Generator) -> Interval:
    """box if it is an Interval (else InvalidParameterError naming it) whose
    ends lie strictly inside the domain of each of gens (else DomainError).
    An infinite end is never inside, so a box that passes has finite ends;
    its callers still check its width."""
    _require_interval(box, name)
    for g in gens:
        g.domain.require_interior([box.lo, box.hi], f"generator {g.name!r}")
    return box


def _real_array(x, owner: str) -> np.ndarray:
    """x as a float array when it holds real numbers (a bool, integer or
    float dtype), else InvalidParameterError naming owner: a string, bytes,
    None or another object, a complex value, or a ragged list that numpy
    cannot convert.  A NaN passes; each caller finds it in a reduction it
    makes anyway."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):  # a ragged list
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise InvalidParameterError(f"{owner} needs real numbers, got {x!r:.80}")
    return arr.astype(float, copy=False)


def _spec_number(value: float) -> str:
    """value in the shortest form that parses back to the same float (its
    repr), less a trailing ".0": 2.0 is "2", 2.1234567 and 1.0000001 stay."""
    text = repr(float(value))
    return text[:-2] if text.endswith(".0") else text


def _vectorized(fn, x: np.ndarray, what: str, name: str | None = None) -> np.ndarray:
    """fn(x) as a float array of x's shape (x an array), else
    ConfigurationError naming what, "<what> of generator <name>" for one of
    a generator's callables: every call of those on caller data is here."""
    try:
        y = np.asarray(fn(x), dtype=float)
        if y.shape == x.shape:
            return y
        fault = f"mapped {x.size} values to shape {y.shape}; it must be vectorized"
    except (TypeError, ValueError) as exc:  # a scalar-only fn, e.g. one built on math
        fault = f"must be vectorized: {exc}"
    owner = what if name is None else f"{what} of generator {name!r}"
    raise ConfigurationError(f"{owner} {fault}")


@dataclass(frozen=True)
class Generator:
    """A strictly monotone generator g with inverse and derivative.

    ``kind`` is one of the built-in kind names or "custom"; closed-form
    moments and the anchored exp and power means key off it.  ``param`` is
    the exponent of a power generator, a real number >= 1e-6, else None.
    A domain that is not an Interval, or any other kind, param or direction,
    is InvalidParameterError.
    """

    name: str
    domain: Interval
    forward: Callable
    inverse: Callable
    derivative: Callable
    monotone_direction: str  # "increasing" | "decreasing"
    kind: str = "custom"
    param: float | None = None

    def __post_init__(self) -> None:
        _require_interval(self.domain, "domain")
        if self.kind not in (*BUILTIN_KINDS, "custom"):
            raise InvalidParameterError(f"unknown generator kind {self.kind!r}")
        if self.monotone_direction not in ("increasing", "decreasing"):
            raise InvalidParameterError(f"monotone_direction must be 'increasing' or "
                                        f"'decreasing', got {self.monotone_direction!r}")
        _check_param(self.kind, self.param)

    @property
    def increasing(self) -> bool:
        return self.monotone_direction == "increasing"


def _check_param(kind: str, p) -> None:
    """InvalidParameterError unless p is a power generator's exponent, a
    real number in [_MIN_POWER, inf), or None for every other kind."""
    if kind == "power":
        if not (isinstance(p, numbers.Real) and _MIN_POWER <= p < math.inf):
            raise InvalidParameterError(
                f"power generator requires a finite p >= {_MIN_POWER:g}, got {p}; smaller "
                "exponents are served by 'log' (the p -> 0 limit) or power_mean")
    elif p is not None:
        raise InvalidParameterError(f"generator kind {kind!r} takes no parameter")


def _ones_like(x):
    if isinstance(x, np.ndarray):
        return np.ones_like(x, dtype=float)
    return 1.0


_REAL_LINE = Interval(-math.inf, math.inf)
_POSITIVE = Interval(0.0, math.inf)


def make_builtin(kind: str, p: float | None = None) -> Generator:
    """Construct one of the built-in generators.

    ``p`` is only meaningful for kind="power" and must be at least 1e-6
    there (Generator's own check, run before p is read).  An unknown kind
    is InvalidParameterError, as in Generator and parse_generator.
    """
    _check_param(kind, p)
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
        return Generator(f"power:{_spec_number(pf)}", _POSITIVE, lambda x: x ** pf,
                         lambda y: y ** (1.0 / pf),
                         lambda x: pf * x ** (pf - 1.0), "increasing",
                         kind="power", param=pf)
    if kind == "exp":
        return Generator("exp", _REAL_LINE, np.exp, np.log, np.exp, "increasing", kind="exp")
    raise InvalidParameterError(f"unknown generator kind {kind!r}")


def parse_generator(spec: str) -> Generator:
    """Parse a built-in generator spec string: "identity", "log",
    "reciprocal", "power:2.0" or "exp", surrounding whitespace ignored.
    Anything else is InvalidParameterError."""
    if not isinstance(spec, str):
        raise InvalidParameterError(f"generator spec must be a string, got {spec!r}")
    spec = spec.strip()
    if spec.partition(":")[0] in BUILTIN_KINDS:
        return _parse_builtin(spec)
    raise InvalidParameterError(f"unknown generator spec {spec!r}")


# Generators are immutable, so a builtin spec always parses to the same
# generator; a raising spec is not cached.
@functools.lru_cache(maxsize=256)
def _parse_builtin(spec: str) -> Generator:
    head, _, tail = spec.partition(":")
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


def min_slope(g: Generator, B: Interval, grid_points: int = 10001) -> float:
    """Grid estimate of inf |g'| on B (an upper bound of the true inf)."""
    xs = _require_box(B, "B", g).grid(require_count(grid_points, "grid_points", 2))
    with np.errstate(all="ignore"):
        return _least_slope(_vectorized(g.derivative, xs, "derivative", g.name), g.name, B)


def _least_slope(slopes, name: str, B: Interval) -> float:
    """min |g'| over slopes, an array of the g' of generator `name` on B
    (under the caller's np.errstate): NumericError if it is not finite, and
    DegenerateSlopeError if it is at most _DEGENERATE_TOL."""
    m = float(np.min(np.abs(slopes)))
    if not math.isfinite(m):
        raise NumericError(f"slope of generator {name!r} is not finite on [{B.lo}, {B.hi}]")
    if m <= _DEGENERATE_TOL:
        raise DegenerateSlopeError(
            f"generator {name!r} has vanishing slope on [{B.lo}, {B.hi}] (min |g'| = {m:g})")
    return m


def normalize_increasing(g: Generator) -> Generator:
    """Return g itself if increasing, else the negated (increasing) form
    -1*g+0 of affine_transform.

    The quasi-arithmetic mean is invariant under g -> -g, so the negated
    generator defines exactly the same mean.
    """
    return g if g.increasing else affine_transform(g, -1.0, 0.0)


def affine_transform(g: Generator, a: float, b: float) -> Generator:
    """The generator a*g + b (a != 0); defines the same mean as g."""
    _require_instance(g, Generator, "g", "a Generator")
    _require_real(a, "a")
    _require_real(b, "b")
    if not (a != 0 and math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameterError(f"affine transform requires finite a != 0 and b, got {a}, {b}")
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

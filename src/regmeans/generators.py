"""Generator functions for quasi-arithmetic means.

A generator is a continuous, strictly monotone function g on an interval
domain, carried together with its inverse and derivative.  Its direction
is not part of it: a*g + b (a != 0) generates the same mean, so g and -g
are one mean, and the certificates read the direction off the box.  The
built-ins cover the classical means:

    identity    arithmetic mean         domain (-inf, inf)
    log         geometric mean          domain (0, inf)
    reciprocal  harmonic mean           domain (0, inf), decreasing
    power       power mean, p > 0       domain (0, inf)
    exp         exponential mean        domain (-inf, inf)

All three callables are elementwise.  The library calls a custom
generator's on float arrays only, a single value as a one-value array, and
checks on every call that each returns an array of its argument's shape
(_vectorized).  The callables the library owns, those the built-in
generators share (_OWNED), are called directly, and a single value goes to
them as a numpy float (_at): on a short sample the check and a one-value
array had cost more than the arithmetic.
Generators are immutable; every operation here is pure.  parse_generator
reads the built-in specs only; a custom generator is a Generator object,
passed as such wherever a generator is taken.  Only make_builtin sets a
generator's kind and param, so a built-in kind, which picks closed forms
and anchored means, sits only beside the library's own callables;
dataclasses.replace of a built-in is a custom generator.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
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
    "affine_transform",
]

BUILTIN_KINDS = ("identity", "log", "reciprocal", "power", "exp")

# Below this, a grid slope is treated as zero (strict monotonicity lost).
_DEGENERATE_TOL = 1e-12

# Below this many values Interval.require_interior takes the min and max of
# a Python list: the whole check took 1.6 us on 16 values against 2.7 us
# through numpy's two reductions, whose cost hardly grows with size; the
# list's (tolist, min, max and a sum for NaN) reaches theirs between 32 and
# 40 values (best of 15, 2-vCPU host).
_LIST_BELOW = 36

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
        if arr.size < _LIST_BELOW:
            values = arr.ravel().tolist()
            lo, hi = min(values), max(values)
            # the same floats as numpy's, but for two cases left to it: a
            # NaN that is not first, which min and max skip and a sum does
            # not, and a zero extreme, whose sign numpy picks
            if self.lo < lo and hi < self.hi and lo and hi and not math.isnan(sum(values)):
                return lo, hi
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
    """fn(x) as a float array of x's shape (x a float array), else
    ConfigurationError naming what, "<what> of generator <name>" for one of
    a generator's callables: every call of those on caller data is here or
    in _at.  A callable the library owns is called directly."""
    if _OWNED.get(id(fn)) is fn:
        return fn(x)
    try:
        y = np.asarray(fn(x), dtype=float)
        if y.shape == x.shape:
            return y
        fault = f"mapped {x.size} values to shape {y.shape}; it must be vectorized"
    except (TypeError, ValueError) as exc:  # a scalar-only fn, e.g. one built on math
        fault = f"must be vectorized: {exc}"
    owner = what if name is None else f"{what} of generator {name!r}"
    raise ConfigurationError(f"{owner} {fault}")


def _at(fn, y: float, what: str, name: str | None = None) -> float:
    """fn at the one value y, as a float: through _vectorized on a
    one-value array, the argument a custom callable is promised, or on a
    numpy float when the library owns fn.  A ufunc runs the same loop on
    either, and * and / round alike, so the bits are the same."""
    if _OWNED.get(id(fn)) is fn:
        return float(fn(np.float64(y)))
    return _vectorized(fn, np.array([y]), what, name).item()


@dataclass(frozen=True)
class Generator:
    """A strictly monotone generator g, increasing or decreasing, with its
    inverse and derivative.  A domain that is not an Interval is
    InvalidParameterError.

    ``kind`` is one of the built-in kind names, set by make_builtin, or
    "custom"; closed-form moments and the anchored exp and power means key
    off it.  ``param`` is the exponent of a power generator, else None.
    Neither is a constructor argument.
    """

    name: str
    domain: Interval
    forward: Callable
    inverse: Callable
    derivative: Callable
    kind: str = field(default="custom", init=False)
    param: float | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        _require_interval(self.domain, "domain")


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


def _times_one(x):
    return x * 1.0


def _reciprocal(x):
    return 1.0 / x


# The forwards and inverses of the built-in generators but power's, whose
# callables close over their exponent, by identity (id -> callable, so that
# an unhashable custom callable can be looked up): each maps a float array
# to a float array of its shape.  numpy's log and exp are used as they are,
# so a custom generator built on them is served alike.  log's and exp's
# derivatives are among them; identity's and reciprocal's, which no mean
# calls, keep the check.
_OWNED = {id(fn): fn for fn in (_times_one, _reciprocal, np.log, np.exp)}


_REAL_LINE = Interval(-math.inf, math.inf)
_POSITIVE = Interval(0.0, math.inf)


def make_builtin(kind: str, p: float | None = None) -> Generator:
    """Construct one of the built-in generators, the one place a kind and
    param are set.

    ``p`` is only meaningful for kind="power" and must be at least 1e-6
    there (_check_param, run before p is read).  An unknown kind is
    InvalidParameterError, as in parse_generator.
    """
    _check_param(kind, p)
    if kind == "identity":
        g = Generator("identity", _REAL_LINE, _times_one, _times_one, _ones_like)
    elif kind == "log":
        g = Generator("log", _POSITIVE, np.log, np.exp, _reciprocal)
    elif kind == "reciprocal":
        g = Generator("reciprocal", _POSITIVE, _reciprocal, _reciprocal,
                      lambda x: -1.0 / (x * x))
    elif kind == "power":
        p = float(p)
        g = Generator(f"power:{_spec_number(p)}", _POSITIVE, lambda x: x ** p,
                      lambda y: y ** (1.0 / p), lambda x: p * x ** (p - 1.0))
    elif kind == "exp":
        g = Generator("exp", _REAL_LINE, np.exp, np.log, np.exp)
    else:
        raise InvalidParameterError(f"unknown generator kind {kind!r}")
    object.__setattr__(g, "kind", kind)
    object.__setattr__(g, "param", p)
    return g


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


def affine_transform(g: Generator, a: float, b: float) -> Generator:
    """The generator a*g + b (a != 0); defines the same mean as g."""
    _require_instance(g, Generator, "g", "a Generator")
    _require_real(a, "a")
    _require_real(b, "b")
    if not (a != 0 and math.isfinite(a) and math.isfinite(b)):
        raise InvalidParameterError(f"affine transform requires finite a != 0 and b, got {a}, {b}")
    fwd, inv, der = g.forward, g.inverse, g.derivative
    return Generator(
        name=f"{a:g}*{g.name}{b:+g}",
        domain=g.domain,
        forward=lambda x: a * fwd(x) + b,
        inverse=lambda y: inv((y - b) / a),
        derivative=lambda x: a * der(x),
    )

"""Average investment returns as a geometric mean.

With period returns r1..rn, terminal wealth is w0 * prod(1 + rt), and the
average gross return per period is the geometric mean of the gross returns
— the quasi-arithmetic mean under the log generator.  The mean-variance
shortcut exp(rbar - (rbar**2 + s2)/2) approximates that geometric mean for
small returns.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

from .distributions import _in_range
from .errors import ConfigurationError, DomainError, InvalidParameterError, NumericError
from .generators import _require_instance

__all__ = [
    "ReturnSeries",
    "wealth_path",
    "geometric_average_return",
    "markowitz_approximation",
]

# wealth_path's band for its running product: 2**-969 times the least
# gross return, 2**-53, is the least normal float, 2**-1022; m is set back
# to 2**-484, about half way in log2, when a step leaves the band.
_FLOOR = 2.0 ** -969
_MIDDLE_EXP = 484
_MIDDLE = 2.0 ** -_MIDDLE_EXP


@dataclass(frozen=True)
class ReturnSeries:
    """Period returns as unitless fractions (0.05 means +5%) plus initial
    wealth.  Every gross return 1 + rt must be positive."""

    returns: tuple
    w0: float = 1.0

    def __post_init__(self):
        try:
            returns = tuple(float(r) for r in self.returns)
        except (TypeError, ValueError):
            raise ConfigurationError(f"returns must be numbers, got {self.returns!r}") from None
        object.__setattr__(self, "returns", returns)
        if len(returns) == 0:
            raise ConfigurationError("return series must be nonempty")
        if not (isinstance(self.w0, numbers.Real) and 0.0 < self.w0 < math.inf):
            raise InvalidParameterError(f"initial wealth must be positive and finite, got {self.w0}")
        for r in returns:
            if not (1.0 + r > 0.0 and math.isfinite(r)):
                raise DomainError(f"return {r} must be finite with a positive gross return 1 + r")


def _series(series: ReturnSeries | Sequence[float]) -> ReturnSeries:
    """series as a ReturnSeries; InvalidParameterError when it is neither
    one nor an iterable of returns."""
    if isinstance(series, ReturnSeries):
        return series
    _require_instance(series, Iterable, "series", "a ReturnSeries or an iterable of returns")
    return ReturnSeries(tuple(series))


def wealth_path(series: ReturnSeries | Sequence[float]) -> float:
    """Terminal wealth w0 * (1+r1) * ... * (1+rn); NumericError when it
    overflows a float or underflows the normal float range
    (distributions._in_range).

    The running product m * 2**e keeps m in [_FLOOR, 1), so no partial
    product leaves the normal range before w0 scales it, whatever the
    returns: a gross return lies in [2**-53, max float], and m times it
    stays normal and finite.  A step that leaves the band sets m back to
    its middle by a power of two, exact, so a product that the plain
    chain keeps in range has the plain chain's bits."""
    s = _series(series)
    m, e = _MIDDLE, _MIDDLE_EXP
    for r in s.returns:
        m *= 1.0 + r
        if not _FLOOR <= m < 1.0:
            m, k = math.frexp(m)
            m, e = m * _MIDDLE, e + k + _MIDDLE_EXP
    m, k = math.frexp(m)
    w0, e0 = math.frexp(s.w0)
    return _in_range(lambda: math.ldexp(w0 * m, e0 + e + k), lambda: "terminal wealth",
                     lambda: f"{len(s.returns)} periods")


def geometric_average_return(series: ReturnSeries | Sequence[float]) -> float:
    """Average gross return per period: (prod(1+rt))**(1/n), in log-space."""
    s = _series(series)
    return math.exp(math.fsum(math.log1p(r) for r in s.returns) / len(s.returns))


def markowitz_approximation(series: ReturnSeries | Sequence[float], ddof: int = 0) -> float:
    """exp(rbar - (rbar**2 + s2)/2), the mean-variance approximation of the
    geometric average gross return.

    s2 uses divisor n - ddof; the default ddof=0 (population form) is the
    convention under which the approximation identity is derived.  A single
    period has s2 = 0 under either convention.  NumericError when
    rbar**2 + s2 overflows.
    """
    s = _series(series)
    n = len(s.returns)
    if ddof not in (0, 1):
        raise InvalidParameterError(f"ddof must be 0 or 1, got {ddof!r}")
    try:
        rbar = math.fsum(s.returns) / n
        if n - ddof <= 0:
            s2 = 0.0
        else:
            s2 = math.fsum((r - rbar) ** 2 for r in s.returns) / (n - ddof)
        spread = rbar * rbar + s2
    except OverflowError:  # from fsum or ** on finite operands
        spread = math.inf
    if not math.isfinite(spread):
        raise NumericError(f"rbar**2 + s2 overflows over {n} returns")
    return math.exp(rbar - spread / 2.0)

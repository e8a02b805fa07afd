"""Exception hierarchy.

Two branches matter to callers: ConfigurationError (bad inputs, caught before
any numerics run — CLI exit code 2) and NumericError (the computation itself
failed or the requested quantity does not exist — CLI exit code 3).
"""

__all__ = [
    "RegularMeanError",
    "ConfigurationError",
    "DomainError",
    "InvalidParameterError",
    "NumericError",
    "ConvergenceError",
    "DivergenceError",
    "DegenerateSlopeError",
]


class RegularMeanError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(RegularMeanError):
    """Invalid configuration or input; nothing was computed."""


class DomainError(ConfigurationError):
    """A value lies outside the domain it is required to be in."""


class InvalidParameterError(ConfigurationError):
    """A parameter violates its documented precondition."""


class NumericError(RegularMeanError):
    """A numeric computation failed."""


class ConvergenceError(NumericError):
    """An iterative method exhausted its budget without converging."""


class DivergenceError(NumericError):
    """A requested integral or moment diverges."""


class DegenerateSlopeError(NumericError):
    """A derivative is zero (or numerically indistinguishable from zero)
    where strict monotonicity is required."""

"""Quasi-arithmetic (regular) means.

Generators, the induced means and their axioms, generalized expected values,
normal and Edgeworth asymptotics for the sampling error, a Monte Carlo
verification harness, generator-perturbation stability bounds, and the
geometric-return portfolio application.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticSpec,
    GMoments,
    asymptotic_variance,
    edgeworth_cdf,
    edgeworth_corrections,
    expect,
    g_moments,
    kolmogorov_expectation,
    phi_cdf,
    phi_pdf,
)
from .distributions import (
    DistributionModel,
    Gamma,
    LogNormal,
    Pareto,
    Uniform,
    parse_distribution,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DegenerateSlopeError,
    DivergenceError,
    DomainError,
    InvalidParameterError,
    NumericError,
    OutOfRangeError,
    RegularMeanError,
)
from .figures import reproduce_figure1, reproduce_figure2
from .generators import (
    Generator,
    Interval,
    affine_transform,
    invert,
    make_builtin,
    min_slope,
    normalize_increasing,
    parse_generator,
)
from .means import (
    AxiomCheck,
    AxiomReport,
    check_axioms,
    exp_mean_stable,
    mean,
    power_mean,
)
from .portfolio import (
    ReturnSeries,
    geometric_average_return,
    markowitz_approximation,
    wealth_path,
)
from .simulation import (
    EdgeworthComparison,
    ScenarioConfig,
    SimulationReport,
    compare_edgeworth,
    empirical_cdf,
    ks_statistic,
    run_scenario,
)
from .stability import (
    StabilityReport,
    blend_distances,
    theorem4_bound,
    verify_stability,
)

__all__ = [
    "__version__",
    # errors
    "RegularMeanError", "ConfigurationError", "DomainError", "OutOfRangeError",
    "InvalidParameterError", "NumericError", "ConvergenceError",
    "DivergenceError", "DegenerateSlopeError",
    # generators
    "Interval", "Generator", "make_builtin", "parse_generator",
    "invert", "min_slope", "normalize_increasing", "affine_transform",
    # means
    "mean", "power_mean", "exp_mean_stable", "check_axioms",
    "AxiomCheck", "AxiomReport",
    # distributions
    "LogNormal", "Gamma", "Uniform", "Pareto", "DistributionModel",
    "parse_distribution",
    # asymptotics
    "GMoments", "AsymptoticSpec", "expect", "kolmogorov_expectation",
    "g_moments", "asymptotic_variance", "phi_cdf", "phi_pdf",
    "edgeworth_corrections", "edgeworth_cdf",
    # simulation
    "ScenarioConfig", "SimulationReport", "run_scenario", "ks_statistic",
    "empirical_cdf", "EdgeworthComparison", "compare_edgeworth",
    # stability
    "StabilityReport", "theorem4_bound", "verify_stability", "blend_distances",
    # portfolio
    "ReturnSeries", "wealth_path", "geometric_average_return",
    "markowitz_approximation",
    # figures
    "reproduce_figure1", "reproduce_figure2",
]

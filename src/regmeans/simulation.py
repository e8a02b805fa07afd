"""Monte Carlo verification harness.

Draws replicate samples, computes the quasi-arithmetic mean of each, and
compares the standardized statistics against their limiting normal law (and
against the Edgeworth-corrected approximation).  Replicates are drawn in
fixed-size blocks: each block gets its own RNG stream spawned from the master
seed, draws a (rows, n) matrix in one call and takes all its row means in one
vectorized pass.  The block layout depends only on n and the replicate
count, so the output bits depend on (seed, n, replicates) alone and are
identical for any thread count.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (
    AsymptoticSpec,
    GMoments,
    asymptotic_variance,
    edgeworth_cdf,
    g_moments,
    phi_cdf,
)
from .distributions import Pareto, Uniform
from .errors import ConfigurationError, DivergenceError, InvalidParameterError
from .generators import Generator, Interval
from .means import row_means

__all__ = [
    "ScenarioConfig",
    "SimulationReport",
    "run_scenario",
    "ks_statistic",
    "EmpiricalCdf",
    "empirical_cdf",
    "EdgeworthComparison",
    "compare_edgeworth",
]


@dataclass(frozen=True)
class ScenarioConfig:
    dist: object
    generator: Generator
    n: int
    replicates: int
    seed: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidParameterError("sample size n must be >= 2")
        if self.replicates < 1:
            raise InvalidParameterError("replicates must be >= 1")

    def echo(self) -> dict:
        return {
            "dist": self.dist.spec if hasattr(self.dist, "spec") else repr(self.dist),
            "generator": self.generator.name,
            "n": self.n,
            "replicates": self.replicates,
            "seed": self.seed,
        }


@dataclass
class SimulationReport:
    statistics: np.ndarray          # standardized, one per replicate
    scaled_errors: np.ndarray       # sqrt(n)*(M_g - E_g), unstandardized
    ks_vs_normal: float
    empirical_var: float
    asymptotic: AsymptoticSpec
    edgeworth_sup_gap: float
    metadata: dict = field(default_factory=dict)


# Sample elements per replicate block: rows = max(1, _BLOCK_ELEMENTS // n).
# Small enough that a block's draws and transforms stay in cache and peak
# memory does not grow; large enough that per-block set-up is negligible.
_BLOCK_ELEMENTS = 2 ** 14


def _support_in_domain(g: Generator, dist) -> bool:
    dom, sup = g.domain, dist.support
    # Uniform/Pareto samplers can emit the lower support endpoint exactly;
    # the continuous-start families cannot.
    attains_lo = isinstance(dist, (Uniform, Pareto))
    if dom.lo != -math.inf and (sup.lo < dom.lo or (sup.lo == dom.lo and attains_lo)):
        return False
    if dom.hi != math.inf and sup.hi > dom.hi:
        return False
    return True


def run_scenario(cfg: ScenarioConfig, threads: int = 1) -> SimulationReport:
    """Run one (distribution x generator) scenario.

    Raises ConfigurationError when the distribution's support leaves the
    generator's domain, and DivergenceError when var(g(X)) diverges — both
    before any sampling.  Replicates are drawn in blocks of
    max(1, _BLOCK_ELEMENTS // n) rows, one spawned RNG stream per block, so
    the statistics depend on (seed, n, replicates) only.  With threads > 1
    the blocks run on a thread pool; the statistics vector is identical
    regardless.
    """
    g, dist = cfg.generator, cfg.dist
    if not _support_in_domain(g, dist):
        raise ConfigurationError(
            f"support of {dist.spec!r} is not inside the domain of generator {g.name!r}")
    spec = asymptotic_variance(g, dist)  # raises DivergenceError on infinite var(g(X))
    if not spec.asym_var > 0:
        raise DivergenceError("degenerate (zero) asymptotic variance")

    t0 = time.perf_counter()
    n, rows = cfg.n, max(1, _BLOCK_ELEMENTS // cfg.n)
    starts = range(0, cfg.replicates, rows)
    streams = np.random.SeedSequence(cfg.seed).spawn(len(starts))
    means = np.empty(cfg.replicates, dtype=float)

    def block(k: int) -> None:
        lo = starts[k]
        hi = min(lo + rows, cfg.replicates)
        rng = np.random.default_rng(streams[k])
        # a flat draw fills the same values in the same order as shape (rows, n)
        x = dist.sample((hi - lo) * n, rng).reshape(hi - lo, n)
        means[lo:hi] = row_means(g, x)

    if threads <= 1:
        for k in range(len(starts)):
            block(k)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(block, range(len(starts))))

    scaled = math.sqrt(cfg.n) * (means - spec.eg)
    stats = scaled / math.sqrt(spec.asym_var)
    ks = ks_statistic(stats, phi_cdf)
    emp_var = float(np.var(scaled, ddof=1)) if cfg.replicates > 1 else 0.0

    try:
        mom = g_moments(g, dist)
        egap = ks_statistic(stats, lambda t: edgeworth_cdf(t, cfg.n, mom))
    except DivergenceError:
        egap = math.nan  # third/fourth moment of g(X) diverges; expansion undefined

    runtime_ms = (time.perf_counter() - t0) * 1000.0
    return SimulationReport(
        statistics=stats,
        scaled_errors=scaled,
        ks_vs_normal=ks,
        empirical_var=emp_var,
        asymptotic=spec,
        edgeworth_sup_gap=egap,
        metadata={"config": cfg.echo(), "threads": threads, "runtime_ms": runtime_ms},
    )


def ks_statistic(values, reference_cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF of values
    and a reference CDF, a vectorized callable: it must map the sorted values
    to an array of their shape, else ConfigurationError."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ConfigurationError("ks_statistic needs at least one value")
    try:
        f = np.asarray(reference_cdf(v), dtype=float)
    except (TypeError, ValueError) as exc:  # a scalar-only CDF, e.g. one built on math
        raise ConfigurationError(f"reference CDF must be vectorized: {exc}") from None
    if f.shape != v.shape:
        raise ConfigurationError(
            f"reference CDF mapped {v.shape[0]} values to shape {f.shape}; "
            "it must be vectorized")
    n = v.size
    d_hi = np.max(np.arange(1, n + 1) / n - f)
    d_lo = np.max(f - np.arange(0, n) / n)
    return float(max(d_hi, d_lo))


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF: sorted values with cumulative
    probabilities i/N."""

    values: np.ndarray
    probs: np.ndarray

    def at(self, x):
        idx = np.searchsorted(self.values, x, side="right")
        out = np.asarray(idx, dtype=float) / self.values.size
        return float(out) if np.ndim(x) == 0 else out


def empirical_cdf(values) -> EmpiricalCdf:
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ConfigurationError("empirical_cdf needs at least one value")
    return EmpiricalCdf(values=v, probs=np.arange(1, v.size + 1) / v.size)


@dataclass(frozen=True)
class EdgeworthComparison:
    xs: np.ndarray
    empirical: np.ndarray
    phi: np.ndarray
    edgeworth: np.ndarray
    sup_gap_phi: float
    sup_gap_edgeworth: float


def compare_edgeworth(report: SimulationReport, mom: GMoments, n: int,
                      grid: Interval = Interval(-3.0, 3.0),
                      steps: int = 121) -> EdgeworthComparison:
    """Tabulate empirical vs normal vs Edgeworth CDFs of the standardized
    statistics on a grid, with the sup gap of each approximation."""
    ecdf = empirical_cdf(report.statistics)
    xs = grid.grid(steps)
    emp = ecdf.at(xs)
    phi = phi_cdf(xs)
    edge = edgeworth_cdf(xs, n, mom)
    return EdgeworthComparison(
        xs=xs, empirical=emp, phi=phi, edgeworth=edge,
        sup_gap_phi=float(np.max(np.abs(emp - phi))),
        sup_gap_edgeworth=float(np.max(np.abs(emp - edge))),
    )

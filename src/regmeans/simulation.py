"""Monte Carlo verification harness.

Draws replicate samples, computes the quasi-arithmetic mean of each, and
compares the standardized statistics against their limiting normal law (and
against the Edgeworth-corrected approximation).  Replicates are drawn in
fixed-size blocks: each block gets its own RNG stream spawned from the master
seed, draws a (rows, n) matrix in one call and takes all its row means in one
vectorized pass.  The block layout depends only on n and the replicate
count, so the output bits depend on (seed, n, replicates) alone and are
identical for any thread count.  run_scenario's own threads spread one
scenario's blocks over a pool; the figure grids instead run whole scenarios
side by side, each single-threaded (see figures).  With blocks of 2**15
elements the block pool gains where a value is costly to draw or transform
and about breaks even where it is cheap.  On a 2-vCPU host (median of 5,
one thread -> two): Gamma(100,1) x log, n = 1000, 2*10**4 replicates,
937 -> 638 ms; LogNormal(2,1) x identity, n = 10**4, 292 -> 219 ms;
Uniform(1,2) x reciprocal, n = 100, 10**5 replicates, 144 -> 150 ms.

Both pools are one ordered map, thread_map, each with its thread count
checked by generators.require_count.  SimulationReport.as_dict is the one
report schema: the CLI's simulate payload and every figure cell's report file.

The tail of a run, from the statistics to the two KS gaps, sorts the
statistics once and evaluates Phi once on the sorted values.  Both gaps,
against Phi and against the Edgeworth CDF built on that same Phi, go through
one kernel, _ks_sup, with one array of steps i/N and one scratch array, and
the Edgeworth terms are written into reused buffers (see asymptotics).  The
gaps keep the bits of two ks_statistic calls.  ks_statistic, empirical_cdf
and run_scenario share one sort-and-check, _sorted_values.  On a 2-vCPU
host the tails of the four mc_small_n scenarios (20 000 replicates each)
went from about 9.8 to 6.2 ms per pass (median of 200 passes).
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
    _edgeworth_cdf,
    asymptotic_variance,
    g_moments,
    phi_cdf,
)
from .distributions import Pareto, Uniform
from .errors import ConfigurationError, DivergenceError, DomainError
from .generators import Generator, Interval, require_count
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
        for name, least in (("n", 2), ("replicates", 1), ("seed", 0)):
            object.__setattr__(self, name, require_count(getattr(self, name), name, least))

    def echo(self) -> dict:
        return {
            "dist": self.dist.spec,
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

    def as_dict(self) -> dict:
        """The report's JSON keys; a NaN Edgeworth gap (a third or fourth
        moment of g(X) diverges) is None."""
        gap = self.edgeworth_sup_gap
        return {
            "config": self.metadata["config"],
            "eg": self.asymptotic.eg,
            "asym_var": self.asymptotic.asym_var,
            "empirical_var": self.empirical_var,
            "ks": self.ks_vs_normal,
            "edgeworth_sup_gap": None if math.isnan(gap) else gap,
            # wall time, which may be shared with other scenarios in flight:
            # the one run-varying key; the thread count is deliberately not
            # here, as the other keys must not depend on it
            "runtime_ms": self.metadata["runtime_ms"],
        }


# Sample elements per replicate block: rows = max(1, _BLOCK_ELEMENTS // n).
# Each block pays a fixed 50-80 us, mostly under the interpreter lock: a
# spawned SeedSequence and default_rng (about 24 us) and the set-up of
# sample and row_means.  On a 2-vCPU host, 2**15 halves the blocks of
# Figure 1 against 2**14 (756 -> 384 per pass) and ran the figure 26%
# faster, two cells at a time.  2**16 was slower than 2**15, by 15% on
# Figure 1 and 19% at n = 5 and 20: its 512 KiB draws and their
# temporaries outgrow a core's L2.
_BLOCK_ELEMENTS = 2 ** 15


def thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], in order, on up to threads (>= 1, checked by
    the callers) worker threads; one thread runs them inline."""
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


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
    regardless.  A block's draws and transforms release the interpreter lock
    but its set-up does not, so the pool gains where each value is costly to
    draw or transform and about breaks even where it is cheap (figures in
    the module docstring).  threads is an integer >= 1, else InvalidParameterError.
    """
    threads = require_count(threads, "threads", 1)
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

    thread_map(block, range(len(starts)), threads)

    scaled = np.subtract(means, spec.eg, out=means)  # sqrt(n)*(M_g - E_g), in place
    scaled *= math.sqrt(cfg.n)
    stats = scaled / math.sqrt(spec.asym_var)
    emp_var = float(np.var(scaled, ddof=1)) if cfg.replicates > 1 else 0.0

    # both KS gaps from one sort and one Phi; the Edgeworth CDF reuses the Phi
    v = _sorted_values(stats, "run_scenario")
    phi = phi_cdf(v)
    steps, scratch = _cdf_steps(v.size), np.empty_like(v)
    ks = _ks_sup(phi, steps, scratch)
    try:
        mom = g_moments(g, dist)
        egap = _ks_sup(_edgeworth_cdf(v, cfg.n, mom, phi), steps, scratch)
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
        metadata={"config": cfg.echo(), "runtime_ms": runtime_ms},
    )


def _sorted_values(values, owner: str) -> np.ndarray:
    """values flattened and sorted, as floats.  No value is
    ConfigurationError and a NaN value DomainError, naming owner."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    if v.size == 0:
        raise ConfigurationError(f"{owner} needs at least one value")
    if np.isnan(v[-1]):  # the sort puts NaNs last
        raise DomainError(f"{owner} got a NaN value")
    return v


def _cdf_steps(size: int) -> np.ndarray:
    """i/N for i = 1..N: the empirical CDF at its N sorted values."""
    return np.arange(1, size + 1) / size


def _ks_sup(f, steps, scratch) -> float:
    """The KS distance of N sorted values whose reference CDF values are f:
    the larger of max(i/N - f_i) and max(f_i - (i-1)/N), with steps from
    _cdf_steps(N) and scratch an array of N floats.  NaN if f holds a NaN."""
    d_hi = np.max(np.subtract(steps, f, out=scratch))
    # (i-1)/N is the step before, and 0 before the first
    np.subtract(f[1:], steps[:-1], out=scratch[1:])
    scratch[0] = f[0]
    d_lo = np.max(scratch)
    return float(max(d_hi, d_lo))  # d_hi first, so a NaN carries


def ks_statistic(values, reference_cdf) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF of values
    and a reference CDF, a vectorized callable: it must map the sorted values
    to an array of their shape, with no NaN, else ConfigurationError.  A NaN
    value is DomainError."""
    v = _sorted_values(values, "ks_statistic")
    try:
        f = np.asarray(reference_cdf(v), dtype=float)
    except (TypeError, ValueError) as exc:  # a scalar-only CDF, e.g. one built on math
        raise ConfigurationError(f"reference CDF must be vectorized: {exc}") from None
    if f.shape != v.shape:
        raise ConfigurationError(
            f"reference CDF mapped {v.shape[0]} values to shape {f.shape}; "
            "it must be vectorized")
    d = _ks_sup(f, _cdf_steps(v.size), np.empty_like(v))
    if math.isnan(d):
        raise ConfigurationError("reference CDF returned NaN for a value that is not NaN")
    return d


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical CDF of N sorted values: i/N at the i-th."""

    values: np.ndarray

    def at(self, x):
        idx = np.searchsorted(self.values, x, side="right")
        out = np.asarray(idx, dtype=float) / self.values.size
        return float(out) if np.ndim(x) == 0 else out


def empirical_cdf(values) -> EmpiricalCdf:
    """The empirical CDF of values; no value is ConfigurationError and a
    NaN value DomainError."""
    v = _sorted_values(values, "empirical_cdf")
    return EmpiricalCdf(values=v)


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
    xs = grid.grid(require_count(steps, "steps", 2))
    emp = ecdf.at(xs)
    phi = phi_cdf(xs)
    edge = _edgeworth_cdf(xs, n, mom, phi)
    return EdgeworthComparison(
        xs=xs, empirical=emp, phi=phi, edgeworth=edge,
        sup_gap_phi=float(np.max(np.abs(emp - phi))),
        sup_gap_edgeworth=float(np.max(np.abs(emp - edge))),
    )

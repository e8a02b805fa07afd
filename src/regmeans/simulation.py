"""Monte Carlo verification harness.

Draws replicate samples, computes the quasi-arithmetic mean of each, and
compares the standardized statistics against their limiting normal law (and
against the Edgeworth-corrected approximation).  The unit of work is one
distribution with one or more generators (_run_group; run_scenario is the
one-generator case).  Replicates are drawn in fixed-size blocks: each block
gets its own RNG stream spawned from the master seed and draws a (rows, n)
matrix in one call.  The block layout depends only on n and the replicate
count, so each generator's statistics depend on (seed, n, replicates)
alone: they are those of its own run_scenario, at any thread count.

A task of the pool covers two consecutive blocks (one where two would
leave a thread idle), drawn into consecutive rows of one matrix.  One min
and one max of that matrix decide every generator's domain, and each
generator takes the row means of all its rows in one vectorized pass, so
the generators of one distribution are compared on common random numbers.
Each row's mean depends on that row alone, so the statistics keep the bits
of one reduction per block.  Every numpy call of a worker gives up the
interpreter lock and must take it back, so fewer and longer calls are what
the pool gains by.  Against one block per task and a domain check per
generator and block, this and the file text built on the figures' workers
took the Figure 1 grid on two threads from a median of 80.0 to 68.0 ms on
a 2-vCPU host (10 interleaved benchmark runs each).  Four blocks per task
gained more but cost about 4 MB of peak memory (10% of a Figure 1 run), so
the task stays at two.  Only a value outside a domain (or a NaN) runs the
generators' domain checks over the task's rows, each naming its first
offender in row-major order: the first offending block's.

A run's threads spread its tasks over a pool (its gains are in the
README); the figure grids run their distributions side by side instead
(see figures).  Both pools are one ordered map, thread_map.  Each worker
thread draws its tasks into one buffer of two blocks, kept for the run
(sample's out): glibc returns freed memory at the top of its heap to the
system, so fresh draw arrays were faulted in again block after block.  On
a 2-vCPU host this and the tail's shared scratch below took the minor
page faults of an mc_small_n pass (four runs of 20 000 replicates) from
about 2730 to 890.
SimulationReport.as_dict is the one report schema: the CLI's simulate
payload and every figure cell's report file.

The tail of a run sorts each generator's statistics once and evaluates Phi
once on the sorted values.  Both KS gaps, against Phi and against the
Edgeworth CDF built on that same Phi, go through one kernel, _ks_sup, with
one array of steps i/N and one scratch array, which also holds the
Edgeworth polynomial factors; the Edgeworth terms are written into reused
buffers (see asymptotics), and the gaps keep the bits of two ks_statistic
calls.  ks_statistic, empirical_cdf and the tail share one
sort-and-check, _sorted_values.  On a 2-vCPU host the tails of the four
mc_small_n scenarios (20 000 replicates each) went from about 9.8 to 6.2 ms
per pass (median of 200 passes).
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .asymptotics import (AsymptoticSpec, GMoments, _edgeworth_cdf, _real_points,
                          _require_support, asymptotic_variance, g_moments, phi_cdf)
from .distributions import DistributionModel
from .errors import ConfigurationError, DivergenceError, DomainError
from .generators import (Generator, Interval, _real_array, _require_instance, _require_interval,
                         _vectorized, require_count)
from .means import row_means_in_domain

__all__ = ["ScenarioConfig", "SimulationReport", "run_scenario", "ks_statistic",
           "empirical_cdf", "EdgeworthComparison", "compare_edgeworth"]


@dataclass(frozen=True)
class ScenarioConfig:
    dist: DistributionModel
    generator: Generator
    n: int
    replicates: int
    seed: int

    def __post_init__(self):
        _require_instance(self.dist, DistributionModel, "dist", "a distribution model")
        _require_instance(self.generator, Generator, "generator", "a Generator")
        for name, least in (("n", 2), ("replicates", 1), ("seed", 0)):
            object.__setattr__(self, name, require_count(getattr(self, name), name, least))

    def echo(self) -> dict:
        return {"dist": self.dist.spec, "generator": self.generator.name, "n": self.n,
                "replicates": self.replicates, "seed": self.seed}


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
            # wall time, shared with other scenarios in flight and, in a group,
            # including the shared draws: the one run-varying key; the thread
            # count is deliberately not here, as the others must not depend on it
            "runtime_ms": self.metadata["runtime_ms"],
        }


# Sample elements per replicate block: rows = max(1, _BLOCK_ELEMENTS // n).
# Each block pays a fixed 50-80 us, mostly under the interpreter lock: a
# spawned SeedSequence and default_rng (about 24 us) and the set-up of
# sample and row_means.  On a 2-vCPU host, when each Figure 1 cell drew its
# own blocks, 2**15 halved them against 2**14 (756 -> 384 per pass) and ran
# the figure 26% faster.  2**16 was then slower than 2**15, by 15% on
# Figure 1 and 19% at n = 5 and 20.  Cache size does not explain it (the
# 2-vCPU host of these figures has 2 MiB of L2 per core); the page faults of
# fresh 512 KiB draws and their temporaries more likely did.  With the kept
# draw buffer, 2**16 measured about even with 2**15 (mc_small_n passes and
# single-threaded Figure 1, three runs each).  The block layout sets every
# Monte Carlo byte, so it stays; a pool task of two blocks (_run_group)
# halves the row-mean calls without changing it.
_BLOCK_ELEMENTS = 2 ** 15


def thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items], in order, on up to threads (>= 1, checked by
    the callers) worker threads; one thread runs them inline."""
    if threads == 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


def run_scenario(cfg: ScenarioConfig, threads: int = 1) -> SimulationReport:
    """Run one (distribution x generator) scenario, cfg a ScenarioConfig
    (else InvalidParameterError).

    Raises DomainError when the distribution's support leaves the
    generator's domain or its sampler can return an end of that domain, and
    DivergenceError when var(g(X)) diverges, both before any sampling.
    threads (an integer >= 1, else InvalidParameterError) spread the
    replicate blocks over a pool; the statistics do not depend on it.  A
    block's set-up holds the interpreter lock, so the pool gains only where
    values are costly to draw or transform."""
    cfg = _require_instance(cfg, ScenarioConfig, "cfg", "a ScenarioConfig")
    return _run_group([cfg], require_count(threads, "threads", 1))[0]


def _run_group(cfgs: list[ScenarioConfig], threads: int = 1) -> list[SimulationReport]:
    """run_scenario for scenarios that differ only in their generator, from
    one set of draws: each block is drawn once and every generator's row
    means are taken from it.  Each report has the bits of its own
    run_scenario.  Every generator's checks run before any draw."""
    dist, n, replicates = cfgs[0].dist, cfgs[0].n, cfgs[0].replicates
    specs = []
    for cfg in cfgs:
        g = cfg.generator
        _require_support(g, dist, sampled=True)
        # DivergenceError on infinite var(g(X)), NumericError on a limiting
        # variance beyond the float range or below the normal range
        specs.append(asymptotic_variance(g, dist))

    t0 = time.perf_counter()
    rows = max(1, _BLOCK_ELEMENTS // n)
    starts = range(0, replicates, rows)
    streams = np.random.SeedSequence(cfgs[0].seed).spawn(len(starts))
    # two blocks per task, unless that leaves a thread idle
    per = 2 if -(-len(starts) // 2) >= threads else 1
    means = np.empty((len(cfgs), replicates), dtype=float)  # one row per generator
    gens = [cfg.generator for cfg in cfgs]
    local = threading.local()  # each worker thread's draw buffer, kept for the run

    def task(k0: int) -> None:
        blocks = starts[k0:k0 + per]
        lo, hi = blocks[0], min(blocks[-1] + rows, replicates)
        if (buf := getattr(local, "buf", None)) is None:
            buf = local.buf = np.empty(min(per * rows, replicates) * n)
        # each block from its own stream, into consecutive rows; a flat draw
        # fills the same values in the same order as shape (rows, n)
        for k, start in enumerate(blocks, k0):
            a, b = (start - lo) * n, (min(start + rows, replicates) - lo) * n
            dist.sample(b - a, np.random.default_rng(streams[k]), out=buf[a:b])
        x = buf[:(hi - lo) * n].reshape(hi - lo, n)
        # one min and one max decide every generator's domain; else one raises
        x_lo = float(np.minimum.reduce(x, axis=None))
        x_hi = float(np.maximum.reduce(x, axis=None))
        if not all(x_lo > g.domain.lo and x_hi < g.domain.hi for g in gens):
            for g in gens:
                g.domain.require_interior(x, f"generator {g.name!r}")
        for g, row in zip(gens, means):
            row[lo:hi] = row_means_in_domain(g, x)

    thread_map(task, range(0, len(starts), per), threads)
    draw_s = time.perf_counter() - t0

    steps, scratch = _cdf_steps(replicates), np.empty(replicates)
    reports = []
    for cfg, spec, scaled in zip(cfgs, specs, means):
        t1 = time.perf_counter()
        scaled -= spec.eg  # sqrt(n)*(M_g - E_g), in place on the generator's row
        scaled *= math.sqrt(n)
        stats = scaled / math.sqrt(spec.asym_var)
        emp_var = float(np.var(scaled, ddof=1)) if replicates > 1 else 0.0

        # both KS gaps from one sort and one Phi; the Edgeworth CDF reuses the Phi
        v = _sorted_values(stats, "run_scenario")
        phi = phi_cdf(v)
        ks = _ks_sup(phi, steps, scratch)
        try:
            mom = g_moments(cfg.generator, dist)
            egap = _ks_sup(_edgeworth_cdf(v, n, mom, phi, scratch), steps, scratch)
        except DivergenceError:
            egap = math.nan  # third/fourth moment of g(X) diverges; expansion undefined

        runtime_ms = (draw_s + time.perf_counter() - t1) * 1000.0
        reports.append(SimulationReport(stats, scaled, ks, emp_var, spec, egap,
                                        {"config": cfg.echo(), "runtime_ms": runtime_ms}))
    return reports


def _sorted_values(values, owner: str) -> np.ndarray:
    """values flattened and sorted, as floats.  Values that are not real
    numbers are InvalidParameterError, no value is ConfigurationError and a
    NaN value DomainError, naming owner."""
    v = np.sort(_real_array(values, owner).ravel())
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
    f = _vectorized(reference_cdf, v, "reference CDF")
    d = _ks_sup(f, _cdf_steps(v.size), np.empty_like(v))
    if math.isnan(d):
        raise ConfigurationError("reference CDF returned NaN for a value that is not NaN")
    return d


@dataclass(frozen=True)
class _EmpiricalCdf:
    """Right-continuous empirical CDF of N sorted values: i/N at the i-th.
    It trusts values to be sorted floats, so only empirical_cdf builds it."""

    values: np.ndarray

    def at(self, x):
        """The CDF at x, a number or an array; a NaN is DomainError and a
        non-number (a string, None) InvalidParameterError."""
        arr, _ = _real_points(x, "empirical CDF")
        out = np.searchsorted(self.values, arr, side="right") / self.values.size
        return float(out) if arr.ndim == 0 else out


def empirical_cdf(values) -> _EmpiricalCdf:
    """The empirical CDF of values; no value is ConfigurationError and a
    NaN value DomainError."""
    v = _sorted_values(values, "empirical_cdf")
    return _EmpiricalCdf(values=v)


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
    statistics on a grid, with the sup gap of each approximation.  report
    is a SimulationReport, mom a GMoments and grid an Interval, else
    InvalidParameterError."""
    _require_instance(report, SimulationReport, "report", "a SimulationReport")
    _require_instance(mom, GMoments, "mom", "a GMoments")
    ecdf = empirical_cdf(report.statistics)
    xs = _require_interval(grid, "grid").grid(require_count(steps, "steps", 2))
    emp = ecdf.at(xs)
    phi = phi_cdf(xs)
    edge = _edgeworth_cdf(xs, n, mom, phi)
    return EdgeworthComparison(
        xs=xs, empirical=emp, phi=phi, edgeworth=edge,
        sup_gap_phi=float(np.max(np.abs(emp - phi))),
        sup_gap_edgeworth=float(np.max(np.abs(emp - edge))),
    )

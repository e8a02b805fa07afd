"""The four workloads.  Each one builds its inputs in set-up, runs identical
passes over them, and checks every pass's outputs afterwards.

Calls go through ``regmeans`` module attributes at call time (``rm.mean``),
so the tracer's wrappers see them.  An operation is the unit counted in
``attempted``/``failed`` and in ``ops_per_s``: a replicate (mc_*), a request
(mean_requests) or a certificate (certify).
"""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import regmeans as rm

import inputs
import oracles
from spans import ROOT_SPAN

NPROC = len(os.sched_getaffinity(0))
_NO_SPAN = contextlib.nullcontext()


def _no_pause() -> None:
    pass


@dataclass
class PassResult:
    ops: int
    units: np.ndarray      # (end, seconds) of each timed call in the pass
    outputs: object

    def __post_init__(self):
        # one compact array per pass: peak memory should depend little on
        # how many passes a run fits in, which a faster library raises
        self.units = np.asarray(self.units, dtype=float).reshape(-1, 2)

    @property
    def wall_s(self) -> float:
        return float(self.units[:, 1].sum())


class Answers(NamedTuple):
    values: np.ndarray     # one result per request, NaN where it raised
    errors: dict           # request index -> the exception it raised


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0        # wrong answers + unexpected exceptions
    wrong: int = 0         # wrong answers alone
    failures: set = field(default_factory=set)   # what failed, one line per kind
    errors: list = field(default_factory=list)   # oracle failures beyond `failed`


def _span(tracer, op: str):
    return tracer.span(ROOT_SPAN, op) if tracer else _NO_SPAN


class McGrid:
    """reproduce_figure1: 12 cells, n=1000, 1000 replicates, threads=nproc."""

    name = "mc_grid"
    latency_of = "pass"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: Path):
        self.seed = inputs.derive_seed(seed, 1)
        self.n, self.replicates = sizes.grid_n, sizes.grid_replicates
        self.cells = len(inputs.GRID_DISTS) * len(inputs.GRID_GENERATORS)
        self.threads = NPROC
        self.workdir = workdir

    def properties(self) -> dict:
        return {"cells": self.cells, "n": self.n, "replicates_per_cell": self.replicates,
                "threads": self.threads, "ops_per_pass": self.cells * self.replicates,
                "op": "replicate"}

    def _run(self, out: Path, replicates: int) -> dict:
        return rm.reproduce_figure1(out, seed=self.seed, n=self.n,
                                    replicates=replicates, threads=self.threads)

    def warm_up(self) -> None:
        out = self.workdir / "warm"
        self._run(out, 20)
        shutil.rmtree(out)

    def run_pass(self, index: int, tracer=None, pause=_no_pause) -> PassResult:
        out = self.workdir / f"pass{index}"
        with _span(tracer, f"{index}"):
            t0 = time.perf_counter()
            result = self._run(out, self.replicates)
            t1 = time.perf_counter()
        if tracer:
            tracer.count("figures.bytes_written",
                         sum(p.stat().st_size for p in out.iterdir()))
        summary = (out / "summary.csv").read_bytes()
        shutil.rmtree(out)
        ops = self.cells * self.replicates
        return PassResult(ops, [(t1, t1 - t0)], (summary, result["cells"]))

    def check(self, passes: list[PassResult]) -> Verdict:
        v = Verdict()
        for p in passes:
            _, rows = p.outputs
            v.attempted += p.ops
            if len(rows) != self.cells:
                v.errors.append(f"summary has {len(rows)} cells, expected {self.cells}")
            for r in rows:
                if not oracles.cell_is_correct(r, self.replicates):
                    v.wrong += self.replicates
                    v.failures.add(f"cell {r['dist']} x {r['generator']}: outside the bands")
        v.failed = v.wrong
        if not oracles.identical([p.outputs[0] for p in passes]):
            v.errors.append("summary.csv differs between passes")
        return v


class McSmallN:
    """run_scenario (threads=1) + compare_edgeworth at n in {5, 20}."""

    name = "mc_small_n"
    latency_of = "pass"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: Path):
        self.scenarios = inputs.make_scenarios(seed, sizes)
        self.configs = [rm.ScenarioConfig(dist=rm.parse_distribution(s.dist),
                                          generator=rm.parse_generator(s.generator),
                                          n=s.n, replicates=s.replicates, seed=s.seed)
                        for s in self.scenarios]

    def properties(self) -> dict:
        return {"scenarios": [f"{s.dist}x{s.generator}@n={s.n}" for s in self.scenarios],
                "replicates_per_scenario": self.scenarios[0].replicates, "threads": 1,
                "ops_per_pass": sum(s.replicates for s in self.scenarios),
                "op": "replicate"}

    @staticmethod
    def _scenario(cfg):
        report = rm.run_scenario(cfg, threads=1)
        mom = rm.g_moments(cfg.generator, cfg.dist)
        return report, mom, rm.compare_edgeworth(report, mom, cfg.n)

    def warm_up(self) -> None:
        for cfg in self.configs:
            self._scenario(rm.ScenarioConfig(cfg.dist, cfg.generator, cfg.n, 200, cfg.seed))

    def run_pass(self, index: int, tracer=None, pause=_no_pause) -> PassResult:
        stats, gaps, units = [], [], []
        for i, cfg in enumerate(self.configs):
            with _span(tracer, f"{index}.{i}"):
                t0 = time.perf_counter()
                report, mom, cmp = self._scenario(cfg)
                t1 = time.perf_counter()
            units.append((t1, t1 - t0))
            pause()
            stats.append(report.statistics)
            gaps.append((cmp.sup_gap_phi, cmp.sup_gap_edgeworth, mom.skew_g, mom.exkurt_g))
        ops = sum(cfg.replicates for cfg in self.configs)
        return PassResult(ops, units, (oracles.digest(*stats), gaps))

    def check(self, passes: list[PassResult]) -> Verdict:
        v = Verdict()
        for p in passes:
            v.attempted += p.ops
            for s, cfg, gap in zip(self.scenarios, self.configs, p.outputs[1]):
                if not oracles.edgeworth_is_correct(*gap):
                    v.wrong += cfg.replicates
                    v.failures.add(f"{s.dist} x {s.generator} n={s.n}: Edgeworth gap "
                                   f"{gap[1]:.4g} vs Phi gap {gap[0]:.4g}")
        v.failed = v.wrong
        if not oracles.identical([p.outputs[0] for p in passes]):
            v.errors.append("statistics digest differs between passes")
        return v


class MeanRequests:
    """Closed loop, one client: parse a generator spec, then compute a mean."""

    name = "mean_requests"
    latency_of = "request"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: Path):
        self.requests = inputs.make_requests(seed, sizes)

    def properties(self) -> dict:
        return dict(inputs.request_properties(self.requests), clients=1,
                    ops_per_pass=len(self.requests), op="request")

    @staticmethod
    def _serve(req: inputs.Request):
        g = rm.parse_generator(req.spec)
        if req.fn == "mean":
            return rm.mean(g, req.x)
        if req.fn == "power_mean":
            return rm.power_mean(g.param, req.x)
        return rm.exp_mean_stable(req.x)

    def _loop(self, requests, index: int, tracer=None, pause=_no_pause):
        # answers are kept compact and exceptions without their tracebacks,
        # whose frames hold the library's temporaries (see PassResult)
        units, answers = [], Answers(np.full(len(requests), np.nan), {})
        for i, req in enumerate(requests):
            with _span(tracer, f"{index}.{i}"):
                t0 = time.perf_counter()
                try:
                    out = self._serve(req)
                except Exception as exc:  # counted as a failed request
                    out = exc.with_traceback(None)
                t1 = time.perf_counter()
            units.append((t1, t1 - t0))
            if isinstance(out, Exception):
                answers.errors[i] = out
            else:
                answers.values[i] = out
            pause()
        return units, answers

    def warm_up(self) -> None:
        kinds = {}
        for req in self.requests:
            kinds.setdefault((req.fn, req.spec, req.out_of_domain), req)
        self._loop(list(kinds.values()) + self.requests[:100], -1)

    def run_pass(self, index: int, tracer=None, pause=_no_pause) -> PassResult:
        units, answers = self._loop(self.requests, index, tracer, pause)
        return PassResult(len(self.requests), units, answers)

    def check(self, passes: list[PassResult]) -> Verdict:
        v = Verdict()
        verdicts = {}   # (request, result) -> correct; passes mostly repeat results
        for p in passes:
            v.attempted += p.ops
            for i, req in enumerate(self.requests):
                out = p.outputs.errors.get(i, p.outputs.values[i])
                what = f"{req.fn} {req.spec}"
                if req.out_of_domain:
                    if isinstance(out, rm.DomainError):
                        continue
                    v.failed += 1
                    v.wrong += not isinstance(out, Exception)
                    v.failures.add(f"{what} out of domain: no DomainError")
                elif isinstance(out, Exception):
                    v.failed += 1
                    v.failures.add(f"{what}: {type(out).__name__}")
                else:
                    key = (i, out)
                    if key not in verdicts:
                        verdicts[key] = oracles.mean_is_correct(req.spec, req.fn, req.x, out)
                    if not verdicts[key]:
                        v.failed += 1
                        v.wrong += 1
                        v.failures.add(f"{what}: wrong mean")
        return v


B = rm.Interval(1.0, 2.0)
BLEND_TS = (0.0, 0.25, 0.5, 0.75, 1.0)


class Certify:
    """Closed form vs quadrature, the stability bound, the axioms and the
    portfolio identities.  Each certificate returns whether it holds."""

    name = "certify"
    latency_of = "pass"

    def __init__(self, seed: int, sizes: inputs.Sizes, workdir: Path):
        ci = inputs.make_certify(seed, sizes)
        gen, dist = rm.parse_generator, rm.parse_distribution
        certs = []   # (kind, label, check, args)
        for g, d, divergent in ci.cross_checks:
            check = self._divergent if divergent else self._cross
            certs.append(("cross", f"cross {g} {d}", check, (gen(g), dist(d))))
        for g, d, divergent in ci.cross_checks:
            if not divergent:
                certs.append(("g_moments", f"g_moments {g} {d}", self._g_moments,
                              (gen(g), dist(d))))
        for g, h, n in ci.stability:
            certs.append((f"verify n={n}", f"verify {g} {h} n={n}", self._verify,
                          (gen(g), gen(h), n)))
            certs.append((f"blend n={n}", f"blend {g} {h} n={n}", self._blend,
                          (gen(g), gen(h), n)))
        for g, n, s in ci.axioms:
            certs.append(("axioms", f"axioms {g} n={n}", self._axioms,
                          (gen(g), n, s, sizes.axiom_trials)))
        wealth = [(rm.ReturnSeries(r, w0=w0), len(r)) for r, w0 in ci.wealth_series]
        markowitz = [(rm.ReturnSeries(r), max(abs(x) for x in r)) for r in ci.markowitz_series]
        certs.append(("wealth", "portfolio wealth identity", self._wealth, (wealth,)))
        certs.append(("markowitz", "portfolio Markowitz gap", self._markowitz, (markowitz,)))
        self.certificates = certs
        self.counts = {
            "cross_checks": len(ci.cross_checks), "divergent": len(inputs.DIVERGENT),
            "stability": [f"{g}>{h}@n={n}" for g, h, n in ci.stability if n == 3],
            "stability_checks": 2 * len(ci.stability), "axiom_runs": len(ci.axioms),
            "portfolio_series": len(wealth) + len(markowitz)}

    def properties(self) -> dict:
        return dict(self.counts, ops_per_pass=len(self.certificates), op="certificate")

    @staticmethod
    def _divergent(g, d) -> bool:
        for method in ("closed_form", "quadrature"):
            try:
                rm.kolmogorov_expectation(g, d, method=method)
            except rm.DivergenceError:
                continue
            return False
        return True

    @staticmethod
    def _cross(g, d) -> bool:
        ke_c = rm.kolmogorov_expectation(g, d, method="closed_form")
        ke_q = rm.kolmogorov_expectation(g, d, method="quadrature")
        av_c = rm.asymptotic_variance(g, d, method="closed_form").asym_var
        av_q = rm.asymptotic_variance(g, d, method="quadrature").asym_var
        return max(oracles.rel_diff(ke_q, ke_c), oracles.rel_diff(av_q, av_c)) <= oracles.CROSS_RTOL

    @staticmethod
    def _g_moments(g, d) -> bool:
        c = rm.g_moments(g, d, method="closed_form")
        q = rm.g_moments(g, d, method="quadrature")
        return (oracles.rel_diff(q.mean_g, c.mean_g) <= oracles.CROSS_RTOL
                and oracles.rel_diff(q.var_g, c.var_g) <= oracles.CROSS_RTOL
                and abs(q.skew_g - c.skew_g) <= oracles.SHAPE_ATOL
                and abs(q.exkurt_g - c.exkurt_g) <= oracles.SHAPE_ATOL)

    @staticmethod
    def _verify(g, h, n) -> bool:
        return rm.verify_stability(g, h, B, n=n, grid_per_dim=201,
                                   tolerance_factor=1e-6).satisfied

    @staticmethod
    def _blend(g, h, n) -> bool:
        d = rm.blend_distances(g, h, B, n=n, ts=BLEND_TS, grid_per_dim=201)
        return d[0] == 0.0 and oracles.nondecreasing(d)

    @staticmethod
    def _axioms(g, n, seed, trials) -> bool:
        return rm.check_axioms(g, n=n, trials=trials, tol=1e-9, rng_seed=seed).all_passed

    @staticmethod
    def _wealth(series) -> bool:
        return all(oracles.rel_diff(s.w0 * rm.geometric_average_return(s) ** t,
                                    rm.wealth_path(s)) <= 1e-12 for s, t in series)

    @staticmethod
    def _markowitz(series) -> bool:
        return all(abs(rm.markowitz_approximation(s) - rm.geometric_average_return(s))
                   <= 10.0 * top ** 3 for s, top in series)

    def warm_up(self) -> None:
        # one certificate of each kind; "verify n=3" fills the multiset cache
        # that "blend n=3" shares, so the costly n=3 blend is left out
        seen = {"blend n=3"}
        for kind, _, check, args in self.certificates:
            if kind not in seen:
                seen.add(kind)
                self._attempt(check, args)

    @staticmethod
    def _attempt(check, args):
        try:
            return check(*args)
        except Exception as exc:  # counted as a failed certificate
            return exc.with_traceback(None)

    def run_pass(self, index: int, tracer=None, pause=_no_pause) -> PassResult:
        results, units = [], []
        for i, (_, _, check, args) in enumerate(self.certificates):
            with _span(tracer, f"{index}.{i}"):
                t0 = time.perf_counter()
                results.append(self._attempt(check, args))
                t1 = time.perf_counter()
            units.append((t1, t1 - t0))
            pause()
        return PassResult(len(results), units, results)

    def check(self, passes: list[PassResult]) -> Verdict:
        v = Verdict()
        for p in passes:
            v.attempted += p.ops
            for (_, label, _, _), out in zip(self.certificates, p.outputs):
                if out is True:
                    continue
                v.failed += 1
                v.wrong += out is False
                v.failures.add(f"{label}: "
                               f"{'does not hold' if out is False else type(out).__name__}")
        return v


WORKLOADS = {w.name: w for w in (McGrid, McSmallN, MeanRequests, Certify)}

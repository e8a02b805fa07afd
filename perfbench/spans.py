"""In-memory span tracer for the traced benchmark run.

The tracer wraps public regmeans functions at every module (or class)
attribute that refers to them, so a call is seen whether it comes from the
benchmark or from another regmeans module.  Each call records one span:
name, start, end, parent span, the benchmark operation it belongs to, the
exception it raised (if any) and a few per-call attributes.  Spans stay in
memory until ``write`` dumps them as JSON lines.

Worker threads (the thread pool inside ``run_scenario``) start with an empty
span stack; their spans are parented to the innermost open span of the
thread that installed the tracer, which is the call that started the pool.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str | None
    error: str | None
    attrs: dict | None


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` is a regmeans submodule, ``attr`` a
    function in it or ``Class.method``; ``attrs`` maps (args, kwargs) to
    per-call attributes; ``cpu`` also records process CPU time."""

    module: str
    attr: str
    span: str
    attrs: Callable | None = None
    cpu: bool = False


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _elements(args, kwargs):
    x = _arg(args, kwargs, 1, "x")
    return {"elements": x.size if hasattr(x, "size") else len(x)}


def _draws(args, kwargs):
    return {"draws": int(_arg(args, kwargs, 1, "n"))}


def _grid_rows(args, kwargs):
    # verify_stability / blend_distances(g, h, A_box, n, [ts,] grid_per_dim, ...,
    # samples): exhaustive multisets for n <= 3, random rows beyond
    n = _arg(args, kwargs, 3, "n")
    grid = kwargs.get("grid_per_dim", 201)
    samples = kwargs.get("samples", 100_000)
    return {"rows": math.comb(grid + n - 1, n) if n <= 3 else samples}


TARGETS = (
    Target("means", "mean", "means.mean", _elements),
    Target("means", "power_mean", "means.power_mean"),
    Target("means", "exp_mean_stable", "means.exp_mean_stable"),
    Target("means", "check_axioms", "means.check_axioms"),
    Target("generators", "parse_generator", "generators.parse_generator"),
    Target("generators", "min_slope", "generators.min_slope"),
    Target("distributions", "LogNormal.sample", "distributions.sample", _draws),
    Target("distributions", "Gamma.sample", "distributions.sample", _draws),
    Target("distributions", "Uniform.sample", "distributions.sample", _draws),
    Target("distributions", "Pareto.sample", "distributions.sample", _draws),
    Target("asymptotics", "expect", "asymptotics.expect"),
    Target("asymptotics", "g_moments", "asymptotics.g_moments"),
    Target("asymptotics", "asymptotic_variance", "asymptotics.asymptotic_variance"),
    Target("asymptotics", "edgeworth_cdf", "asymptotics.edgeworth_cdf"),
    Target("simulation", "run_scenario", "simulation.run_scenario", cpu=True),
    Target("simulation", "ks_statistic", "simulation.ks_statistic"),
    Target("simulation", "compare_edgeworth", "simulation.compare_edgeworth"),
    Target("stability", "verify_stability", "stability.verify_stability", _grid_rows),
    Target("stability", "blend_distances", "stability.blend_distances", _grid_rows),
    Target("portfolio", "geometric_average_return", "portfolio.geometric_average_return"),
    Target("portfolio", "markowitz_approximation", "portfolio.markowitz_approximation"),
    Target("figures", "reproduce_figure1", "figures.reproduce_figure1"),
)

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int | None, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    @contextlib.contextmanager
    def span(self, name: str, op: str):
        """A root span around one benchmark operation; spans opened inside it
        carry its operation id."""
        self.op = op
        stack, parent, sid = self._open()
        error = None
        t0 = time.perf_counter()
        try:
            yield
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, t0, t1, parent, op, error, None))
            self.op = None

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, attrs_of, cpu = target.span, target.attrs, target.cpu

        def traced(*args, **kwargs):
            stack, parent, sid = tracer._open()
            attrs = attrs_of(args, kwargs) if attrs_of else None
            c0 = time.process_time() if cpu else 0.0
            error = None
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if cpu:
                    attrs = dict(attrs or (), cpu_s=time.process_time() - c0)
                tracer.spans.append(Span(sid, name, t0, t1, parent, tracer.op, error, attrs))

        return functools.wraps(fn)(traced)

    def install(self, targets=TARGETS) -> None:
        """Replace each target at every regmeans module or class attribute
        that refers to it.  ``uninstall`` puts the originals back."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "regmeans" or n.startswith("regmeans."))]
        for target in targets:
            owner = sys.modules[f"regmeans.{target.module}"]
            cls_name, _, meth = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self.wrap(target, original))
                continue
            original = getattr(owner, target.attr)
            wrapped = self.wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover
    (children in worker threads overlap, so their union is subtracted)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """The per-layer metrics, each per traced pass (passes are identical in
    work, so counts repeat exactly).  A layer the workload never enters
    reads 0."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / passes

    def total_self(name):
        return math.fsum(own[s.sid] for s in by_name[name])

    def self_s(name):
        return total_self(name) / passes

    def attr_sum(names, key):
        return sum(s.attrs[key] for n in names for s in by_name[n]) / passes

    mean_spans = by_name["means.mean"]
    elements = sum(s.attrs["elements"] for s in mean_spans)
    small = [s.end - s.start for s in mean_spans if s.attrs["elements"] <= 20]
    parse_calls = len(by_name["generators.parse_generator"])
    scen = by_name["simulation.run_scenario"]
    scen_wall = math.fsum(s.end - s.start for s in scen)
    rejections = sum(1 for n in ("means.mean", "means.power_mean", "means.exp_mean_stable")
                     for s in by_name[n] if s.error == "DomainError")

    return {
        "means.mean.calls": calls("means.mean"),
        "means.mean.self_s": self_s("means.mean"),
        "means.mean.ns_per_element": (total_self("means.mean") / elements * 1e9
                                      if elements else 0.0),
        "means.mean.small_call_us_p50": statistics.median(small) * 1e6 if small else 0.0,
        "means.power_mean.self_s": self_s("means.power_mean"),
        "means.exp_mean_stable.self_s": self_s("means.exp_mean_stable"),
        "means.domain_rejections": rejections / passes,
        "means.check_axioms.self_s": self_s("means.check_axioms"),
        "generators.parse_generator.calls": calls("generators.parse_generator"),
        "generators.parse_generator.self_us_per_call": (
            total_self("generators.parse_generator") / parse_calls * 1e6
            if parse_calls else 0.0),
        "generators.min_slope.self_s": self_s("generators.min_slope"),
        "distributions.sample.calls": calls("distributions.sample"),
        "distributions.sample.draws": attr_sum(["distributions.sample"], "draws"),
        "distributions.sample.self_s": self_s("distributions.sample"),
        "asymptotics.expect.calls": calls("asymptotics.expect"),
        "asymptotics.expect.self_s": self_s("asymptotics.expect"),
        "asymptotics.g_moments.self_s": self_s("asymptotics.g_moments"),
        "asymptotics.asymptotic_variance.self_s": self_s("asymptotics.asymptotic_variance"),
        "asymptotics.edgeworth_cdf.self_s": self_s("asymptotics.edgeworth_cdf"),
        "simulation.ks_statistic.self_s": self_s("simulation.ks_statistic"),
        "simulation.compare_edgeworth.self_s": self_s("simulation.compare_edgeworth"),
        "simulation.run_scenario.self_s": self_s("simulation.run_scenario"),
        "simulation.run_scenario.cpu_per_wall": (
            math.fsum(s.attrs["cpu_s"] for s in scen) / scen_wall if scen_wall else 0.0),
        "stability.verify_stability.self_s": self_s("stability.verify_stability"),
        "stability.blend_distances.self_s": self_s("stability.blend_distances"),
        "stability.grid_rows": attr_sum(["stability.verify_stability",
                                         "stability.blend_distances"], "rows"),
        "portfolio.geometric_average_return.self_s": self_s("portfolio.geometric_average_return"),
        "portfolio.markowitz_approximation.self_s": self_s("portfolio.markowitz_approximation"),
        "figures.reproduce_figure1.self_s": self_s("figures.reproduce_figure1"),
        "figures.bytes_written": tracer.counters["figures.bytes_written"] / passes,
    }

"""regmeans benchmark: one workload per process.

    python3 perfbench/run.py --workload mc_grid --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` it prints every end-to-end metric, with
``--trace 1`` every per-layer metric (a separate traced run, alternating
untraced and traced passes).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is non-zero on an oracle failure that failed_fraction
cannot express (outputs that differ between identical passes).
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any heavy import

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5  # set-ups per run, reported as their median
REF_SAMPLES = 9  # reference timings per reference time, reported as their median
REF_INTERVAL_S = 0.1  # least time between two reference times within a pass
REF_SHARE = 0.05  # a reference time after a pass lasts at least this share of it
REF_S = 1.0e-3  # the reference time that defines a reference-host second
SETUP_REF_S = 0.1  # least time over which the reference is timed after a set-up


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import regmeans

    if not Path(regmeans.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"regmeans imported from {regmeans.__file__}, not from {src}")


def _setup(args):
    _import_library()
    import inputs
    import workloads

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, inputs.SIZES[args.size], workdir)
    wl.warm_up()
    seconds = time.perf_counter() - _T0
    clock = HostClock()
    clock.sample(SETUP_REF_S)
    return wl, workdir, (seconds, clock.refs[0])


def _child_setup(args) -> tuple[float, float]:
    """Set-up time of a fresh process (import, inputs, warm-up), and the
    reference time taken right after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return tuple(json.loads(done.stdout.strip().splitlines()[-1])["setup"])


def _reference_task(_=None) -> float:
    """A fixed task of the benchmark's own: interpreter loop, numpy and fsum."""
    acc = 0.0
    for i in range(6000):
        acc += math.sqrt(i)
    return math.fsum(np.log(np.linspace(1.0, 2.0, 6000)) * acc)


class HostClock:
    """Reference times taken between timed calls: before and after every
    pass, and between the calls of a pass at most every REF_INTERVAL_S.  For
    a workload on several threads the task runs once on each of as many
    threads at once, which also feels how busy the host's other CPUs are."""

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.pool = ThreadPoolExecutor(threads) if threads > 1 else None
        self.times, self.refs = [], []

    def close(self) -> None:
        if self.pool:
            self.pool.shutdown()

    def _time_task(self) -> float:
        t0 = time.perf_counter()
        if self.pool:
            list(self.pool.map(_reference_task, range(self.threads)))
        else:
            _reference_task()
        return time.perf_counter() - t0

    def sample(self, seconds: float = 0.0) -> None:
        """The median of at least REF_SAMPLES task times, taken over at least `seconds`."""
        t0 = time.perf_counter()
        times = [self._time_task() for _ in range(REF_SAMPLES)]
        while time.perf_counter() - t0 < seconds:
            times.append(self._time_task())
        self.times.append(t0)
        self.refs.append(statistics.median(times))

    def pause(self) -> None:
        if time.perf_counter() - self.times[-1] >= REF_INTERVAL_S:
            self.sample()

    def scale(self, ends, seconds):
        """REF_S per task copy over the mean reference time on either side of
        each call, for calls given by their end times and durations."""
        refs = np.asarray(self.refs)
        i = np.searchsorted(self.times, np.asarray(ends) - np.asarray(seconds) / 2, side="right")
        return 2 * self.threads * REF_S / (refs[i - 1] + refs[np.minimum(i, len(refs) - 1)])


def _measure(wl, seconds: float) -> tuple[list, HostClock]:
    clock = HostClock(wl.properties().get("threads", 1))
    passes = []
    try:
        clock.sample()
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(wl.run_pass(len(passes), pause=clock.pause))
            clock.sample(REF_SHARE * passes[-1].wall_s)
    finally:
        clock.close()
    return passes, clock


def _quartiles(values) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _percentile(values, q: float) -> float:
    ordered = np.sort(np.asarray(values, dtype=float))
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def _end_to_end(passes, clock, setups, latency_of: str) -> tuple[dict, list]:
    # Times are in reference-host seconds: each timed call is scaled by REF_S
    # over the reference time measured around it (a set-up: right after it),
    # which cancels the shared host's swings in speed (tens of percent within
    # seconds, in CPU time too).
    scaled = [p.units[:, 1] * clock.scale(p.units[:, 0], p.units[:, 1]) for p in passes]
    rates = [p.ops / float(u.sum()) for p, u in zip(passes, scaled)]
    if latency_of == "request":
        latencies = np.concatenate(scaled)
        observed = np.concatenate([p.units[:, 1] for p in passes])
    else:
        latencies = [u.sum() for u in scaled]
        observed = [p.wall_s for p in passes]
    metrics = {
        "setup_s": (statistics.median(s * REF_S / ref for s, ref in setups), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "latency_us_p50": (_percentile(latencies, 0.50) * 1e6, "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # p99 only where at least ten samples lie beyond it; with a few passes it
    # would be the slowest pass, too noisy on a shared host to gate on
    tail = ([f"latency_us_p99 {_percentile(latencies, 0.99) * 1e6!r} us"]
            if len(latencies) >= 1000 else [])
    notes = tail + [
        f"unscaled setup_s samples {[round(s, 4) for s, _ in setups]}",
        f"latency samples {len(latencies)} (one per {latency_of})",
        f"{len(clock.refs)} reference times (REF_S {REF_S}), quartiles "
        f"{[round(q, 6) for q in _quartiles(clock.refs)]}",
        f"ops_per_s quartiles over {len(passes)} passes {[round(q, 1) for q in _quartiles(rates)]}",
        f"unscaled: ops_per_s {statistics.median(p.ops / p.wall_s for p in passes)!r} "
        f"latency_us_p50 {_percentile(observed, 0.50) * 1e6!r} "
        f"latency_us_p99 {_percentile(observed, 0.99) * 1e6!r}",
    ]
    return metrics, notes


def _env(wl) -> dict:
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "threads": wl.properties().get("threads", 1),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc_grid", "mc_small_n", "mean_requests", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl, workdir, setup = _setup(args)
    try:
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0
        if args.trace == 0:
            passes, clock = _measure(wl, args.seconds)
            setups = [setup] + [_child_setup(args) for _ in range(SETUP_RUNS - 1)]
            metrics, notes = _end_to_end(passes, clock, setups, wl.latency_of)
        else:
            from spans import Tracer, layer_metrics

            # untraced and traced passes alternate, so both see the same
            # phases of a shared host and their ratio is the tracing cost
            plain, traced = [], []
            tracer = Tracer()
            deadline = time.perf_counter() + args.seconds
            while not traced or time.perf_counter() < deadline:
                plain.append(wl.run_pass(len(plain) + len(traced)))
                tracer.install()
                try:
                    traced.append(wl.run_pass(len(plain) + len(traced), tracer))
                finally:
                    tracer.uninstall()
            layers = layer_metrics(tracer, len(traced))
            layers["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                              / statistics.median(p.wall_s for p in plain))
            units = {m["name"]: m["unit"]
                     for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            metrics = {k: (v, units[k]) for k, v in layers.items()}
            span_file = ROOT / ".perfbench" / f"spans-{args.workload}.jsonl"
            tracer.write(span_file)
            notes = [f"{len(plain)} untraced and {len(traced)} traced passes; "
                     f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}"]
            passes = plain + traced
        verdict = wl.check(passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} size {args.size}")
    print(f"# env {json.dumps(_env(wl))}")
    print(f"# inputs {json.dumps(wl.properties())}")
    for line in notes:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_fraction {verdict.failed / verdict.attempted!r} ratio "
          f"({verdict.failed} of {verdict.attempted}, {verdict.wrong} wrong answers)")
    for line in sorted(verdict.failures):
        print(f"# failed {line}")
    for err in verdict.errors:
        print(f"# ORACLE FAILURE {err}")
    print(json.dumps({
        "correct": verdict.wrong == 0 and not verdict.errors,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if verdict.errors else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())

"""Alternating parent/change runs of the benchmark, and their summary.

    python3 tools/pairs.py --base REV --workload W --pairs N --seed K [--trace T]

REV is exported with `git archive` into a temporary directory, removed
afterwards.  Pair i runs `python3 perfbench/run.py --workload W --seed K+i
--trace T` on that copy and on the working tree of this checkout, at the
benchmark's own run length, the one first in even pairs and the other
first in odd ones, so that a drift of the host over the runs weighs on
both sides alike.  Every metric a run reports is printed pair by pair,
with `failed`; then each metric's two medians, the number of pairs in
which the change is better (strictly, in the direction BENCHMARK.json
gives the metric) and the interquartile range of the base runs, against
which a move of the median is read.  The exit code is non-zero when the
base cannot be exported or a run exits non-zero or prints no result.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class RunFailed(Exception):
    """A benchmark run that exited non-zero or printed no result, or a base
    that could not be exported."""


def directions(benchmark: dict) -> dict[str, str]:
    """{metric: "higher" or "lower"}, the better direction of every metric
    that BENCHMARK.json declares, end to end and per layer."""
    return {m["name"]: m["better"]
            for m in benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])}


def _value(result: dict, name: str) -> float:
    return result["failed"] if name == "failed" else result["metrics"][name]["value"]


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> dict[str, tuple]:
    """{metric: (base median, change median, pairs in which the change is
    better, the base runs' interquartile range)} over the (base, change) results of perfbench/run.py, each the
    JSON object of its last line, for every metric both sides of every
    pair report and BENCHMARK.json gives a direction; "failed" is added,
    lower better."""
    names = [n for n in pairs[0][0]["metrics"] if n in better and all(
        n in side["metrics"] for pair in pairs for side in pair)] + ["failed"]
    out = {}
    for name in names:
        sign = 1 if better.get(name, "lower") == "higher" else -1
        base = [_value(b, name) for b, _ in pairs]
        change = [_value(c, name) for _, c in pairs]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else base * 3
        out[name] = (statistics.median(base), statistics.median(change), wins, q3 - q1)
    return out


def report(pairs: list[tuple[dict, dict]], seeds: list[int], better: dict[str, str]) -> list[str]:
    """The lines printed: each pair's metrics (base, change), then the
    medians and the count of pairs the change wins."""
    table = summarize(pairs, better)
    lines = []
    for seed, (base, change) in zip(seeds, pairs):
        lines.append(f"pair seed {seed}")
        for name in table:
            lines.append(f"  {name:<44} {_value(base, name)!r:>22} {_value(change, name)!r:>22}")
    lines.append(f"medians over {len(pairs)} pairs (base, change, change better in k of n, "
                 "base IQR)")
    for name, (b, c, wins, iqr) in table.items():
        lines.append(f"  {name:<44} {b!r:>22} {c!r:>22}   {wins} of {len(pairs)}   {iqr!r}")
    return lines


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """perfbench/run.py on the checkout at tree: the JSON object of its last
    line, or RunFailed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode or not isinstance(result, dict) or "metrics" not in result:
        raise RunFailed(f"{tree} seed {seed}: exit {done.returncode}, "
                        f"no result\n{done.stderr[-2000:]}")
    return result


def export(rev: str, into: Path) -> None:
    """The tree of rev, by git archive, unpacked into the directory into."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise RunFailed(f"git archive {rev} could not be unpacked")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    better = directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    seeds = [args.seed + i for i in range(args.pairs)]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base = Path(tmp)
        try:
            export(args.base, base)
            for i, seed in enumerate(seeds):
                order = (base, ROOT) if i % 2 == 0 else (ROOT, base)
                got = {tree: run(tree, args.workload, seed, args.trace) for tree in order}
                pairs.append((got[base], got[ROOT]))
                print(f"# pair {i + 1} of {args.pairs} done (seed {seed})", flush=True)
        except RunFailed as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
    print("\n".join(report(pairs, seeds, better)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The summary of tools/pairs.py, on canned benchmark results."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _result(failed=0, **metrics):
    return {"correct": True, "attempted": 100, "failed": failed,
            "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()}}


BETTER = {"ops_per_s": "higher", "latency_us_p50": "lower", "peak_rss_mb": "lower"}


def test_medians_and_wins_follow_each_metrics_direction():
    runs = [(_result(ops_per_s=100.0, latency_us_p50=20.0, peak_rss_mb=90.0),
             _result(ops_per_s=110.0, latency_us_p50=19.0, peak_rss_mb=90.0)),
            (_result(ops_per_s=102.0, latency_us_p50=21.0, peak_rss_mb=91.0),
             _result(ops_per_s=101.0, latency_us_p50=22.0, peak_rss_mb=92.0, failed=1)),
            (_result(ops_per_s=98.0, latency_us_p50=20.5, peak_rss_mb=90.5),
             _result(ops_per_s=120.0, latency_us_p50=18.0, peak_rss_mb=89.0))]
    table = pairs.summarize(runs, BETTER)
    assert list(table) == ["ops_per_s", "latency_us_p50", "peak_rss_mb", "failed"]
    # statistics.quantiles' default (exclusive) method: the quartiles of
    # three runs are the least and the greatest
    assert table["ops_per_s"] == (100.0, 110.0, 2, 4.0)
    assert table["latency_us_p50"] == (20.5, 19.0, 2, 1.0)
    assert table["peak_rss_mb"] == (90.5, 90.0, 1, 1.0)  # a tie is not a win
    assert table["failed"] == (0, 0, 0, 0)


def test_metrics_without_a_direction_or_a_side_are_left_out():
    runs = [(_result(ops_per_s=1.0, extra=5.0, latency_us_p50=3.0),
             _result(ops_per_s=2.0, extra=4.0))]
    assert list(pairs.summarize(runs, BETTER)) == ["ops_per_s", "failed"]


def test_the_report_lists_each_pair_then_the_medians():
    runs = [(_result(ops_per_s=1.0), _result(ops_per_s=2.0)),
            (_result(ops_per_s=3.0), _result(ops_per_s=2.5))]
    lines = pairs.report(runs, [7, 8], BETTER)
    assert lines[0] == "pair seed 7" and lines[3] == "pair seed 8"
    assert lines[-2].split() == ["ops_per_s", "2.0", "2.25", "1", "of", "2", "3.0"]
    assert lines[-1].split() == ["failed", "0.0", "0.0", "0", "of", "2", "0.0"]


def test_directions_cover_the_benchmarks_metrics():
    declared = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    better = pairs.directions(declared)
    assert better["ops_per_s"] == "higher" and better["means.mean.self_s"] == "lower"


@pytest.mark.parametrize("stdout, code", [("", 0), ("not json\n", 0), ('{"metrics": {}}\n', 1)])
def test_a_run_without_a_result_fails(tmp_path, stdout, code):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({code})\n")
    with pytest.raises(pairs.RunFailed):
        pairs.run(tmp_path, "mean_requests", 1, 0)

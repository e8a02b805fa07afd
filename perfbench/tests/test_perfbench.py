"""Tests of the benchmark itself: a tiny-size smoke run of every workload and
the oracles that must reject wrong answers.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import regmeans as rm  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == 0:
            assert got["value"] > 0, m["name"]
    for name in ("setup_s", "ops_per_s", "latency_us_p50", "peak_rss_mb") if trace == 0 else ():
        assert f"\n{name} " in done.stdout
    assert "failed_fraction" in done.stdout


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("certify", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _clock(times, refs):
    import run

    clock = run.HostClock()
    clock.times, clock.refs = list(times), [r * run.REF_S for r in refs]
    return clock


def test_p99_is_reported_only_with_ten_samples_beyond_it():
    import run

    clock = _clock([0.0, 2.0], [1, 1])
    many = workloads.PassResult(1000, [(1.0, 1e-6 * i) for i in range(1000)], None)
    _, notes = run._end_to_end([many], clock, [(1.0, run.REF_S)], "request")
    assert "latency_us_p99 990.0 us" in notes
    few = workloads.PassResult(10, [(1.0, 1.0)] * 10, None)
    _, notes = run._end_to_end([few], clock, [(1.0, run.REF_S)], "request")
    assert not any(n.startswith("latency_us_p99") for n in notes)


def test_each_call_is_scaled_by_the_reference_times_around_it():
    import run

    # the reference takes twice as long from t=3 on: the second pass took
    # twice as long as the first but did the same work in reference time
    clock = _clock([0.0, 2.5, 3.0, 10.0], [1, 1, 2, 2])
    passes = [workloads.PassResult(10, [(1.0, 1.0), (2.0, 1.0)], None),
              workloads.PassResult(10, [(5.0, 2.0), (8.0, 2.0)], None)]
    assert clock.scale(2.9, 0.2) == pytest.approx(2 / 3)
    setups = [(1.0, run.REF_S), (4.0, 2 * run.REF_S), (4.0, run.REF_S)]
    metrics, _ = run._end_to_end(passes, clock, setups, "pass")
    assert metrics["ops_per_s"][0] == pytest.approx(5.0)
    assert metrics["latency_us_p50"][0] == pytest.approx(2e6)
    assert metrics["setup_s"][0] == pytest.approx(2.0)  # set-ups are scaled too
    metrics, _ = run._end_to_end(passes, clock, setups, "request")
    assert metrics["latency_us_p50"][0] == pytest.approx(1e6)


def test_layer_targets_cover_every_per_layer_metric():
    moves = json.loads((BENCH / "layers.json").read_text())
    assert set(moves) == {m["name"] for m in SPEC["per_layer"]}
    assert all(moves.values())


# --- oracles -----------------------------------------------------------------

@pytest.mark.parametrize("spec,fn", [("identity", "mean"), ("log", "mean"),
                                     ("reciprocal", "mean"), ("power:0.5", "mean"),
                                     ("power:2", "mean"), ("exp", "mean"),
                                     ("power:2", "power_mean"), ("exp", "exp_mean_stable")])
def test_mean_oracle_accepts_the_library_and_rejects_a_wrong_mean(spec, fn):
    x = np.random.default_rng(0).lognormal(0.0, 0.75, 5000)
    req = inputs.Request(spec, fn, x, False)
    value = workloads.MeanRequests._serve(req)
    assert oracles.mean_is_correct(spec, fn, x, value)
    assert not oracles.mean_is_correct(spec, fn, x, value * (1 + 1e-9))
    assert not oracles.mean_is_correct(spec, fn, x, float(np.max(x)) * 1.01)
    assert not oracles.mean_is_correct(spec, fn, x, float("nan"))


def _tiny(cls):
    return cls(5, inputs.SIZES["tiny"], Path("."))


def test_request_check_counts_a_wrong_mean_and_a_missed_domain_error():
    wl = _tiny(workloads.MeanRequests)
    p = wl.run_pass(0)
    assert wl.check([p]).failed == 0
    good = next(i for i, r in enumerate(wl.requests) if not r.out_of_domain)
    bad = next(i for i, r in enumerate(wl.requests) if r.out_of_domain)
    assert isinstance(p.outputs.errors.pop(bad), rm.DomainError)
    p.outputs.values[good] = p.outputs.values[good] * (1 + 1e-6) + 1e-6
    p.outputs.values[bad] = 1.0
    v = wl.check([p])
    assert (v.failed, v.wrong) == (2, 2)


def test_grid_check_rejects_summaries_that_differ_between_passes():
    wl = _tiny(workloads.McGrid)
    rows = [{"dist": "d", "generator": "g", "ks": 0.01, "var_ratio": 1.0}] * wl.cells
    same = [workloads.PassResult(1, [(1.0, 1.0)], (b"a", rows)) for _ in range(2)]
    assert wl.check(same).errors == []
    differ = same + [workloads.PassResult(1, [(1.0, 1.0)], (b"b", rows))]
    assert wl.check(differ).errors
    outside = [dict(rows[0], ks=0.5)] + rows[1:]
    v = wl.check([workloads.PassResult(1, [(1.0, 1.0)], (b"a", outside))])
    assert v.wrong == wl.replicates and v.failures


def test_small_n_check_rejects_a_non_identical_digest():
    wl = _tiny(workloads.McSmallN)
    reps = wl.scenarios[0].replicates
    gaps = [(0.06, 0.01, 2.0, 6.0)] * len(wl.scenarios)
    same = [workloads.PassResult(1, [(1.0, 1.0)], ("a", gaps)) for _ in range(2)]
    assert wl.check(same).errors == []
    differ = same + [workloads.PassResult(1, [(1.0, 1.0)], ("b", gaps))]
    assert wl.check(differ).errors
    worse = [(0.01, 0.06, 2.0, 6.0)] + gaps[1:]
    assert wl.check([workloads.PassResult(1, [(1.0, 1.0)], ("a", worse))]).wrong == reps


def test_edgeworth_oracle_requires_equal_gaps_when_the_expansion_is_phi():
    assert oracles.edgeworth_is_correct(0.07, 0.07, 0.0, 0.0)
    assert not oracles.edgeworth_is_correct(0.07, 0.06, 0.0, 0.0)
    assert oracles.edgeworth_is_correct(0.06, 0.01, 2.0, 6.0)
    assert not oracles.edgeworth_is_correct(0.01, 0.06, 2.0, 6.0)


def test_grid_bands():
    assert oracles.cell_is_correct({"ks": 0.04, "var_ratio": 1.1}, 1000)
    assert not oracles.cell_is_correct({"ks": 0.12, "var_ratio": 1.0}, 1000)
    assert not oracles.cell_is_correct({"ks": 0.04, "var_ratio": 1.4}, 1000)


# --- tracer ------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [Span(0, "p", 0.0, 10.0, None, "0", None, None),
             Span(1, "c", 1.0, 3.0, 0, "0", None, None),
             Span(2, "c", 2.0, 5.0, 0, "0", None, None),   # overlaps: another thread
             Span(3, "c", 8.0, 9.0, 0, "0", None, None)]
    assert self_times(spans)[0] == pytest.approx(5.0)
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_tracer_sees_calls_between_layers_and_restores_the_library():
    original = rm.simulation.mean
    tracer = Tracer()
    tracer.install()
    try:
        cfg = rm.ScenarioConfig(rm.Gamma(2.0, 1.0), rm.parse_generator("log"), 5, 50, 1)
        with tracer.span("bench.op", "0"):
            rm.run_scenario(cfg, threads=2)
    finally:
        tracer.uninstall()
    assert rm.simulation.mean is original and rm.mean is original
    m = layer_metrics(tracer, passes=1)
    assert m["means.mean.calls"] == 50
    assert m["distributions.sample.draws"] == 250
    assert m["simulation.run_scenario.self_s"] > 0
    # worker-thread spans hang under the run_scenario span
    scen = next(s for s in tracer.spans if s.name == "simulation.run_scenario")
    assert all(s.parent == scen.sid for s in tracer.spans if s.name == "means.mean")

"""Figure grids: one group of cells per distribution, the groups run side by
side, files written once in cell order."""

import dataclasses
import json
import threading

import numpy as np
import pytest

from regmeans import (ConfigurationError, InvalidParameterError, ScenarioConfig, figures,
                      parse_distribution, parse_generator, run_scenario, simulation)


def _files(out):
    """Every file of a figure run, report.json parsed without runtime_ms."""
    got = {}
    for p in sorted(out.iterdir()):
        if p.name.endswith(".report.json"):
            report = json.loads(p.read_text())
            report.pop("runtime_ms")  # wall-clock, the one run-dependent field
            got[p.name] = report
        else:
            got[p.name] = p.read_bytes()
    return got


def test_distribution_groups_run_concurrently_without_a_nested_pool(tmp_path, monkeypatch):
    real = figures._run_group
    barrier = threading.Barrier(2, timeout=10)
    seen = []

    def waiting(cfgs, threads=1):
        seen.append((cfgs[0].dist.spec, len(cfgs), threads))
        barrier.wait()  # breaks unless two groups are in flight at once
        return real(cfgs, threads)

    monkeypatch.setattr(figures, "_run_group", waiting)
    figures.reproduce_figure1(tmp_path, n=20, replicates=10, threads=2)
    assert sorted(seen) == sorted((parse_distribution(d).spec, 3, 1)
                                  for d in figures.FIGURE1_DISTS)


@pytest.mark.parametrize("reproduce", [figures.reproduce_figure1,
                                       figures.reproduce_figure2])
def test_cells_have_the_bits_of_a_standalone_run(tmp_path, monkeypatch, reproduce):
    # n = 1000 puts 32 replicates in a block: 70 replicates are three blocks
    real, reports, pools = figures._run_group, {}, []

    def recording(cfgs, threads=1):
        pools.append(threads)
        group = real(cfgs, threads)
        reports.update({(c.dist.spec, c.generator.name): r for c, r in zip(cfgs, group)})
        return group

    monkeypatch.setattr(figures, "_run_group", recording)
    rows = reproduce(tmp_path, seed=5, n=1000, replicates=70, threads=2)["cells"]
    assert len(reports) == len(rows)
    # threads beyond one per group go to the group's block pool
    assert set(pools) == {max(1, 2 // len(pools))}
    for row in rows:
        cfg = ScenarioConfig(parse_distribution(row["dist"]), parse_generator(row["generator"]),
                             1000, 70, row["seed"])
        report, alone = reports[cfg.dist.spec, cfg.generator.name], run_scenario(cfg)
        assert report.metadata["config"] == cfg.echo()
        np.testing.assert_array_equal(report.statistics, alone.statistics)
        assert row["ks"] == alone.ks_vs_normal
        assert report.edgeworth_sup_gap == alone.edgeworth_sup_gap


def _counting_draws(monkeypatch):
    """Make figures parse every distribution as a subclass that records the
    (spec, size) of each sample call."""
    real, draws = figures.parse_distribution, []

    def parse(spec):
        model = real(spec)

        class Counting(type(model)):
            def sample(self, n, rng, *, out=None):
                draws.append((spec, n))
                return super().sample(n, rng, out=out)

        return Counting(**{f.name: getattr(model, f.name) for f in dataclasses.fields(model)})

    monkeypatch.setattr(figures, "parse_distribution", parse)
    return draws


def test_each_distribution_is_drawn_once_for_all_its_generators(tmp_path, monkeypatch):
    draws = _counting_draws(monkeypatch)
    figures.reproduce_figure1(tmp_path, n=1000, replicates=70, threads=1)
    # three blocks per distribution, not per cell
    assert draws == [(d, size) for d in figures.FIGURE1_DISTS
                     for size in (32_000, 32_000, 6_000)]


@pytest.mark.parametrize("threads", [1, 2])
def test_one_row_mean_reduction_per_generator_per_task(tmp_path, monkeypatch, threads):
    # a seeded Figure 1 grid: per distribution 32 blocks of 32 rows in 16
    # tasks of two blocks (the last 40 rows), 3 generators, 4 distributions;
    # one min and one max per task decide every domain, so the checked
    # per-block path never runs
    rows, reduce = [], simulation.row_means_in_domain

    def counting(g, x):
        rows.append(x.shape[0])
        return reduce(g, x)

    def checked(g, x):
        raise AssertionError("a per-block domain check on in-domain draws")

    monkeypatch.setattr(simulation, "row_means_in_domain", counting)
    monkeypatch.setattr(simulation, "row_means", checked)
    figures.reproduce_figure1(tmp_path, seed=42, n=1000, replicates=1000, threads=threads)
    assert sorted(rows) == [40] * 12 + [64] * (15 * 12)


def test_a_failing_group_draws_nothing(tmp_path, monkeypatch):
    # the setting of test_a_failing_cell_writes_no_cell_file: identity is
    # checked and passes, log fails its check before the group's first draw
    draws = _counting_draws(monkeypatch)
    with pytest.raises(ConfigurationError):
        figures._run_cells(tmp_path, 42, 20, 10, 1, ("uniform:-1:1",), ("identity", "log"))
    assert draws == []


def test_files_do_not_depend_on_the_thread_count(tmp_path):
    runs = {}
    for threads in (1, 2, 3):  # 3 exceeds the two cells
        out = tmp_path / f"threads{threads}"
        figures.reproduce_figure2(out, n=40, replicates=60, threads=threads)
        runs[threads] = _files(out)
    assert len(runs[1]) == 6  # two cells' hist + report, summary, comparison
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]


def test_numpy_counts_write_the_bytes_of_python_ints(tmp_path):
    # np.int64 counts passed the count check, then comparison.json raised a
    # bare TypeError (not JSON serializable) after every other file was written
    runs = {}
    for kind in (int, np.int64):
        out = tmp_path / kind.__name__
        result = figures.reproduce_figure2(out, seed=kind(3), n=kind(20),
                                           replicates=kind(10), threads=kind(1))
        json.dumps(result)  # the CLI prints the returned rows as well
        runs[kind] = _files(out)
    assert runs[np.int64] == runs[int]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_cell_writes_no_cell_file(tmp_path, threads):
    # identity accepts Uniform(-1, 1); log does not, so the second cell fails
    with pytest.raises(ConfigurationError):
        figures._run_cells(tmp_path, 42, 20, 10, threads,
                           ("uniform:-1:1",), ("identity", "log"))
    assert list(tmp_path.iterdir()) == []


def test_divergent_edgeworth_gap_is_null_in_the_report(tmp_path):
    figures._run_cells(tmp_path, 42, 20, 10, 1, ("pareto:3.5",), ("identity",))
    report = json.loads((tmp_path / "pareto-3p5_identity.report.json").read_text())
    assert report["edgeworth_sup_gap"] is None
    assert set(report) == {"config", "eg", "asym_var", "empirical_var", "ks",
                           "edgeworth_sup_gap", "runtime_ms", "metadata"}


@pytest.mark.parametrize("reproduce", [figures.reproduce_figure1,
                                       figures.reproduce_figure2])
@pytest.mark.parametrize("threads", [0, -1])
def test_thread_count_below_one_rejected(tmp_path, reproduce, threads):
    out = tmp_path / "out"
    with pytest.raises(InvalidParameterError, match="threads"):
        reproduce(out, n=20, replicates=10, threads=threads)
    assert not out.exists()


def test_every_json_file_is_json_text(tmp_path):
    # one writer: indent 2, sorted keys, a trailing newline
    assert figures.json_text({"b": 1.5, "a": [None, True]}) == (
        '{\n  "a": [\n    null,\n    true\n  ],\n  "b": 1.5\n}\n')
    figures.reproduce_figure2(tmp_path, n=20, replicates=10)
    for path in tmp_path.glob("*.json"):
        text = path.read_text()
        assert text == figures.json_text(json.loads(text)), path.name

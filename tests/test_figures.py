"""Figure grids: cells run side by side, files written once in cell order."""

import json
import threading

import numpy as np
import pytest

from regmeans import ConfigurationError, InvalidParameterError, figures


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


def test_cells_run_concurrently_without_a_nested_pool(tmp_path, monkeypatch):
    real = figures.run_scenario
    barrier = threading.Barrier(2, timeout=10)
    seen = []

    def waiting(cfg, threads=1):
        seen.append(threads)
        barrier.wait()  # breaks unless both cells are in flight at once
        return real(cfg, threads=threads)

    monkeypatch.setattr(figures, "run_scenario", waiting)
    figures.reproduce_figure2(tmp_path, replicates=50, threads=2)
    assert seen == [1, 1]


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

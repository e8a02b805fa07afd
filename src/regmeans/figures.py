"""Batch reproduction of the two standard simulation studies.

reproduce_figure1 runs the full compatibility grid — four sampling
distributions crossed with the identity/log/reciprocal generators — and
writes per-cell histogram + report files plus a summary of KS distances.
reproduce_figure2 runs the heavy-tailed comparison (LogNormal with log
variance 6.25) where the arithmetic mean converges slowly but the geometric
mean does not.

All floats in CSV output are serialized with 17 significant digits (by
csv_table, which the CLI's CSV output shares) and all randomness derives from
the master seed, so repeat runs (at any thread count) produce identical data
files.  The unit of work is a distribution: its generators' cells share its
seed and take their means from the same draws (simulation._run_group), so
they are dependent by design, each with the law of a standalone run.  The
thread pool (simulation.thread_map) runs the distributions side by side, the
threads left over sharing their blocks.  Each worker also builds its cells'
file text (the histogram CSV, the report JSON and the summary row) as soon
as its distribution has run, which takes the formatting (about 6.5 ms of a
Figure 1 pass on a 2-vCPU host) off the calling thread; that thread only
writes the files, in cell order, after every cell has run.  A cell's report
file holds SimulationReport.as_dict, the keys of the CLI's simulate payload,
and its summary row opens with ScenarioConfig.echo, that report's config.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import phi_pdf
from .distributions import parse_distribution
from .errors import ConfigurationError
from .generators import _require_instance, parse_generator, require_count
from .simulation import ScenarioConfig, SimulationReport, _run_group, thread_map

__all__ = ["reproduce_figure1", "reproduce_figure2"]

FIGURE1_DISTS = ("lognormal:2:1", "gamma:100:1", "uniform:1:2", "pareto:10:1")
FIGURE1_GENERATORS = ("identity", "log", "reciprocal")
FIGURE2_DIST = "lognormal:2:6.25"
FIGURE2_GENERATORS = ("identity", "log")

_HIST_BINS = 40
_HIST_RANGE = (-4.0, 4.0)


def csv_cell(x) -> str:
    """One CSV cell: a float with 17 significant digits, so identical runs
    write identical bytes; None is empty, anything else its str."""
    if isinstance(x, float):
        return format(x, ".17g")
    return "" if x is None else str(x)


def csv_table(rows) -> str:
    """rows, dicts with the keys of the first, as CSV text: a header of
    those keys, then each row's values through csv_cell.  Lines end in
    \r\n; a file takes the text with newline="", so its bytes are these."""
    buf = io.StringIO()
    w = csv.writer(buf)
    cols = list(rows[0])
    w.writerow(cols)
    for row in rows:
        w.writerow([csv_cell(row[c]) for c in cols])
    return buf.getvalue()


def json_text(payload) -> str:
    """payload as JSON text: indent 2, sorted keys, a trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _stem(dist_spec: str, gen_spec: str) -> str:
    return f"{dist_spec}_{gen_spec}".replace(":", "-").replace(".", "p")


def hist_text(report: SimulationReport) -> str:
    """CSV text of a histogram of the report's standardized statistics on
    [-4, 4] in 40 bins, with the standard normal density at each midpoint."""
    counts, edges = np.histogram(report.statistics, bins=_HIST_BINS, range=_HIST_RANGE)
    mids = 0.5 * (edges[:-1] + edges[1:])
    rows = [{"bin_lo": lo, "bin_hi": hi, "count": int(c), "normal_density_at_mid": d}
            for lo, hi, c, d in zip(edges[:-1], edges[1:], counts, phi_pdf(mids))]
    return csv_table(rows)


def _run_cells(out_dir, seed, n, replicates, threads, dists, generators):
    """Run the cells and write their files; returns the output directory,
    the summary rows and the checked seed, n and replicates, as ints."""
    # every check before the mkdir below
    out = Path(_require_instance(out_dir, (str, os.PathLike), "out_dir",
                                 "a path (a str or os.PathLike)"))
    threads = require_count(threads, "threads", 1)
    seed = require_count(seed, "seed", 0)
    # one group per distribution, its generators' cells sharing its seed
    groups = []
    for index, dist_spec in enumerate(dists):
        dist, dist_seed = parse_distribution(dist_spec), _cell_seed(seed, index)
        groups.append((dist_spec, [ScenarioConfig(dist, parse_generator(gen_spec), n,
                                                  replicates, dist_seed)
                                   for gen_spec in generators]))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from exc
    # Threads beyond one per group share its blocks.
    inner = max(1, threads // len(groups))

    def run(group):
        """A group's cells, each as (stem, hist text, report text, summary
        row): the text is built on the worker that ran the group."""
        dist_spec, cfgs = group
        cells = []
        for gen_spec, cfg, report in zip(generators, cfgs, _run_group(cfgs, inner)):
            meta = {"version": __version__, "seed": cfg.seed}
            row = {
                **cfg.echo(),  # dist, generator, n, replicates, seed
                "ks": report.ks_vs_normal,
                "empirical_var": report.empirical_var,
                "asym_var": report.asymptotic.asym_var,
                "var_ratio": report.empirical_var / report.asymptotic.asym_var,
                "eg": report.asymptotic.eg,
            }
            cells.append((_stem(dist_spec, gen_spec), hist_text(report),
                          json_text({**report.as_dict(), "metadata": meta}), row))
        return cells

    # Every cell runs before any file is written, so a failing cell leaves
    # no partial output behind; the files are then written in cell order.
    rows = []
    for stem, hist, report_json, row in chain(*thread_map(run, groups, threads)):
        (out / f"{stem}.hist.csv").write_text(hist, newline="")
        (out / f"{stem}.report.json").write_text(report_json)
        rows.append(row)
    first = groups[0][1][0]
    return out, rows, {"seed": seed, "n": first.n, "replicates": first.replicates}


def reproduce_figure1(out_dir, seed: int = 42, n: int = 1000,
                      replicates: int = 1000, threads: int = 1) -> dict:
    """Run the 12-cell simulation grid and write hist/report files plus
    summary.csv into out_dir.  Returns the summary rows and file paths.

    out_dir is a str or an os.PathLike and threads an integer >= 1, else
    InvalidParameterError; threads is the number of distributions run at
    once, each with its three generators, and the files do not depend on
    it."""
    out, rows, _ = _run_cells(out_dir, seed, n, replicates, threads,
                              FIGURE1_DISTS, FIGURE1_GENERATORS)
    (out / "summary.csv").write_text(csv_table(rows), newline="")
    return {"out_dir": str(out), "summary_csv": str(out / "summary.csv"), "cells": rows}


def reproduce_figure2(out_dir, seed: int = 42, n: int = 1000,
                      replicates: int = 1000, threads: int = 1) -> dict:
    """Run the heavy-tail comparison (identity vs log generator) and write
    per-cell files, summary.csv, and comparison.json into out_dir.

    The comparison reports ks for both generators, whether the geometric
    mean converged faster (ordering_ok), and the KS ratio; it never raises
    on the ordering.  Both cells take their means from the same draws, so
    threads beyond one go to that one distribution's replicate blocks.
    out_dir and threads are checked as by reproduce_figure1."""
    out, rows, counts = _run_cells(out_dir, seed, n, replicates, threads,
                                   (FIGURE2_DIST,), FIGURE2_GENERATORS)
    (out / "summary.csv").write_text(csv_table(rows), newline="")
    ks = {row["generator"]: row["ks"] for row in rows}
    comparison = {
        "dist": FIGURE2_DIST,
        "ks_identity": ks["identity"],
        "ks_log": ks["log"],
        "ordering_ok": ks["log"] < ks["identity"],
        "ks_ratio": ks["identity"] / ks["log"] if ks["log"] > 0 else math.inf,
        "metadata": {"version": __version__, **counts},
    }
    (out / "comparison.json").write_text(json_text(comparison))
    return {"out_dir": str(out), "summary_csv": str(out / "summary.csv"),
            "comparison": comparison, "cells": rows}

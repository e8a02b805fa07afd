"""Batch reproduction of the two standard simulation studies.

reproduce_figure1 runs the full compatibility grid — four sampling
distributions crossed with the identity/log/reciprocal generators — and
writes per-cell histogram + report files plus a summary of KS distances.
reproduce_figure2 runs the heavy-tailed comparison (LogNormal with log
variance 6.25) where the arithmetic mean converges slowly but the geometric
mean does not.

All floats in CSV output are serialized with 17 significant digits and all
randomness derives from the master seed, so repeat runs (at any thread
count) produce identical data files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .asymptotics import phi_pdf
from .distributions import parse_distribution
from .errors import ConfigurationError
from .generators import parse_generator
from .simulation import ScenarioConfig, SimulationReport, run_scenario

__all__ = ["reproduce_figure1", "reproduce_figure2", "write_hist", "FIGURE1_DISTS",
           "FIGURE1_GENERATORS"]

FIGURE1_DISTS = ("lognormal:2:1", "gamma:100:1", "uniform:1:2", "pareto:10:1")
FIGURE1_GENERATORS = ("identity", "log", "reciprocal")
FIGURE2_DIST = "lognormal:2:6.25"
FIGURE2_GENERATORS = ("identity", "log")

_HIST_BINS = 40
_HIST_RANGE = (-4.0, 4.0)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _cell_seed(master_seed: int, index: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _stem(dist_spec: str, gen_spec: str) -> str:
    return f"{dist_spec}_{gen_spec}".replace(":", "-").replace(".", "p")


def write_hist(path: Path, report: SimulationReport) -> None:
    """Write a CSV histogram of the report's standardized statistics on
    [-4, 4] in 40 bins, with the standard normal density at each midpoint."""
    counts, edges = np.histogram(report.statistics, bins=_HIST_BINS, range=_HIST_RANGE)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dens = phi_pdf(mids)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["bin_lo", "bin_hi", "count", "normal_density_at_mid"])
        for lo, hi, c, d in zip(edges[:-1], edges[1:], counts, dens):
            w.writerow([_fmt(lo), _fmt(hi), int(c), _fmt(d)])


def _write_report(path: Path, report: SimulationReport, version: str) -> dict:
    payload = {
        "config": report.metadata["config"],
        "eg": report.asymptotic.eg,
        "asym_var": report.asymptotic.asym_var,
        "empirical_var": report.empirical_var,
        "ks": report.ks_vs_normal,
        "edgeworth_sup_gap": (None if math.isnan(report.edgeworth_sup_gap)
                              else report.edgeworth_sup_gap),
        "runtime_ms": report.metadata["runtime_ms"],
        # thread count is deliberately not recorded: outputs must not depend
        # on the degree of parallelism, runtime_ms is the sole run-varying key
        "metadata": {
            "version": version,
            "seed": report.metadata["config"]["seed"],
        },
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _run_cells(out_dir, seed, n, replicates, threads, dists, generators):
    from . import __version__

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from exc

    rows = []
    for index, (dist_spec, gen_spec) in enumerate(
            (d, g) for d in dists for g in generators):
        cfg = ScenarioConfig(
            dist=parse_distribution(dist_spec),
            generator=parse_generator(gen_spec),
            n=n,
            replicates=replicates,
            seed=_cell_seed(seed, index),
        )
        report = run_scenario(cfg, threads=threads)
        stem = _stem(dist_spec, gen_spec)
        write_hist(out / f"{stem}.hist.csv", report)
        _write_report(out / f"{stem}.report.json", report, __version__)
        rows.append({
            "dist": dist_spec,
            "generator": gen_spec,
            "n": n,
            "replicates": replicates,
            "seed": cfg.seed,
            "ks": report.ks_vs_normal,
            "empirical_var": report.empirical_var,
            "asym_var": report.asymptotic.asym_var,
            "var_ratio": report.empirical_var / report.asymptotic.asym_var,
            "eg": report.asymptotic.eg,
        })
    return out, rows


def _write_summary(path: Path, rows) -> None:
    cols = ["dist", "generator", "n", "replicates", "seed", "ks",
            "empirical_var", "asym_var", "var_ratio", "eg"]
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([row[c] if isinstance(row[c], (int, str)) else _fmt(row[c])
                        for c in cols])


def reproduce_figure1(out_dir, seed: int = 42, n: int = 1000,
                      replicates: int = 1000, threads: int = 1) -> dict:
    """Run the 12-cell simulation grid and write hist/report files plus
    summary.csv into out_dir.  Returns the summary rows and file paths."""
    out, rows = _run_cells(out_dir, seed, n, replicates, threads,
                           FIGURE1_DISTS, FIGURE1_GENERATORS)
    _write_summary(out / "summary.csv", rows)
    return {"out_dir": str(out), "summary_csv": str(out / "summary.csv"), "cells": rows}


def reproduce_figure2(out_dir, seed: int = 42, n: int = 1000,
                      replicates: int = 1000, threads: int = 1) -> dict:
    """Run the heavy-tail comparison (identity vs log generator) and write
    per-cell files, summary.csv, and comparison.json into out_dir.

    The comparison reports ks for both generators, whether the geometric
    mean converged faster (ordering_ok), and the KS ratio; it never raises
    on the ordering."""
    from . import __version__

    out, rows = _run_cells(out_dir, seed, n, replicates, threads,
                           (FIGURE2_DIST,), FIGURE2_GENERATORS)
    _write_summary(out / "summary.csv", rows)
    ks = {row["generator"]: row["ks"] for row in rows}
    comparison = {
        "dist": FIGURE2_DIST,
        "ks_identity": ks["identity"],
        "ks_log": ks["log"],
        "ordering_ok": ks["log"] < ks["identity"],
        "ks_ratio": ks["identity"] / ks["log"] if ks["log"] > 0 else math.inf,
        "metadata": {"version": __version__, "seed": seed, "n": n,
                     "replicates": replicates},
    }
    (out / "comparison.json").write_text(
        json.dumps(comparison, indent=2, sort_keys=True) + "\n")
    return {"out_dir": str(out), "summary_csv": str(out / "summary.csv"),
            "comparison": comparison, "cells": rows}

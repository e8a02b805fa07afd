"""Command-line interface.

One executable, eight subcommands:

    mean                quasi-arithmetic mean of a data vector
    axioms              randomized check of the four mean axioms
    edgeworth           tabulate normal + Edgeworth CDF approximations
    simulate            Monte Carlo scenario run (report + histogram)
    stability           generator-perturbation bound vs measured distance
    portfolio           geometric average return and its approximation
    reproduce-figure1   the full 12-cell simulation grid
    reproduce-figure2   the heavy-tail identity-vs-log comparison

Exit codes: 0 success, 2 configuration error, 3 numeric/divergence error.
Every JSON payload carries a metadata block with version, seed, and a config
echo.  CSV output uses '.' decimals and 17 significant digits.

The output decisions the figure files also make have one owner each: CSV
tables are figures.csv_table, JSON text is figures.json_text, the simulate
payload is SimulationReport.as_dict (the keys of a figure cell's report
file), and --threads runs through simulation.thread_map.  One parser,
_parse_interval, reads --box and --grid, and one handler serves both
reproduce-figure commands.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import __version__
from .asymptotics import edgeworth_cdf, edgeworth_corrections, g_moments, phi_cdf
from .distributions import parse_distribution
from .errors import ConfigurationError, InvalidParameterError, NumericError
from .figures import csv_table, hist_text, json_text, reproduce_figure1, reproduce_figure2
from .generators import Interval, parse_generator, require_count
from .means import check_axioms, mean
from .portfolio import (
    ReturnSeries,
    geometric_average_return,
    markowitz_approximation,
    wealth_path,
)
from .simulation import ScenarioConfig, run_scenario
from .stability import verify_stability

__all__ = ["main", "build_parser"]


def _load_values(source: str) -> list[float]:
    """Inline comma list or a path to a text/CSV file of numbers."""
    path = Path(source)
    try:  # "" is ".", and neither it nor another directory is a data file
        is_file = path.is_file()
    except OSError:  # an inline list too long to be a file name
        is_file = False
    try:
        text = path.read_text() if is_file else source
    except (OSError, UnicodeError) as exc:
        raise InvalidParameterError(f"could not read data file {source!r}: {exc}") from None
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise InvalidParameterError(f"no numbers found in {source!r}")
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise InvalidParameterError(f"could not parse data {source!r}: {exc}") from None


def _parse_interval(spec: str, what: str, steps: bool = False):
    """The --box or --grid value: "lo:hi" as an Interval, or with steps
    "lo:hi:steps" as (Interval of finite width, steps >= 2).  Anything else
    is InvalidParameterError naming what."""
    form = "lo:hi:steps" if steps else "lo:hi"
    parts = spec.split(":")
    if len(parts) != form.count(":") + 1:
        raise InvalidParameterError(f"{what} spec must be {form}, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), (int(parts[2]) if steps else 2)
    except ValueError:
        raise InvalidParameterError(f"bad {what} spec {spec!r}") from None
    require_count(count, f"{what} steps", 2)
    span = Interval(lo, hi)
    if steps and not math.isfinite(span.width):  # its points would be NaN
        raise InvalidParameterError(f"{what} needs a finite width, got {spec!r}")
    return (span, count) if steps else span


def _meta(args, **config) -> dict:
    return {"version": __version__, "seed": getattr(args, "seed", None), "config": config}


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, (list, tuple)):
            out[key] = json.dumps(v)
        else:
            out[key] = v
    return out


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json_text(payload)
    # a payload without rows is one row, its nested keys flattened
    rows = payload.get("rows") or [
        _flatten({k: v for k, v in payload.items() if k != "metadata"})]
    return csv_table(rows)


def _emit(args, payload: dict) -> None:
    text = _render(payload, args.format)
    if args.out:
        Path(args.out).write_text(text, newline="")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_mean(args) -> dict:
    g = parse_generator(args.generator)
    values = _load_values(args.data)
    return {
        "command": "mean",
        "mean": mean(g, values),
        "n": len(values),
        "metadata": _meta(args, generator=args.generator, data=args.data),
    }


def _cmd_axioms(args) -> dict:
    g = parse_generator(args.generator)
    report = check_axioms(g, n=args.n, n0=args.n0, trials=args.trials,
                          tol=args.tol, rng_seed=args.seed)
    payload = {"command": "axioms", **report.as_dict()}
    payload["metadata"] = _meta(args, generator=args.generator, n=args.n,
                                n0=args.n0 if args.n0 is not None else args.n,
                                trials=args.trials, tol=args.tol)
    return payload


def _cmd_edgeworth(args) -> dict:
    g = parse_generator(args.generator)
    dist = parse_distribution(args.dist)
    mom = g_moments(g, dist)
    span, steps = _parse_interval(args.grid, "grid", steps=True)
    x = span.grid(steps)  # the grid of compare_edgeworth
    c1, c2, c3 = edgeworth_corrections(x, args.n, mom)
    columns = {"x": x, "phi_cdf": phi_cdf(x), "edgeworth_cdf": edgeworth_cdf(x, args.n, mom),
               "correction_1": c1, "correction_2": c2, "correction_3": c3}
    rows = [dict(zip(columns, values))
            for values in zip(*(col.tolist() for col in columns.values()))]
    return {
        "command": "edgeworth",
        "rows": rows,
        "metadata": _meta(args, generator=args.generator, dist=args.dist,
                          n=args.n, grid=args.grid),
    }


def _cmd_simulate(args) -> dict:
    cfg = ScenarioConfig(
        dist=parse_distribution(args.dist),
        generator=parse_generator(args.generator),
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
    )
    report = run_scenario(cfg, threads=args.threads)
    if args.hist:
        Path(args.hist).write_text(hist_text(report), newline="")
    return {
        "command": "simulate",
        **report.as_dict(),
        "metadata": _meta(args, dist=args.dist, generator=args.generator,
                          n=args.n, replicates=args.replicates,
                          threads=args.threads),
    }


def _cmd_stability(args) -> dict:
    g = parse_generator(args.g)
    h = parse_generator(args.h)
    report = verify_stability(g, h, _parse_interval(args.box, "box"), n=args.n)
    payload = {"command": "stability", **report.as_dict()}
    payload["metadata"] = _meta(args, g=args.g, h=args.h, box=args.box, n=args.n)
    return payload


def _cmd_portfolio(args) -> dict:
    values = _load_values(args.returns)
    if args.percent:
        values = [v / 100.0 for v in values]
    series = ReturnSeries(tuple(values), w0=args.w0)
    gross = geometric_average_return(series)
    approx = markowitz_approximation(series, ddof=args.ddof)
    return {
        "command": "portfolio",
        "wealth": wealth_path(series),
        "geometric_average_gross": gross,
        "geometric_average_net": gross - 1.0,
        "markowitz": approx,
        "gap": approx - gross,
        "n_periods": len(series.returns),
        "metadata": _meta(args, returns=args.returns, w0=args.w0,
                          percent=args.percent, ddof=args.ddof),
    }


def _cmd_figure(args) -> dict:
    result = args.reproduce(args.out or args.default_out, seed=args.seed,
                            n=args.n, replicates=args.replicates,
                            threads=args.threads)
    args.out = None  # artifacts land in the directory; summary goes to stdout
    return {
        "command": args.command,
        "rows": result.pop("cells"),
        **result,  # out_dir, summary_csv, and figure 2's comparison
        "metadata": _meta(args, n=args.n, replicates=args.replicates,
                          threads=args.threads),
    }


# ---------------------------------------------------------------------------

def _common_parent() -> argparse.ArgumentParser:
    # A fresh instance per subcommand: argparse parents share action objects,
    # so a per-command set_defaults would otherwise leak across commands.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="master RNG seed")
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="stdout payload format")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regmeans",
        description="Quasi-arithmetic means: computation, axioms, asymptotics, "
                    "and Monte Carlo verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mean", parents=[_common_parent()], help="mean of a data vector")
    p.add_argument("--generator", required=True,
                   help="identity | log | reciprocal | power:<p> | exp")
    p.add_argument("--data", required=True, help="inline comma list or a file of numbers")
    p.set_defaults(func=_cmd_mean)

    p = sub.add_parser("axioms", parents=[_common_parent()], help="randomized axiom checks")
    p.add_argument("--generator", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n0", type=int, default=None,
                   help="leading block size for the replacement axiom (default n)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_axioms)

    p = sub.add_parser("edgeworth", parents=[_common_parent()],
                       help="normal and Edgeworth CDF table")
    p.add_argument("--generator", required=True)
    p.add_argument("--dist", required=True,
                   help="lognormal:<mu>:<s2> | gamma:<a>:<b> | uniform:<lo>:<hi> | pareto:<alpha>[:<xm>]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", default="-3:3:121", help="lo:hi:steps")
    p.set_defaults(func=_cmd_edgeworth, format="csv")

    p = sub.add_parser("simulate", parents=[_common_parent()], help="Monte Carlo scenario run")
    p.add_argument("--dist", required=True)
    p.add_argument("--generator", required=True)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--hist", default=None, help="also write a histogram CSV here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("stability", parents=[_common_parent()],
                       help="generator perturbation bound vs measured distance")
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--box", default="1:2", help="evaluation interval lo:hi")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("portfolio", parents=[_common_parent()],
                       help="geometric average return and approximation")
    p.add_argument("--returns", required=True, help="inline comma list or a file")
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--percent", action="store_true",
                   help="returns are given in percent, divide by 100")
    p.add_argument("--ddof", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=_cmd_portfolio)

    for number, reproduce, what in (
            (1, reproduce_figure1, "full simulation grid (12 cells)"),
            (2, reproduce_figure2, "heavy-tail identity vs log comparison")):
        p = sub.add_parser(f"reproduce-figure{number}", parents=[_common_parent()],
                           help=what)
        p.add_argument("--n", type=int, default=1000)
        p.add_argument("--replicates", type=int, default=1000)
        p.set_defaults(func=_cmd_figure, reproduce=reproduce,
                       default_out=f"figure{number}-out")

    for name, what in (("simulate", "the replicate blocks of the scenario"),
                       ("reproduce-figure1", "the figure's distributions (each "
                                             "with all its generators)"),
                       ("reproduce-figure2", "the distribution's replicate blocks "
                                             "(for all its generators)")):
        sub.choices[name].add_argument(
            "--threads", type=int, default=1,
            help=f"worker threads (>= 1) that run {what} at once; "
                 "results do not depend on it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own message
        return int(exc.code or 0)
    try:
        payload = args.func(args)
        _emit(args, payload)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

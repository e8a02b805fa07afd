"""End-to-end command-line behavior: payloads, formats, exit codes."""

import csv
import json
import math

import pytest

from regmeans import (Interval, __version__, edgeworth_cdf, figures, g_moments,
                      parse_distribution, parse_generator, verify_stability)
from regmeans.cli import build_parser, main


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestMeanCommand:
    def test_json_payload(self, capsys):
        payload = run_json(capsys, ["mean", "--generator", "log", "--data", "2,8"])
        assert payload["mean"] == pytest.approx(4.0)
        assert payload["n"] == 2
        assert payload["command"] == "mean"

    def test_metadata_block(self, capsys):
        payload = run_json(capsys, ["mean", "--generator", "identity",
                                    "--data", "1 2 3", "--seed", "7"])
        meta = payload["metadata"]
        assert meta["version"] == __version__
        assert meta["seed"] == 7
        assert meta["config"]["generator"] == "identity"

    def test_csv_has_full_precision(self, capsys):
        code = main(["mean", "--generator", "power:2.0", "--data", "3,4",
                     "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        assert "3.5355339059327378" in out  # 17 significant digits

    def test_data_from_file(self, tmp_path, capsys):
        f = tmp_path / "values.csv"
        f.write_text("2\n8\n")
        payload = run_json(capsys, ["mean", "--generator", "log", "--data", str(f)])
        assert payload["mean"] == pytest.approx(4.0)

    def test_out_writes_file(self, tmp_path, capsys):
        dest = tmp_path / "result.json"
        code = main(["mean", "--generator", "identity", "--data", "1,3",
                     "--out", str(dest)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(dest.read_text())["mean"] == 2.0


class TestExitCodes:
    def test_unknown_generator_is_config_error(self, capsys):
        assert main(["mean", "--generator", "sinh", "--data", "1,2"]) == 2

    def test_domain_violation_is_config_error(self, capsys):
        assert main(["mean", "--generator", "log", "--data", "0,1"]) == 2

    def test_unparseable_data_is_config_error(self, capsys):
        assert main(["mean", "--generator", "log", "--data", "one,two"]) == 2

    @pytest.mark.parametrize("data", ["", "."])
    def test_empty_or_directory_data_is_config_error(self, data, capsys):
        # Path("") is "." and exists, but neither is a data file
        assert main(["mean", "--generator", "log", "--data", data]) == 2

    def test_unreadable_data_file_is_config_error(self, tmp_path, capsys):
        f = tmp_path / "values.bin"
        f.write_bytes(b"\xff\xfe\x002")
        assert main(["mean", "--generator", "log", "--data", str(f)]) == 2

    def test_inline_list_too_long_for_a_file_name(self, capsys):
        payload = run_json(capsys, ["mean", "--generator", "identity",
                                    "--data", ",".join(["2"] * 2000)])
        assert payload["mean"] == 2.0

    def test_divergent_simulation_is_numeric_error(self, capsys):
        code = main(["simulate", "--dist", "lognormal:2:1", "--generator", "exp",
                     "--n", "50", "--replicates", "5"])
        assert code == 3
        assert "diverge" in capsys.readouterr().err

    def test_moment_beyond_the_float_range_is_numeric_error(self, capsys):
        code = main(["simulate", "--dist", "uniform:0:710", "--generator", "exp",
                     "--n", "50", "--replicates", "5"])
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    def test_power_moment_beyond_the_float_range_is_numeric_error(self, capsys):
        # exp(750) raised a bare OverflowError: a traceback and exit 1
        code = main(["simulate", "--dist", "lognormal:700:100", "--generator", "identity",
                     "--n", "50", "--replicates", "5"])
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("dist, generator", [("uniform:1:1e200", "identity"),
                                                 ("gamma:1e-320:1", "log")])
    def test_moment_tracebacks_are_numeric_errors(self, dist, generator, capsys):
        # a bare OverflowError (hi ** 2) and a ZeroDivisionError (digamma at
        # a tiny shape) ended in a traceback and exit 1
        code = main(["simulate", "--dist", dist, "--generator", generator,
                     "--n", "50", "--replicates", "5"])
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    def test_log_moment_beyond_the_float_range_is_numeric_error(self, capsys):
        # var(ln X) = alpha ** -2 overflowed into a traceback and exit 1
        code = main(["edgeworth", "--generator", "log", "--dist", "pareto:1e-300",
                     "--n", "5"])
        assert code == 3
        assert "overflows" in capsys.readouterr().err

    def test_moment_below_the_normal_range_is_numeric_error(self, capsys):
        code = main(["simulate", "--dist", "uniform:-760:-740", "--generator", "exp",
                     "--n", "50", "--replicates", "5"])
        assert code == 3
        assert "underflows" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, capsys):
        assert main(["mean", "--generator", "log", "--data", "1,2",
                     "--frobnicate"]) == 2

    def test_unknown_command_rejected(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_threads_belongs_to_the_simulation_commands(self, capsys):
        assert main(["mean", "--generator", "log", "--data", "2,8", "--threads", "2"]) == 2
        payload = run_json(capsys, ["simulate", "--dist", "uniform:1:2", "--generator",
                                    "identity", "--n", "20", "--replicates", "10",
                                    "--threads", "2"])
        assert payload["metadata"]["config"]["threads"] == 2

    def test_negative_seed_is_config_error(self, capsys):
        # SeedSequence raised a bare ValueError: exit 1 with a traceback
        assert main(["simulate", "--dist", "uniform:1:2", "--generator", "identity",
                     "--n", "20", "--replicates", "10", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_is_config_error(self, capsys, threads):
        assert main(["simulate", "--dist", "uniform:1:2", "--generator", "identity",
                     "--n", "20", "--replicates", "10", "--threads", threads]) == 2
        assert "threads" in capsys.readouterr().err

    def test_error_message_on_stderr(self, capsys):
        main(["mean", "--generator", "log", "--data", "0,1"])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "domain" in captured.err.lower()


class TestAxiomsCommand:
    def test_passing_report(self, capsys):
        payload = run_json(capsys, ["axioms", "--generator", "log", "--n", "4",
                                    "--trials", "50"])
        assert payload["all_passed"] is True
        assert payload["a1_monotone"]["passed"] is True
        assert payload["trials"] == 50
        assert payload["metadata"]["config"]["n0"] == 4

    def test_explicit_block_size(self, capsys):
        payload = run_json(capsys, ["axioms", "--generator", "identity",
                                    "--n", "6", "--n0", "2", "--trials", "40"])
        assert payload["metadata"]["config"]["n0"] == 2


class TestEdgeworthCommand:
    def test_defaults_to_csv_table(self, capsys):
        code = main(["edgeworth", "--generator", "identity",
                     "--dist", "gamma:1:1", "--n", "20"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert list(rows[0]) == ["x", "phi_cdf", "edgeworth_cdf",
                                 "correction_1", "correction_2", "correction_3"]
        assert len(rows) == 121
        assert float(rows[0]["x"]) == -3.0 and float(rows[-1]["x"]) == 3.0

    def test_json_when_asked(self, capsys):
        payload = run_json(capsys, ["edgeworth", "--generator", "identity",
                                    "--dist", "gamma:1:1", "--n", "20",
                                    "--grid", "0:1:3", "--format", "json"])
        assert len(payload["rows"]) == 3
        assert payload["metadata"]["config"] == {"generator": "identity", "dist": "gamma:1:1",
                                                 "n": 20, "grid": "0:1:3"}

    def test_third_order_option_is_gone(self, capsys):
        # the O(1/n) term has the classical skew**2 coefficient only
        assert main(["edgeworth", "--generator", "identity", "--dist", "gamma:1:1",
                     "--n", "20", "--third-order", "skew-sq"]) == 2
        assert "--third-order" in capsys.readouterr().err

    def test_corrections_match_library(self, capsys):
        code = main(["edgeworth", "--generator", "log", "--dist", "lognormal:2:1",
                     "--n", "100", "--grid", "0:2:5"])
        out = capsys.readouterr().out
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            assert float(row["correction_1"]) == 0.0
            assert float(row["edgeworth_cdf"]) == float(row["phi_cdf"])

    def test_table_is_the_library_on_the_grid_of_compare_edgeworth(self, capsys):
        # x was lo + width * arange / (steps - 1), off Interval.grid at 36 of
        # the 121 default points, and the Edgeworth column was re-added by hand
        assert main(["edgeworth", "--generator", "identity", "--dist", "gamma:1:1",
                     "--n", "20"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        xs = Interval(-3.0, 3.0).grid(121)
        mom = g_moments(parse_generator("identity"), parse_distribution("gamma:1:1"))
        assert [float(row["x"]) for row in rows] == xs.tolist()
        assert [float(row["edgeworth_cdf"]) for row in rows] == edgeworth_cdf(xs, 20, mom).tolist()

    def test_bad_grid_spec(self, capsys):
        assert main(["edgeworth", "--generator", "identity", "--dist", "gamma:1:1",
                     "--n", "10", "--grid", "3:1:5"]) == 2

    # an infinite width (the last three) would fill the table with NaN
    @pytest.mark.parametrize("grid", ["1", "a:2", "1:2", "1:2:x", "a:2:5", "0:1:1",
                                      "-inf:inf:5", "0:inf:5", "-1e308:1e308:5"])
    def test_malformed_grid_spec(self, capsys, grid):
        assert main(["edgeworth", "--generator", "identity", "--dist", "gamma:1:1",
                     "--n", "10", f"--grid={grid}"]) == 2
        assert "grid" in capsys.readouterr().err


class TestSimulateCommand:
    def test_report_and_hist(self, tmp_path, capsys):
        hist = tmp_path / "hist.csv"
        payload = run_json(capsys, [
            "simulate", "--dist", "gamma:100:1", "--generator", "log",
            "--n", "80", "--replicates", "60", "--hist", str(hist)])
        assert set(payload) >= {"config", "eg", "asym_var", "empirical_var",
                                "ks", "edgeworth_sup_gap", "runtime_ms"}
        assert payload["config"]["n"] == 80
        rows = list(csv.DictReader(hist.read_text().splitlines()))
        assert list(rows[0]) == ["bin_lo", "bin_hi", "count",
                                 "normal_density_at_mid"]
        assert sum(int(r["count"]) for r in rows) == 60

    def test_divergent_edgeworth_gap_is_null(self, capsys):
        # E[X**4] diverges for Pareto(3.5), so the expansion is undefined
        payload = run_json(capsys, ["simulate", "--dist", "pareto:3.5", "--generator",
                                    "identity", "--n", "20", "--replicates", "10"])
        assert payload["edgeworth_sup_gap"] is None
        assert math.isfinite(payload["ks"])

    def test_payload_matches_a_figure_report(self, tmp_path, capsys):
        # the same config through the CLI and through a figure cell
        out, rows, _ = figures._run_cells(tmp_path, 42, 30, 20, 1,
                                          ("gamma:100:1",), ("log",))
        report = json.loads((out / "gamma-100-1_log.report.json").read_text())
        payload = run_json(capsys, ["simulate", "--dist", "gamma:100:1", "--generator",
                                    "log", "--n", "30", "--replicates", "20",
                                    "--seed", str(rows[0]["seed"])])
        for key in ("command", "metadata", "runtime_ms"):
            payload.pop(key)
        for key in ("metadata", "runtime_ms"):
            report.pop(key)
        assert payload == report

    def test_seed_changes_output(self, capsys):
        a = run_json(capsys, ["simulate", "--dist", "uniform:1:2", "--generator",
                              "identity", "--n", "40", "--replicates", "30",
                              "--seed", "1"])
        b = run_json(capsys, ["simulate", "--dist", "uniform:1:2", "--generator",
                              "identity", "--n", "40", "--replicates", "30",
                              "--seed", "2"])
        assert a["ks"] != b["ks"]
        assert a["eg"] == b["eg"]


class TestStabilityCommand:
    def test_certificate_payload(self, capsys):
        payload = run_json(capsys, ["stability", "--g", "identity", "--h", "log",
                                    "--box", "1:2", "--n", "2"])
        assert payload["satisfied"] is True
        assert payload["bound"] == pytest.approx(3.0 * (2.0 - math.log(2.0)), rel=1e-9)
        assert payload["sup_mean_distance"] <= payload["bound"]

    def test_bad_box(self, capsys):
        assert main(["stability", "--g", "identity", "--h", "log",
                     "--box", "2:1"]) == 2

    def test_grid_is_not_an_option(self, capsys):
        # the bound is read on the certificate's own axis, which takes no size
        assert main(["stability", "--g", "identity", "--h", "log", "--grid", "21"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_seed_leaves_the_certificate_where_the_ratio_turns(self, capsys):
        # g'/h' = 2x e^(-x) peaks at x = 1, inside the box: the sup is that of
        # the reduced rows with one more interior value, and nothing is drawn
        argv = ["stability", "--g", "power:2.0", "--h", "exp", "--box", "0.5:3",
                "--n", "5"]
        a = run_json(capsys, argv + ["--seed", "1"])
        b = run_json(capsys, argv + ["--seed", "2"])
        assert a.pop("metadata")["seed"] == 1 and b.pop("metadata")["seed"] == 2
        assert a == b
        want = verify_stability(parse_generator("power:2.0"), parse_generator("exp"),
                                Interval(0.5, 3.0), n=5, grid_per_dim=21)
        assert a["sup_mean_distance"] == want.sup_mean_distance

    def test_seed_leaves_the_reduced_certificate(self, capsys):
        # g'/h' = x is monotone: the sup is exact and no point is drawn
        argv = ["stability", "--g", "identity", "--h", "log", "--n", "5"]
        a = run_json(capsys, argv + ["--seed", "1"])
        b = run_json(capsys, argv + ["--seed", "2"])
        assert a["sup_mean_distance"] == b["sup_mean_distance"]

    @pytest.mark.parametrize("box", ["1", "a:2", "1:2:x", "1:2:5"])
    def test_malformed_box_spec(self, capsys, box):
        assert main(["stability", "--g", "identity", "--h", "log",
                     "--box", box]) == 2
        assert "box" in capsys.readouterr().err

    def test_csv_writes_the_box_as_a_json_cell(self, capsys):
        code = main(["stability", "--g", "identity", "--h", "log", "--box", "1:2",
                     "--n", "2", "--format", "csv"])
        assert code == 0
        (row,) = csv.DictReader(capsys.readouterr().out.splitlines())
        assert row["box"] == "[1.0, 2.0]"
        assert row["satisfied"] == "True"
        assert "metadata.seed" not in row


class TestPortfolioCommand:
    def test_percent_flag(self, capsys):
        payload = run_json(capsys, ["portfolio", "--returns", "10,-10", "--percent"])
        assert payload["wealth"] == pytest.approx(0.99)
        assert payload["geometric_average_gross"] == pytest.approx(math.sqrt(0.99))
        assert payload["geometric_average_net"] == pytest.approx(math.sqrt(0.99) - 1.0)
        assert payload["gap"] == pytest.approx(
            math.exp(-0.005) - math.sqrt(0.99), rel=1e-9)

    def test_ruinous_return_is_domain_error(self, capsys):
        assert main(["portfolio", "--returns", "0.5,-1.5"]) == 2


class TestReproduceCommands:
    def test_figure1_small(self, tmp_path, capsys):
        out = tmp_path / "fig1"
        payload = run_json(capsys, ["reproduce-figure1", "--out", str(out),
                                    "--n", "30", "--replicates", "40"])
        assert len(payload["rows"]) == 12
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 13  # header + 12 cells
        assert summary[0] == "dist,generator,n,replicates,seed,ks,empirical_var,asym_var,var_ratio,eg"
        stems = {r["dist"] + "|" + r["generator"] for r in payload["rows"]}
        assert len(stems) == 12
        for row in payload["rows"]:
            stem = row["dist"].replace(":", "-").replace(".", "p") + "_" + row["generator"]
            assert (out / f"{stem}.hist.csv").exists()
            assert (out / f"{stem}.report.json").exists()

    def test_figure1_reruns_are_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["reproduce-figure1", "--out", str(a), "--n", "25",
                     "--replicates", "30"]) == 0
        assert main(["reproduce-figure1", "--out", str(b), "--n", "25",
                     "--replicates", "30"]) == 0
        capsys.readouterr()
        assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()

    def test_figure2_small(self, tmp_path, capsys):
        out = tmp_path / "fig2"
        payload = run_json(capsys, ["reproduce-figure2", "--out", str(out),
                                    "--n", "60", "--replicates", "80"])
        comp = json.loads((out / "comparison.json").read_text())
        assert set(comp) >= {"dist", "ks_identity", "ks_log", "ks_ratio",
                             "ordering_ok"}
        assert comp["dist"] == "lognormal:2:6.25"
        assert payload["comparison"]["ks_log"] == comp["ks_log"]

    def test_unwritable_out_dir_is_config_error(self, tmp_path, capsys):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        assert main(["reproduce-figure1", "--out", str(blocker),
                     "--n", "20", "--replicates", "20"]) == 2


# every subcommand with each of its options given; "{tmp}" is a fresh directory
EVERY_OPTION = {
    "mean": "--generator log --data 1,2",
    "axioms": "--generator log --n 3 --n0 2 --trials 5 --tol 1e-8",
    "edgeworth": "--generator log --dist gamma:2:1 --n 5 --grid=-1:1:3 --format json",
    "simulate": "--dist gamma:2:1 --generator log --n 5 --replicates 20 --threads 2 "
                "--hist {tmp}/h.csv",
    "stability": "--g log --h identity --box 1:3 --n 3",
    "portfolio": "--returns 10,5 --w0 2 --percent --ddof 1",
    "reproduce-figure1": "--n 5 --replicates 10 --threads 2 --out {tmp}/f1",
    "reproduce-figure2": "--n 5 --replicates 10 --out {tmp}/f2",
}
# where output goes and in what form, and the seed, which metadata holds itself
NOT_ECHOED = {"help", "seed", "out", "hist", "format"}


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    return sub.choices


def test_every_subcommand_is_covered():
    assert set(_subcommands(build_parser())) == set(EVERY_OPTION)


@pytest.mark.parametrize("command", EVERY_OPTION)
def test_the_config_echo_holds_every_input_option(command, tmp_path, capsys):
    argv = [command, "--seed", "3", *EVERY_OPTION[command].format(tmp=tmp_path).split()]
    parser = build_parser()
    parsed = parser.parse_args(argv)
    options = [a.dest for a in _subcommands(parser)[command]._actions
               if a.option_strings and a.dest not in NOT_ECHOED]
    payload = run_json(capsys, argv)
    assert payload["command"] == command
    assert payload["metadata"] == {"version": __version__, "seed": 3,
                                   "config": {k: getattr(parsed, k) for k in options}}


@pytest.mark.parametrize("spaced, joined", [
    ("edgeworth --generator log --dist gamma:2:1 --n 10 --grid -3:3:121",
     "edgeworth --generator log --dist gamma:2:1 --n 10"),  # the default grid
    ("stability --g identity --h exp --box -1:1", "stability --g identity --h exp --box=-1:1"),
    ("mean --generator identity --data -1,2,4", "mean --generator identity --data=-1,2,4"),
    ("portfolio --returns -5,10 --percent", "portfolio --returns=-5,10 --percent"),
], ids=["grid", "box", "data", "returns"])
def test_a_value_that_starts_with_a_minus_may_follow_its_option(spaced, joined, capsys):
    # argparse took each spaced value for an option: exit 2, "expected one
    # argument"
    outputs = []
    for argv in (spaced, joined):
        assert main(argv.split()) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_an_option_after_a_value_option_is_not_its_value(capsys):
    assert main(["stability", "--g", "log", "--h", "identity", "--box", "--n", "3"]) == 2
    assert "--box: expected one argument" in capsys.readouterr().err

"""End-to-end command-line behavior: payloads, formats, exit codes."""

import csv
import json
import math

import pytest

from regmeans import __version__
from regmeans.cli import main


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

    def test_divergent_simulation_is_numeric_error(self, capsys):
        code = main(["simulate", "--dist", "lognormal:2:1", "--generator", "exp",
                     "--n", "50", "--replicates", "5"])
        assert code == 3
        assert "diverge" in capsys.readouterr().err

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
        assert payload["metadata"]["config"]["n"] == 20

    def test_corrections_match_library(self, capsys):
        code = main(["edgeworth", "--generator", "log", "--dist", "lognormal:2:1",
                     "--n", "100", "--grid", "0:2:5"])
        out = capsys.readouterr().out
        assert code == 0
        for row in csv.DictReader(out.splitlines()):
            assert float(row["correction_1"]) == 0.0
            assert float(row["edgeworth_cdf"]) == float(row["phi_cdf"])

    def test_bad_grid_spec(self, capsys):
        assert main(["edgeworth", "--generator", "identity", "--dist", "gamma:1:1",
                     "--n", "10", "--grid", "3:1:5"]) == 2


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
                                    "--box", "1:2", "--n", "2", "--grid", "51"])
        assert payload["satisfied"] is True
        assert payload["bound"] == pytest.approx(3.0 * (2.0 - math.log(2.0)), rel=1e-9)
        assert payload["sup_mean_distance"] <= payload["bound"]

    def test_bad_box(self, capsys):
        assert main(["stability", "--g", "identity", "--h", "log",
                     "--box", "2:1"]) == 2


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

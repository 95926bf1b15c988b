"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import tgd
from tgd import fit_quantiles
from tgd.cli import _AUDIT_TERMS, main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_record(self, capsys):
        code, out, err = run_cli(
            ["eval", "--q", "0.5", "--alpha", "0.5", "--y", "0"], capsys
        )
        assert code == 0 and err == ""
        rec = json.loads(out)
        assert rec["pmf"] == pytest.approx(0.625)
        assert rec["cdf"] == pytest.approx(0.625)
        assert rec["survival"] == pytest.approx(1.0)
        assert rec["hazard"] == pytest.approx(0.625)
        assert rec["reversed_hazard"] == pytest.approx(1.0)

    def test_quantile_key(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--q", "0.9", "--alpha", "-0.5", "--y", "0", "--p", "0.5"], capsys
        )
        assert code == 0
        assert json.loads(out)["quantile"] == 9

    def test_audit(self, capsys):
        code, out, _ = run_cli(
            ["eval", "--q", "0.5", "--alpha", "0.5", "--y", "3", "--audit"], capsys
        )
        assert code == 0
        assert json.loads(out)["audit_max_deviation"] < 1e-12

    def test_long_audit_is_one_block_pass(self, capsys):
        # 400001 oracle terms, near the audit budget, summed in numpy blocks
        start = time.perf_counter()
        code, out, _ = run_cli(
            ["eval", "--q", "0.9995", "--alpha", "0.3", "--y", "400000", "--audit"], capsys
        )
        assert time.perf_counter() - start < 0.1
        assert code == 0 and json.loads(out)["audit_max_deviation"] < 1e-12

    def test_audit_over_budget_refused_at_once(self, capsys):
        # y + 1 oracle terms, far past the audit budget
        start = time.perf_counter()
        code, out, err = run_cli(
            ["eval", "--q", "0.5", "--alpha", "0.5", "--y", str(2**62), "--audit"], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: domain:") and str(_AUDIT_TERMS) in err

    def test_domain_error_exit_2(self, capsys):
        code, out, err = run_cli(
            ["eval", "--q", "1.5", "--alpha", "0.0", "--y", "0"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: domain:")

    def test_negative_y_exit_2(self, capsys):
        code, _, err = run_cli(
            ["eval", "--q", "0.5", "--alpha", "0.0", "--y", "-1"], capsys
        )
        assert code == 2 and err.startswith("error: domain:")


class TestTable:
    def test_geometric_rows(self, capsys):
        code, out, _ = run_cli(
            ["table", "--q", "0.5", "--alpha", "0", "--ymax", "3"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,pmf,cdf,survival,hazard"
        pmf_col = [line.split(",")[1] for line in lines[1:]]
        assert pmf_col == ["0.5", "0.25", "0.125", "0.0625"]
        hazard_col = {line.split(",")[4] for line in lines[1:]}
        assert hazard_col == {"0.5"}

    def test_consistency_at_printed_precision(self, capsys):
        code, out, _ = run_cli(
            ["table", "--q", "0.85", "--alpha", "-0.6", "--ymax", "30"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        prev_cdf = 0.0
        for row in rows:
            pmf_v, cdf_v = float(row[1]), float(row[2])
            assert pmf_v == pytest.approx(cdf_v - prev_cdf, abs=1e-8)
            prev_cdf = cdf_v

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["table", "--q", "0.5", "--alpha", "0", "--ymax", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["y"] for r in rows] == [0, 1]


class TestSample:
    def test_deterministic_lines(self, capsys):
        argv = ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "20", "--seed", "42"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2
        values = [int(v) for v in out1.strip().split("\n")]
        assert len(values) == 20 and all(v >= 0 for v in values)

    def test_seed_required(self, capsys, monkeypatch):
        monkeypatch.delenv("TGD_SEED", raising=False)
        code, _, err = run_cli(
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "5"], capsys
        )
        assert code == 1 and err.startswith("error: usage:")

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TGD_SEED", "7")
        code, out_env, _ = run_cli(
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "5"], capsys
        )
        assert code == 0
        _, out_flag, _ = run_cli(
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "5", "--seed", "7"], capsys
        )
        assert out_env == out_flag

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TGD_SEED", "7")
        _, out, _ = run_cli(
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "5", "--seed", "8"], capsys
        )
        _, out7, _ = run_cli(
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "5", "--seed", "7"], capsys
        )
        assert out != out7

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TGD_SEED", "not-a-number")
        code, _, err = run_cli(
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "5"], capsys
        )
        assert code == 1 and "TGD_SEED" in err


class TestFit:
    def test_round_trip_with_sample(self, capsys, tmp_path):
        argv = [
            "sample", "--q", "0.6", "--alpha", "-0.5",
            "--n", "5000", "--seed", "9", "--method", "inverse",
        ]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        data = tmp_path / "draws.txt"
        data.write_text(out)
        code, fit_out, _ = run_cli(
            ["fit", "--input", str(data), "--method", "mle"], capsys
        )
        assert code == 0
        rec = json.loads(fit_out)
        assert abs(rec["q"] - 0.6) < 0.05
        assert abs(rec["alpha"] + 0.5) < 0.3
        assert rec["converged"] is True
        assert rec["method"] == "mle"

    def test_histogram_csv_input(self, capsys, tmp_path):
        data = tmp_path / "hist.csv"
        data.write_text("value,count\n0,60\n1,25\n2,10\n3,5\n")
        lines = tmp_path / "lines.txt"
        lines.write_text("0\n" * 60 + "1\n" * 25 + "2\n" * 10 + "3\n" * 5)
        for method in ("moments", "mle", "quantiles"):
            code, out, _ = run_cli(
                ["fit", "--input", str(data), "--method", method], capsys
            )
            assert code == 0
            rec = json.loads(out)
            assert 0.0 < rec["q"] < 1.0 and -1.0 <= rec["alpha"] <= 1.0
            code, out_lines, _ = run_cli(
                ["fit", "--input", str(lines), "--method", method], capsys
            )
            assert code == 0 and out_lines == out, method

    @pytest.mark.parametrize("method", ["moments", "mle"])
    def test_histogram_count_is_not_expanded(self, capsys, tmp_path, method):
        data = tmp_path / "hist.csv"
        data.write_text(f"value,count\n0,{10**12}\n1,{4 * 10**11}\n2,7\n5,{10**12}\n")
        start = time.perf_counter()
        code, out, _ = run_cli(["fit", "--input", str(data), "--method", method], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["method"] == method

    @pytest.mark.parametrize("rows", ["0,5\n1\n", "0,5\n1,x\n", "0,5\n1,-2\n", "0,5\n-1,3\n"])
    def test_bad_histogram_rows_exit_2(self, capsys, tmp_path, rows):
        data = tmp_path / "hist.csv"
        data.write_text("value,count\n" + rows)
        code, _, err = run_cli(["fit", "--input", str(data), "--method", "mle"], capsys)
        assert code == 2 and err.startswith("error:")

    def test_quantile_anchor_flags(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("0\n1\n2\n")
        code, out, _ = run_cli(
            [
                "fit", "--input", str(data), "--method", "quantiles",
                "--t1", "0", "--p1", "0.375", "--t2", "1", "--p2", "0.65625",
            ],
            capsys,
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["q"] == pytest.approx(0.5, abs=1e-6)
        assert rec["alpha"] == pytest.approx(-0.5, abs=1e-6)

    @pytest.mark.parametrize("anchors, want", [
        (["--t1", "0", "--t2", "1"], (0, 0.8, 1, 0.96)),
        (["--t1", "0", "--p1", "0.8", "--t2", "3", "--p2", "0.999"], (0, 0.8, 3, 0.999)),
    ])
    def test_given_anchors_skip_the_percentile_scan(self, capsys, tmp_path, anchors, want):
        # the sample's own quartiles coincide at 0; a missing p is the
        # empirical cdf at its t
        data = tmp_path / "d.txt"
        data.write_text("0\n" * 20 + "1\n" * 4 + "3\n")
        code, out, err = run_cli(
            ["fit", "--input", str(data), "--method", "quantiles", *anchors], capsys
        )
        assert code == 0, err
        rec = json.loads(out)
        expected = fit_quantiles(*want)
        assert (rec["q"], rec["alpha"]) == (expected.q, expected.alpha)

    def test_one_given_anchor_is_checked_against_the_scan(self, capsys, tmp_path):
        # the percentile scan's own anchors coincide at 0, but with --t2 1
        # the fit's anchors are 0 and 1; with --t1 0 they are 0 and 0
        data = tmp_path / "d.txt"
        data.write_text("0\n" * 20 + "1\n" * 4 + "3\n")
        fit = ["fit", "--input", str(data), "--method", "quantiles"]
        code, out, err = run_cli([*fit, "--t2", "1"], capsys)
        assert code == 0, err
        assert run_cli([*fit, "--t1", "0", "--t2", "1"], capsys) == (0, out, "")
        code, _, err = run_cli([*fit, "--t1", "0"], capsys)
        assert code == 2 and "anchors coincide" in err

    def test_missing_input_exit_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["fit", "--input", str(tmp_path / "nope.txt"), "--method", "mle"], capsys
        )
        assert code == 2 and err.startswith("error: input:")

    def test_malformed_input_exit_2(self, capsys, tmp_path):
        data = tmp_path / "bad.txt"
        data.write_text("0\nbanana\n")
        code, _, err = run_cli(["fit", "--input", str(data), "--method", "mle"], capsys)
        assert code == 2 and err.startswith("error: input:")

    def test_negative_value_exit_2(self, capsys, tmp_path):
        data = tmp_path / "neg.txt"
        data.write_text("0\n-3\n1\n")
        code, out, err = run_cli(["fit", "--input", str(data), "--method", "mle"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: estimation:")

    @pytest.mark.parametrize("name, text", [
        ("hist.csv", f"value,count\n0,5\n1,{10**400}\n"),  # float(count) overflows
        ("lines.txt", f"0\n1\n{2 * 10**154}\n"),  # y * y overflows
    ], ids=["huge-count", "huge-value"])
    def test_overflowing_data_exit_2(self, capsys, tmp_path, name, text):
        data = tmp_path / name
        data.write_text(text)
        code, out, err = run_cli(["fit", "--input", str(data), "--method", "mle"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: estimation:") and err.count("\n") == 1

    def test_mle_fit_of_a_huge_value_writes_no_warning(self, tmp_path):
        # a fresh interpreter, so that numpy's warnings reach its stderr
        data = tmp_path / "lines.txt"
        data.write_text(f"0\n1\n{10**152}\n")
        env = dict(os.environ, PYTHONPATH=str(Path(tgd.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-m", "tgd.cli", "fit", "--input", str(data), "--method", "mle"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0 and out.stderr == ""
        assert json.loads(out.stdout)["boundary"] == ["q"]

    def test_moment_fit_of_an_overflowing_square_exit_2(self, capsys, tmp_path):
        # m2 = 3.3e155 is a float, but the moment objective squares it
        data = tmp_path / "lines.txt"
        data.write_text(f"0\n1\n{10**78}\n")
        code, out, err = run_cli(["fit", "--input", str(data), "--method", "moments"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: estimation:") and err.count("\n") == 1

    def test_inconsistent_data_exit_2(self, capsys, tmp_path):
        data = tmp_path / "zeros_heavy.txt"
        data.write_text("\n".join(["0"] * 98 + ["50"] * 2) + "\n")
        code, _, err = run_cli(
            ["fit", "--input", str(data), "--method", "proportions"], capsys
        )
        assert code == 2 and err.startswith("error: estimation:")


class TestSummary:
    def test_values(self, capsys):
        code, out, _ = run_cli(["summary", "--q", "0.5", "--alpha", "0.5"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["mean"] == pytest.approx(2.0 / 3.0)
        assert rec["variance"] == pytest.approx(4.0 / 3.0)
        assert rec["index_of_dispersion"] == pytest.approx(2.0)
        assert rec["median"] == 0
        assert rec["mode"] == 0
        assert rec["hazard_class"] == "decreasing"
        assert rec["is_unimodal"] is False

    def test_constant_hazard_reported(self, capsys):
        _, out, _ = run_cli(["summary", "--q", "0.25", "--alpha", "0"], capsys)
        rec = json.loads(out)
        assert rec["hazard_class"] == "constant"
        assert rec["hazard_constant_rate"] == pytest.approx(0.75)

    def test_audit(self, capsys):
        code, out, _ = run_cli(
            ["summary", "--q", "0.5", "--alpha", "0.5", "--audit"], capsys
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["audit_max_deviation"] < 1e-9

    def test_audit_over_budget_refused_at_once(self, capsys):
        # the oracle's tail at q = 1 - 1e-6 is about 3.5e7 terms long
        start = time.perf_counter()
        code, out, err = run_cli(
            ["summary", "--q", repr(1.0 - 1e-6), "--alpha", "0.3", "--audit"], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: domain:") and str(_AUDIT_TERMS) in err

    def test_underflowing_moment_ratio_exit_2(self, capsys):
        code, out, err = run_cli(["summary", "--q", "1e-300", "--alpha", "-1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: domain:")


class TestHarness:
    def test_unknown_flag_exit_1(self, capsys):
        code, _, err = run_cli(["summary", "--q", "0.5", "--alpha", "0", "--bogus"], capsys)
        assert code == 1 and err.startswith("error: usage:")

    def test_missing_flag_exit_1(self, capsys):
        code, _, err = run_cli(["summary", "--q", "0.5"], capsys)
        assert code == 1 and err.startswith("error: usage:")

    def test_unknown_subcommand_exit_1(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run_cli(
            ["summary", "--q", "0.5", "--alpha", "0.5", "--output", str(target)], capsys
        )
        assert code == 0 and out == ""
        rec = json.loads(target.read_text())
        assert rec["mean"] == pytest.approx(2.0 / 3.0)

    def test_determinism_all_subcommands(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        data.write_text("\n".join(str(v % 4) for v in range(40)) + "\n")
        cases = [
            ["eval", "--q", "0.5", "--alpha", "0.5", "--y", "2"],
            ["table", "--q", "0.7", "--alpha", "-0.3", "--ymax", "10"],
            ["sample", "--q", "0.5", "--alpha", "0.5", "--n", "50", "--seed", "1"],
            ["fit", "--input", str(data), "--method", "moments"],
            ["summary", "--q", "0.7", "--alpha", "-0.3"],
        ]
        for argv in cases:
            _, first, _ = run_cli(argv, capsys)
            _, second, _ = run_cli(argv, capsys)
            assert first == second, argv

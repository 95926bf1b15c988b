"""Command-line interface: outputs, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import tgd
import tgd.cli
from tgd import EstimationError, dataset_from_counts, fit_quantiles, ingest
from tgd.cli import _AUDIT_TERMS, _InputError, _is_header, _read_dataset, main


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


def read_by_lines(data: bytes):
    """The fit input grammar read literally, one line at a time, with int().

    Returns the dataset, or the refusal: ("input", line number or None) or
    ("estimation", None).
    """
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the last line's LF is optional

    def token(field: bytes):
        text = field.strip(b" \t")
        digits = text[1:] if text.startswith(b"-") else text
        if digits and len(digits) <= 4300 and all(48 <= b <= 57 for b in digits):
            return int(text)
        return None

    histogram, rows = None, []
    for number, line in enumerate(lines, 1):
        if line.endswith(b"\r"):
            line = line[:-1]  # a CR may end a line, and nowhere else
        if b"\r" not in line and not line.strip(b" \t"):
            continue
        if histogram is None:  # the first line that is not blank
            histogram = _is_header(line)
            if histogram:
                continue
        fields = [None] if b"\r" in line else [token(f) for f in line.split(b",")]
        if None in fields or len(fields) != (2 if histogram else 1):
            return ("input", number)
        if histogram and fields[1] < 0:
            return ("input", number)
        rows.append(fields)
    if histogram is None:
        return ("input", None)
    try:
        if histogram:
            counts = {}
            for v, c in rows:
                if c:
                    counts[v] = counts.get(v, 0) + c
            return dataset_from_counts(counts)
        return ingest([v for v, in rows])
    except EstimationError:
        return ("estimation", None)


class TestFitGrammar:
    """One token per line, or a value,count row: ASCII digits between blanks."""

    def fit(self, capsys, tmp_path, data: bytes, method="moments"):
        path = tmp_path / "data.txt"
        path.write_bytes(data)
        return run_cli(["fit", "--input", str(path), "--method", method], capsys)

    def test_invalid_utf8_is_one_input_error_naming_its_line(self, capsys, tmp_path):
        code, out, err = self.fit(capsys, tmp_path, b"0\n1\n\n2\xff\xfe\n3\n")
        assert (code, out) == (2, "")
        assert err.startswith("error: input: line 4: not UTF-8") and err.count("\n") == 1

    def test_an_overlong_line_is_quoted_in_40_characters(self, capsys, tmp_path):
        code, _, err = self.fit(capsys, tmp_path, b"0\n" + b"7" * 5000 + b"\n")
        assert code == 2 and err.startswith("error: input: line 2:") and err.count("\n") == 1
        assert "7" * 40 in err and "7" * 41 not in err

    @pytest.mark.parametrize("data, line", [
        (b"\xef\xbb\xbf1\n2\n", 1),
        (b"1\n+5\n", 2),
        (b"1\n1_000\n", 2),
        ("1\n\u0663\n".encode(), 2),
        ("value,count\n1,2\n\u0663,1_0\n".encode(), 3),
        (b"1\n2 3\n", 2),
        (b"1\n- 3\n", 2),
        (b"1\n-\n", 2),
        (b"1\n--3\n", 2),
        (b"1\n5-3\n", 2),
        (b"1\r2\n", 1),
        (b"\x0c\n1\n", 1),
        (b"value,count\n1,2,3\n", 2),
        (b"value,count\n1,2\n,5\n", 3),
        (b"value,count\n5,\n", 2),
        (b"value,count\n1,,2\n", 2),
        (b"value,count\n1,-2\n", 2),
    ], ids=["bom", "plus", "underscore", "arabic-indic", "histogram", "two-tokens",
            "split-sign", "bare-sign", "double-sign", "inner-sign", "lone-cr", "form-feed",
            "three-fields", "no-value", "no-count", "empty-field", "negative-count"])
    def test_refused_lines(self, capsys, tmp_path, data, line):
        code, out, err = self.fit(capsys, tmp_path, data)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: input: line {line}:") and err.count("\n") == 1

    @pytest.mark.parametrize("data", [
        b"0\r\n1\r\n2\r\n0\r\n5\r\n",
        b" 0\n\t1 \n2\t\r\n 0 \n5",
        b"\n\n0\n1\n \n\n2\n\r\n0\n5\n\n",
        b"0\n1\n2\n0\n5",
    ], ids=["crlf", "blanks", "blank-lines", "no-final-newline"])
    def test_accepted_layouts_read_as_the_plain_file(self, capsys, tmp_path, data):
        plain = self.fit(capsys, tmp_path, b"0\n1\n2\n0\n5\n", "mle")
        assert plain[0] == 0
        assert self.fit(capsys, tmp_path, data, "mle") == plain

    def test_a_file_of_many_blocks_reads_whole_and_names_late_lines(self, tmp_path):
        path = tmp_path / "data.txt"
        lines = [str(v % 977).encode() for v in range(60_000)]
        path.write_bytes(b"\n".join(lines))
        assert _read_dataset(str(path)) == read_by_lines(path.read_bytes())
        lines[45_000] = b"4 5"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(_InputError, match="^line 45001: non-integer observation '4 5'$"):
            _read_dataset(str(path))

    def test_long_values_are_read_exactly(self, tmp_path):
        values = [10**17 + 3, 10**18 - 1, 10**18 + 7, 2**63 - 1, 2**63, 0, 2]
        path = tmp_path / "data.txt"
        path.write_text("".join(f"{v}\n" for v in values) + "-0\n" + "0" * 30 + "5\n")
        counts = _read_dataset(str(path)).counts
        assert counts == {v: 1 for v in values} | {0: 2, 5: 1}
        assert all(type(v) is int for v in counts)
        path.write_text(f"1\n{2**63 - 1}\n-{2**63}\n")
        with pytest.raises(EstimationError, match=f"negative value -{2**63} at index 2"):
            _read_dataset(str(path))


FLAWS = [b"+5", b"1_0", "\u0663".encode(), b"\xef\xbb\xbf3", b"\xff", b"-", b"--3", b"5-3", b"",
         b"7" * 4301, b"1 2", b"4\r5", b"-0,-1", b"1,2,3", b",", b"3,", b"\x0c", b"-7"]


@st.composite
def near_valid_files(draw):
    """A line file or a histogram, laid out in any accepted way; three in
    four carry a flaw in place of one field or one whole line."""
    blank = st.sampled_from([b"", b"", b" ", b"\t", b" \t "])
    histogram = draw(st.booleans())
    rows = [[str(draw(st.integers(-1, 2**70))).encode()] for _ in range(draw(st.integers(1, 8)))]
    if histogram:
        rows = [row + [str(draw(st.integers(0, 10**20))).encode()] for row in rows]
    flaw = draw(st.sampled_from([None] * 6 + FLAWS))
    if flaw is not None:
        row = draw(st.integers(0, len(rows) - 1))
        if draw(st.booleans()):
            rows[row] = [flaw]
        else:
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = flaw
    lines = [b",".join(draw(blank) + field + draw(blank) for field in row) for row in rows]
    lines = [line for line in lines for line in ([line, draw(blank)] if draw(st.integers(0, 4)) == 0 else [line])]
    if histogram:
        lines.insert(0, draw(st.sampled_from([b"value,count", b"Value, Count", b" value,count,x"])))
    ends = [draw(st.sampled_from([b"\n", b"\n", b"\r\n"])) for _ in lines]
    text = b"".join(line + end for line, end in zip(lines, ends))
    return text[:-len(ends[-1])] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def grammar_file(tmp_path_factory):
    return tmp_path_factory.mktemp("grammar") / "data.txt"


def check_against_reference(path, data: bytes):
    path.write_bytes(data)
    want = read_by_lines(data)
    for block in (tgd.cli._BLOCK, 5):  # a tiny block cuts the file at every line
        with mock.patch.object(tgd.cli, "_BLOCK", block):
            try:
                got = _read_dataset(str(path))
            except _InputError as exc:
                assert isinstance(want, tuple) and want[0] == "input", (want, exc)
                assert str(exc).startswith(f"line {want[1]}:" if want[1] else str(path))
            except EstimationError:
                assert want == ("estimation", None)
            else:
                assert got == want
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["fit", "--input", str(path), "--method", "moments"])
    assert code in (0, 2) and err.getvalue().count("\n") == (code == 2)


@settings(max_examples=60, deadline=timedelta(seconds=1))
@given(data=st.binary(max_size=64))
def test_arbitrary_bytes_read_as_the_line_loop_reads_them(grammar_file, data):
    check_against_reference(grammar_file, data)


@settings(max_examples=140, deadline=timedelta(seconds=1))
@given(data=near_valid_files())
def test_near_valid_files_read_as_the_line_loop_reads_them(grammar_file, data):
    check_against_reference(grammar_file, data)

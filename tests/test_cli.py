from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from matcon import Finite, FiniteSummand, FixedRademacher, make_model, model_to_json
from matcon.cli import EXPERIMENT_COLUMNS, REPORT_COLUMNS, main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestReport:
    def test_csv_row(self, capsys):
        code, out, err = run_cli(
            ["report", "--model", "sec71", "--d", "16", "--n", "100",
             "--samples", "200", "--seed", "7", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert len(lines) == 2
        row = lines[1].split(",")
        assert len(row) == len(REPORT_COLUMNS)
        assert row[0] == "sec71"
        assert row[-1] in ("true", "false")

    def test_json_sec73_variance(self, capsys):
        code, out, _ = run_cli(
            ["report", "--model", "sec73", "--d", "8",
             "--samples", "100", "--seed", "1", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc.keys()) == REPORT_COLUMNS
        assert doc["v"] == 8.0
        assert doc["sandwich_ok"] is True

    def test_bad_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            ["report", "--model-file", str(bad), "--samples", "50", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "error" in err.lower()

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            ["report", "--model", "sec73", "--d", "4", "--samples", "50"], capsys
        )
        assert code == 2

    def test_model_and_model_file_conflict(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"name": "sec73", "d": 2}))
        code, _, _ = run_cli(
            ["report", "--model", "sec73", "--model-file", str(f),
             "--d", "2", "--samples", "50", "--seed", "1"],
            capsys,
        )
        assert code == 2

    def test_sec71_requires_n(self, capsys):
        code, _, err = run_cli(
            ["report", "--model", "sec71", "--d", "4", "--samples", "50", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "--n" in err

    def test_unknown_model_name(self, capsys):
        code, _, _ = run_cli(
            ["report", "--model", "sec99", "--d", "4", "--samples", "50", "--seed", "1"],
            capsys,
        )
        assert code == 2

    def test_out_file_and_reproducibility(self, tmp_path, capsys):
        args = ["report", "--model", "sec72", "--d", "4", "--n", "10",
                "--samples", "150", "--seed", "21"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_model_file_round_trip(self, tmp_path, capsys):
        h = np.diag([1.0, -1.0])
        model = make_model(
            [Finite(FiniteSummand([(0.5, h), (0.5, -h)]))], name="coin"
        )
        f = tmp_path / "coin.json"
        f.write_text(json.dumps(model_to_json(model)))
        code, out, _ = run_cli(
            ["report", "--model-file", str(f), "--samples", "64", "--seed", "2"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert row[0] == "coin"
        assert float(row[REPORT_COLUMNS.index("v")]) == pytest.approx(1.0)

    def test_uncentered_model_note_on_stderr(self, tmp_path, capsys):
        point = FiniteSummand([(1.0, np.diag([3.0, 0.0]))])
        spin = FiniteSummand([(0.5, np.eye(2)), (0.5, -np.eye(2))])
        model = make_model([Finite(point), Finite(spin)], name="shifted")
        f = tmp_path / "shifted.json"
        f.write_text(json.dumps(model_to_json(model)))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "64", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "||E R||" in err
        assert "envelope" in err
        assert len(out.strip().split("\n")[1].split(",")) == len(REPORT_COLUMNS)


class TestMemoryGuard:
    def test_realization_over_budget_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr("matcon.montecarlo._CHUNK_BYTES", 1000)
        code, out, err = run_cli(
            ["report", "--model", "sec73", "--d", "16", "--samples", "8", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "one 16x16 realization takes 4096 bytes" in err
        assert "1000-byte chunk budget" in err

    def test_fixed_matrices_over_budget_exit_2(self, monkeypatch, tmp_path, capsys):
        model = make_model(
            [FixedRademacher(np.diag([1.0, -1.0])), FixedRademacher(np.eye(2))], name="pair"
        )
        f = tmp_path / "pair.json"
        f.write_text(json.dumps(model_to_json(model)))
        monkeypatch.setattr("matcon.models._STACK_BYTES", 100)
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "2 fixed 2x2 matrices take 128 bytes" in err
        assert "100-byte plan budget" in err


class TestVerify:
    def test_facts_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "facts", "--cases", "25", "--seed", "3"], capsys
        )
        assert code == 0
        for kind in ("heinz", "gm_am_trace", "dilation_square"):
            assert f"facts/{kind}: 25/25 passed" in out

    def test_symmetrization_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "symmetrization", "--cases", "20", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "symmetrization: 20/20 passed" in out

    def test_rademacher_suite(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "rademacher", "--cases", "40", "--seed", "3"], capsys
        )
        assert code == 0
        assert "relative slack" in out

    def test_all_suites(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "all", "--cases", "10", "--seed", "4"], capsys
        )
        assert code == 0
        assert "facts/heinz" in out and "symmetrization" in out and "rademacher" in out

    def test_fault_injection_detected(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--suite", "facts", "--cases", "25", "--seed", "3",
             "--inject-fault"],
            capsys,
        )
        assert code == 1
        assert "FAIL facts/gm_am_trace" in out
        assert "replay" in out
        # first counterexample payload is serialized for replay
        payload_line = next(line for line in out.split("\n") if line.startswith("{"))
        doc = json.loads(payload_line)
        assert doc["kind"] == "gm_am_trace"
        assert "payload" in doc

    def test_missing_seed(self, capsys):
        code, _, _ = run_cli(["verify", "--suite", "facts"], capsys)
        assert code == 2


class TestExperiment:
    def test_sec73_grid(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "--model", "sec73", "--d", "4,8", "--samples", "100",
             "--seed", "11"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(EXPERIMENT_COLUMNS)
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "sec73" and first[1] == "4"

    def test_sec74_appends_fit_row(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "--model", "sec74", "--d", "4,8,16", "--samples", "200",
             "--seed", "11"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        fit = lines[-1].split(",")
        assert fit[0] == "sec74_fit"
        assert fit[1] == "0" and fit[2] == "0"
        float(fit[-1])  # fitted exponent parses

    def test_sharpness_ratio_below_one(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "--model", "rademacher_sharpness", "--d", "64",
             "--n", "300", "--samples", "150", "--seed", "5"],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        ratio = float(row[-1])
        assert 0.5 < ratio <= 1.05

    def test_requires_n_for_sec71(self, capsys):
        code, _, err = run_cli(
            ["experiment", "--model", "sec71", "--d", "4", "--samples", "50",
             "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "--n" in err

    def test_unknown_experiment(self, capsys):
        code, _, _ = run_cli(
            ["experiment", "--model", "sec99", "--d", "4", "--samples", "50",
             "--seed", "1"],
            capsys,
        )
        assert code == 2

    def test_bad_d_grid(self, capsys):
        code, _, _ = run_cli(
            ["experiment", "--model", "sec73", "--d", "4,x", "--samples", "50",
             "--seed", "1"],
            capsys,
        )
        assert code == 2

    def test_svg_emitted(self, tmp_path, capsys):
        svg = tmp_path / "plot.svg"
        code, _, _ = run_cli(
            ["experiment", "--model", "sec73", "--d", "2,4,8", "--samples", "60",
             "--seed", "9", "--out", str(tmp_path / "r.csv"), "--svg", str(svg)],
            capsys,
        )
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text

    def test_reproducible_output(self, tmp_path, capsys):
        args = ["experiment", "--model", "sec71", "--d", "4,8", "--n", "50",
                "--samples", "120", "--seed", "31"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoints:
    def test_console_script_version(self):
        proc = subprocess.run(
            ["matcon", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "matcon" in proc.stdout

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matcon", "report", "--model", "sec73",
             "--d", "3", "--samples", "50", "--seed", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("model,")

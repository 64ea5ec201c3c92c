from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

from matcon import FiniteSummand, FixedRademacher, __version__, make_model, model_to_json
from matcon import oracles
from matcon.cli import EXPERIMENT_COLUMNS, REPORT_COLUMNS, main
from matcon.linalg import HermitianMatrix
from matcon.models import _matrix_from_json


SVG_NS = "http://www.w3.org/2000/svg"
OUTCOMES = "field 'outcomes' must be a list of objects with 'probability' and 'matrix'"
ROWS = "field 'matrix' must be a non-empty list of equal-length rows"
ENTRIES = "field 'matrix' entries must be finite numbers or [re, im] pairs of them"
SUMMANDS = "field 'summands' must be a list of summand objects"


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # usage errors, --help and --version
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
        model = make_model([FiniteSummand([(0.5, h), (0.5, -h)])], name="coin")
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

    def test_nan_probability_in_model_file_exit_2(self, tmp_path, capsys):
        doc = {
            "summands": [
                {
                    "family": "finite",
                    "outcomes": [
                        {"probability": 0.5, "matrix": [[1.0]]},
                        {"probability": float("nan"), "matrix": [[-1.0]]},
                    ],
                }
            ]
        }
        f = tmp_path / "nan.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == "error: field 'probability' must be a finite number, got nan\n"

    @pytest.mark.parametrize("summands", [[1]])
    def test_summand_not_an_object_exit_2(self, tmp_path, capsys, summands):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"summands": summands}))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "summand document must be a JSON object" in err

    def test_overflowing_gram_exit_2(self, tmp_path):
        point = {"probability": 1.0, "matrix": [[1e200, 0.0], [0.0, 1.0]]}
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"summands": [{"family": "finite", "outcomes": [point]}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "matcon", "report", "--model-file", str(f),
             "--samples", "8", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # no numpy RuntimeWarning before the message
        assert proc.stderr == "error: matrix entries too large: the Gram matrix overflows\n"

    @pytest.mark.parametrize(
        "summands",
        [
            # one-entry summands: the diagonal route
            [{"family": "scaled_basis_rademacher", "index": 0, "scale": 1.2e154, "dim": 2},
             {"family": "scaled_basis_rademacher", "index": 1, "scale": 1, "dim": 2}],
            # a finite support: the dense route
            [{"family": "finite", "outcomes": [
                {"probability": 0.5, "matrix": [[1.2e154, 0.0], [0.0, 1.0]]},
                {"probability": 0.5, "matrix": [[-1.2e154, 0.0], [0.0, -1.0]]}]}],
        ],
        ids=["diagonal", "dense"],
    )
    def test_second_moment_overflow_exit_2(self, tmp_path, summands):
        # every entry is finite, and so is E[ZZ*]_00 = 1.44e308, but the
        # symmetrized sum (M + M*)/2 overflows on the way
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"summands": summands}))
        proc = subprocess.run(
            [sys.executable, "-m", "matcon", "report", "--model-file", str(f),
             "--samples", "8", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # one line, and no numpy RuntimeWarning before it
        assert proc.stderr == (
            "error: second moments overflow: an entry of E[ZZ*] or E[Z*Z] is not finite\n"
        )

    def test_centering_overflow_exit_2(self, tmp_path):
        outcomes = [{"probability": 0.9, "matrix": [[1.5e308]]},
                    {"probability": 0.1, "matrix": [[-1.5e308]]}]
        f = tmp_path / "far.json"
        f.write_text(json.dumps({"summands": [{"family": "finite", "outcomes": outcomes}]}))
        proc = subprocess.run(
            [sys.executable, "-m", "matcon", "report", "--model-file", str(f),
             "--samples", "8", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # one line, and no numpy RuntimeWarning before it
        assert proc.stderr == (
            "error: centering overflows: an outcome minus the mean is not finite\n"
        )

    def test_summed_means_overflow_exit_2(self, tmp_path):
        outcomes = [{"probability": 0.5, "matrix": [[1e308]]},
                    {"probability": 0.5, "matrix": [[1.2e308]]}]
        summand = {"family": "finite", "outcomes": outcomes}
        f = tmp_path / "far.json"
        f.write_text(json.dumps({"summands": [summand, summand]}))
        proc = subprocess.run(
            [sys.executable, "-m", "matcon", "report", "--model-file", str(f),
             "--samples", "8", "--seed", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        # each mean is finite, their sum is not; no numpy RuntimeWarning
        assert proc.stderr == "error: centering overflows: the summed means are not finite\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"summands": [{"family": "finite", "outcomes": [1]}]}, OUTCOMES),
            ({"summands": [{"family": "finite", "outcomes": [{"matrix": [[1.0]]}]}]}, OUTCOMES),
            ({"summands": [{"family": "finite",
                            "outcomes": [{"probability": 1.0, "matrix": 5}]}]}, ROWS),
            ({"summands": [{"family": "fixed_gaussian", "matrix": 5}]}, ROWS),
            ({"summands": [{"family": "fixed_rademacher", "matrix": [[1.0, 0.0], [0.0]]}]},
             ROWS),
            ({"summands": [{"family": "fixed_rademacher", "matrix": []}]}, ROWS),
            ({"summands": [{"family": "scaled_basis_rademacher", "index": 0,
                            "scale": 1e308, "dim": 2}]},
             "scale 1e+308 is not finite or its square overflows"),
            ({"summands": [{"family": "rademacher_entry", "row": 0.7, "col": 0, "dim": 2}]},
             "field 'row' must be an integer, got 0.7"),
            ({"summands": [{"family": "rademacher_entry", "row": True, "col": 0, "dim": 2}]},
             "field 'row' must be an integer, got True"),
            ({"summands": [{"family": "rademacher_entry", "row": [], "col": 0, "dim": 2}]},
             "field 'row' must be an integer, got []"),
            ({"summands": [{"family": "finite",
                            "outcomes": [{"probability": "x", "matrix": [[1.0]]}]}]},
             "field 'probability' must be a finite number, got 'x'"),
            ({"summands": [{"family": "fixed_rademacher", "matrix": [[{}]]}]}, ENTRIES),
            ({"summands": [{"family": "fixed_rademacher", "matrix": [["1.5"]]}]}, ENTRIES),
            ({"summands": [{"family": "fixed_gaussian", "matrix": [[[1.0, 0.0, 0.0]]]}]},
             ENTRIES),
            ({"n": "x", "summands": [{"family": "pareto_diagonal", "index": 0, "dim": 2}]},
             "field 'n' must be an integer, got 'x'"),
            ({"d1": 2, "summands": [{"family": "pareto_diagonal", "index": 0, "dim": 2}]},
             "missing field 'd2'"),
            ({"summands": [{"family": "pareto_diagonal", "dim": 2}]},
             "missing field 'index'"),
            ({"summands": 5}, SUMMANDS),
            ({"summands": "ab"}, SUMMANDS),
            ({"summands": {}}, SUMMANDS),
        ],
        ids=["outcome_int", "outcome_no_probability", "finite_matrix_int",
             "gaussian_matrix_int", "ragged_rows", "no_rows", "scale_overflows",
             "row_fraction", "row_bool", "row_list", "probability_string",
             "matrix_object_entry", "matrix_string_entry", "matrix_triple_entry", "n_string",
             "d1_without_d2", "no_index", "summands_int", "summands_string",
             "summands_object"],
    )
    def test_malformed_field_exit_2(self, tmp_path, capsys, doc, message):
        f = tmp_path / "m.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "summand, message",
        [
            ({"family": "pareto_diagonal", "index": 0, "dim": value},
             "field 'dim' must be an integer within +-2^53")
            for value in (1e308, 2**70, 2**53 + 2, -(2**53) - 2)
        ]
        + [
            ({"family": "fixed_rademacher", "matrix": [[1.0, 1e300], [0.5, -1.0]]},
             "input is not Hermitian: defect 7.071e+299 exceeds 1.000e+288"),
        ],
        ids=["dim_1e308", "dim_2_70", "dim_2_53_plus_2", "dim_minus_2_53_minus_2",
             "defect_overflows_its_norm"],
    )
    def test_huge_value_exit_2(self, tmp_path, capsys, summand, message):
        f = tmp_path / "m.json"
        f.write_text(json.dumps({"summands": [summand]}))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "summands",
        [
            [{"family": "fixed_rademacher",
              "matrix": [[[0.75, 0.0], [0.5, -1.25]], [[0.5, 1.25], [-1.1, 0.0]]]},
             {"family": "fixed_gaussian", "matrix": [[1.5, [0.0, 0.4]], [[0.0, -0.4], 0.0]]},
             {"family": "fixed_rademacher", "matrix": [[[0.0, 0.0], 2.0], [2.0, 0.0]]}],
            [{"family": "fixed_gaussian", "matrix": [[1.0, [0.0, 0.4]], [[0.0, 0.4], 0.0]]}],
        ],
        ids=["complex", "not_hermitian"],
    )
    def test_fixed_matrices_read_without_hermitian_matrix(
        self, tmp_path, capsys, monkeypatch, summands
    ):
        # a model file's fixed matrices are validated as a stack, with the
        # same rows and refusals as a HermitianMatrix would give
        f = tmp_path / "fixed.json"
        f.write_text(json.dumps({"summands": summands}))
        argv = ["report", "--model-file", str(f), "--samples", "64", "--seed", "5"]
        want = run_cli(argv, capsys)

        def refuse(self, data):
            raise AssertionError("a HermitianMatrix was built")

        monkeypatch.setattr(HermitianMatrix, "__init__", refuse)
        assert run_cli(argv, capsys) == want
        assert want[0] == (0 if len(summands) > 1 else 2)

    def test_huge_non_integral_value_echo_is_capped(self, tmp_path, capsys):
        # a 401-digit scale: the message repeats its first 40 characters
        f = tmp_path / "m.json"
        f.write_text('{"summands": [{"family": "scaled_basis_rademacher", "index": 0, '
                     '"scale": 1' + "0" * 400 + ', "dim": 2}]}')
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: field 'scale' must be a finite number, got 1" + "0" * 39 + "...\n"

    def test_uncentered_model_note_on_stderr(self, tmp_path, capsys):
        point = FiniteSummand([(1.0, np.diag([3.0, 0.0]))])
        spin = FiniteSummand([(0.5, np.eye(2)), (0.5, -np.eye(2))])
        model = make_model([point, spin], name="shifted")
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
        # room for the two 2x2 second-moment matrices (128 bytes), checked first,
        # and for the per-sample arrays of 4 samples (96 bytes)
        monkeypatch.setattr("matcon.models._STACK_BYTES", 150)
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "4", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        # two diagonal 2x2 matrices: 4 entries of 40 bytes each
        assert "4 fixed-matrix entries take 160 bytes" in err
        assert "150-byte plan budget" in err

    @pytest.mark.parametrize("command", ["report", "experiment"])
    def test_too_many_summand_positions_exit_2(self, monkeypatch, capsys, command):
        # room for the 8-byte position index of 100 positions of a row-law
        # example; sec71 at d = 10, n = 11 has 110
        monkeypatch.setattr("matcon.models._STACK_BYTES", 800)
        code, out, err = run_cli(
            [command, "--model", "sec71", "--d", "10", "--n", "11", "--samples", "8",
             "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "110 summand positions of sec71 take 880 bytes" in err
        assert "800-byte plan budget" in err

    def test_unknown_example_named_before_the_budget(self, tmp_path, capsys):
        f = tmp_path / "nope.json"
        f.write_text(json.dumps({"name": "nope", "d": 1_000_000_000}))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "unknown example 'nope'" in err and "bytes" not in err


    @pytest.mark.parametrize("command", ["report", "experiment"])
    def test_sample_count_over_budget_exit_2(self, monkeypatch, capsys, command):
        # three float64 arrays per sample: 41 samples take 984 bytes, 42 take 1008
        monkeypatch.setattr("matcon.models._STACK_BYTES", 1000)
        argv = [command, "--model", "sec73", "--d", "2", "--seed", "1", "--samples"]
        code, out, _ = run_cli(argv + ["41"], capsys)
        assert code == 0 and out
        code, out, err = run_cli(argv + ["42"], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: 42 samples take 1008 bytes of per-sample arrays, "
            "over the 1000-byte budget\n"
        )

    def test_moment_matrices_over_budget_exit_2(self, monkeypatch, tmp_path, capsys):
        doc = {"summands": [{"family": "fixed_rademacher", "matrix": [[1.0] * 8] * 8}]}
        f = tmp_path / "dense.json"
        f.write_text(json.dumps(doc))
        monkeypatch.setattr("matcon.models._STACK_BYTES", 2000)
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert code == 2
        assert out == ""
        # two dense complex 8x8 matrices of 16-byte entries
        assert "second-moment matrices take 2048 bytes" in err
        assert "2000-byte budget" in err

    def test_one_entry_model_outside_moment_matrix_budget(self, monkeypatch, tmp_path, capsys):
        # v comes from two length-8 diagonals; no 8x8 matrix is formed
        doc = {"summands": [{"family": "rademacher_entry", "row": 0, "col": 0, "dim": 8}]}
        f = tmp_path / "entry.json"
        f.write_text(json.dumps(doc))
        monkeypatch.setattr("matcon.models._STACK_BYTES", 2000)
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "8", "--seed", "1"], capsys
        )
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        assert header == ",".join(REPORT_COLUMNS)
        assert row.startswith("custom,8,8,1,1,analytic,")

    def test_large_diagonal_example_outside_moment_matrix_budget(self, capsys):
        # two 4096x4096 complex matrices would take 512 MiB; the diagonals 64 KiB
        code, out, err = run_cli(
            ["report", "--model", "sec71", "--d", "4096", "--n", "1", "--samples", "8",
             "--seed", "1"],
            capsys,
        )
        assert (code, err) == (0, "")
        header, row = out.splitlines()
        assert header == ",".join(REPORT_COLUMNS)
        assert row.startswith("sec71,4096,4096,1,1,analytic,")


class TestVerify:
    @pytest.mark.parametrize("cases", ["0", "-3"])
    @pytest.mark.parametrize("suite", ["facts", "symmetrization", "rademacher", "all"])
    def test_cases_below_one_exit_2(self, capsys, suite, cases):
        code, out, err = run_cli(
            ["verify", "--suite", suite, "--cases", cases, "--seed", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert f"--cases must be >= 1, got {cases}" in err

    @pytest.mark.parametrize(
        "argv, want_code, digest",
        [
            (["verify", "--suite", "all", "--cases", "500", "--seed", "21"], 0,
             "bcc0481bf3aa953e9fc9d1d5953afdd2522ce7c1e6353f6aeffbf77a27bfa2ca"),
            (["verify", "--suite", "facts", "--cases", "500", "--seed", "21",
              "--inject-fault"], 1,
             "81a749f893214fd761dc81eb66ac8ed003f236dade9bd9a3e3301572381df3e2"),
        ],
    )
    def test_stdout_bytes_pinned(self, capsys, argv, want_code, digest):
        code, out, _ = run_cli(argv, capsys)
        assert code == want_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_fault_payload_is_the_case_drawn_in_the_sweep(self, capsys, monkeypatch):
        real = oracles.random_fact_case
        drawn = []

        def recording(kind, key, *args):
            groups = real(kind, key, *args)
            if kind == "gm_am_trace" and len(key) > 1:
                drawn.append((key, groups))
            return groups

        monkeypatch.setattr(oracles, "random_fact_case", recording)
        code, out, _ = run_cli(
            ["verify", "--suite", "facts", "--cases", "25", "--seed", "3", "--inject-fault"],
            capsys,
        )
        assert code == 1
        doc = json.loads(next(line for line in out.split("\n") if line.startswith("{")))
        index = doc["index"]
        assert f"FAIL facts/gm_am_trace case {index} " in out
        [(key, groups)] = drawn
        [(j, batch)] = [
            (int(np.flatnonzero(key.index[ix] == index)[0]), batch)
            for ix, batch in groups
            if index in key.index[ix]
        ]
        for field in ("H", "W", "Y"):
            printed = _matrix_from_json(doc["payload"], field)
            assert printed.tobytes() == np.ascontiguousarray(batch[field][j]).tobytes()
        assert (doc["payload"]["r"], doc["payload"]["q"]) == (batch["r"][j], batch["q"][j])
        assert f'"r": {batch["r"][j]}, "q": {batch["q"][j]}}}' in out  # integers

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

    def test_repeated_d_exit_2(self, capsys):
        code, out, err = run_cli(
            ["experiment", "--model", "sec74", "--d", "4,4", "--samples", "8",
             "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--d values must be distinct" in err

    def test_svg_emitted(self, tmp_path, capsys):
        # sec71 has no ratio at d = 1 (nan), so the plot has two points
        csv_path, svgs = tmp_path / "r.csv", [tmp_path / "a.svg", tmp_path / "b.svg"]
        for svg in svgs:
            code, _, _ = run_cli(
                ["experiment", "--model", "sec71", "--d", "1,4,8", "--n", "20", "--samples",
                 "60", "--seed", "9", "--out", str(csv_path), "--svg", str(svg)],
                capsys,
            )
            assert code == 0
        text = svgs[0].read_text()
        assert text.startswith("<svg")
        assert "polyline" in text
        root = ElementTree.fromstring(text)
        assert root.tag == f"{{{SVG_NS}}}svg"
        [line] = root.iter(f"{{{SVG_NS}}}polyline")
        ratios = [float(row["ratio"]) for row in csv.DictReader(io.StringIO(csv_path.read_text()))]
        assert len(line.get("points").split()) == sum(map(math.isfinite, ratios)) == 2
        assert svgs[0].read_bytes() == svgs[1].read_bytes()

    def test_reproducible_output(self, tmp_path, capsys):
        args = ["experiment", "--model", "sec71", "--d", "4,8", "--n", "50",
                "--samples", "120", "--seed", "31"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()


SHIFTED_DOC = {
    "name": "shifted",
    "summands": [
        {"family": "finite",
         "outcomes": [{"probability": 1.0, "matrix": [[3.0, 0.0], [0.0, 0.0]]}]},
        {"family": "finite",
         "outcomes": [{"probability": 0.5, "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                      {"probability": 0.5, "matrix": [[-1.0, 0.0], [0.0, -1.0]]}]},
    ],
}

WIDE_DOC = {
    "name": "wide",
    "summands": [
        {"family": "finite",
         "outcomes": [{"probability": 0.5, "matrix": [[1.0, 2.0, 0.0, -1.0]]},
                      {"probability": 0.5, "matrix": [[-1.0, -2.0, 0.0, 1.0]]}]},
        {"family": "finite",
         "outcomes": [{"probability": 0.25, "matrix": [[0.0, 3.0, 1.5, 0.75]]},
                      {"probability": 0.75, "matrix": [[0.0, -1.0, -0.5, -0.25]]}]},
    ],
}
WIDE_PIN = "b4bf3a39da3744759991c51e20449b48482cb68162bb3047c7d5f1bd4f8e8827"

REPORT_PINS = {
    "sec71_csv": "b2505347458d38ccfbfb48b5ca28f24f78d795f7cefc79c165cb3aea1c8ca4bf",
    "sec71_json": "3ba2517e229afe6215f3a451493c401032af3999fcf493c09f60a8d313c21cdd",
    "sec72_csv": "8d697d0ca51f20703ea0161cab4fbcfd4f3863d379630336e7f7cf7464fe3520",
    "sec72_json": "677e11d50b2258fb3f529cb501756e18d33985cc7d3dbde377c5e11f297061cf",
    "sec73_csv": "3b1bef0ad23a13b74136f754a7252c15c1680ff2eca44988d58b8ec569e1093c",
    "sec73_json": "255bd5bc5e521cc11321966a0d7989ad52a0dac5a578f051f820a11b1c82e263",
    "sec74_csv": "a86973b1426725dc0a47337f4988f985884b7c519854d66d70d8ea5973119f1c",
    "sec74_json": "63b9d462e3bb47144250e2391678230b1029c6902828d273b79306ac7cb7c9e6",
    "sec71_mom_csv": "70bffe6fd8febc7492d21f392d013e154d7d82adcadf8be1f90bc3e420cd1aad",
    "sec74_mean_json": "c61f324b184296d52667df06bd12ef8f4735126d1a4a47fd863376fae0fd6525",
    "shifted_csv": "1ad8f3341a28b8c88f67259beeb9aa9087bc4430f3f0d17d8bfd684f71d1f1a1",
    "shifted_json": "86f4715f37dcdf9f40e82ed3ee37a663e24677bf55ec4d77b6acaf46b862563b",
}

EXPERIMENT_PINS = {
    "sec71": (["--d", "1,4,8", "--n", "10"],
              "bdcef0979716d42c008665951c3b5bd92cd23fa8258e42c58fbd167fbca1b6d8"),
    "sec72": (["--d", "4,8", "--n", "10"],
              "2acb9ed77c7c51cf3f0792a920ba01dd8372292a330d24e80a950df7eca4222a"),
    "sec73": (["--d", "3,5"],
              "4c88b23d0b63a58ff2c27173188e0ba9c1bbecccd22b11a86d23c7e07f17f29d"),
    "sec74": (["--d", "4,8,16"],
              "a3ce7d902e8751c115a05be750758d24a53cc05581a4cd67c7916db17f3b4397"),
    "rademacher_sharpness": (["--d", "4,8", "--n", "10"],
              "c54e4b919cba095a702265854a1b5431e87aff6b7932e3718d545fc098b7b44c"),
}


def _report_argv(case: str, tmp_path) -> list[str]:
    name, *flags, form = case.split("_")
    if name == "shifted":
        f = tmp_path / "shifted.json"
        f.write_text(json.dumps(SHIFTED_DOC))
        source = ["--model-file", str(f)]
    else:
        n = ["--n", "12"] if name in ("sec71", "sec72") else []
        source = ["--model", name, "--d", "6", *n]
    estimator = ["--estimator", flags[0]] if flags else []
    return ["report", *source, "--samples", "64", "--seed", "5", "--format", form, *estimator]


class TestPinnedOutput:
    """sha256 of the exact bytes of report and experiment output (stdout,
    a NUL, then stderr), so a change to how a row is assembled shows."""

    @staticmethod
    def digest(out: str, err: str) -> str:
        return hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()

    @pytest.mark.parametrize("case", sorted(REPORT_PINS))
    def test_report_bytes(self, tmp_path, capsys, case):
        code, out, err = run_cli(_report_argv(case, tmp_path), capsys)
        assert code == 0
        assert ("envelope" in err) == case.startswith("shifted")
        assert self.digest(out, err) == REPORT_PINS[case]

    def test_rectangular_report_bytes(self, tmp_path, capsys):
        # a 1 x 4 model, where the dilation's C(d1 + d2) = 20 differs from
        # C(2 d1) = 12 and C(2 d2) = 28: the square pins cannot tell them apart
        f = tmp_path / "wide.json"
        f.write_text(json.dumps(WIDE_DOC))
        code, out, err = run_cli(
            ["report", "--model-file", str(f), "--samples", "64", "--seed", "5"], capsys
        )
        assert code == 0
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert (row["d1"], row["d2"], float(row["C"])) == ("1", "4", 20.0)
        assert self.digest(out, err) == WIDE_PIN

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENT_PINS))
    def test_experiment_bytes(self, capsys, experiment):
        grid, want = EXPERIMENT_PINS[experiment]
        code, out, err = run_cli(
            ["experiment", "--model", experiment, *grid, "--samples", "64", "--seed", "9"],
            capsys,
        )
        assert code == 0
        assert ("sec74_fit" in out) == (experiment == "sec74")
        assert self.digest(out, err) == want

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["report", "--model", "sec72", "--d", "4"], "sec72"),
            (["experiment", "--model", "sec71", "--d", "4"], "sec71"),
            (["experiment", "--model", "rademacher_sharpness", "--d", "4"],
             "rademacher_sharpness"),
        ],
    )
    def test_missing_n_message(self, capsys, argv, label):
        code, out, err = run_cli(argv + ["--samples", "8", "--seed", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --n is required for {label}\n"


SEC73 = ["report", "--model", "sec73", "--d", "3"]
REPORT_OPTIONS = ("--model", "--model-file", "--d", "--n", "--samples", "--seed", "--format",
                  "--out", "--estimator")
VERIFY_OPTIONS = ("--suite", "--cases", "--seed", "--inject-fault")
EXPERIMENT_OPTIONS = ("--model", "--d", "--n", "--samples", "--seed", "--out", "--svg",
                      "--estimator")
USAGE = "usage: matcon"

# argv -> (exit code, the stream written, fragments it holds)
PARSE_CASES = [
    (["report", "--model=sec73", "--d=3", "--samples=16", "--seed=5"],
     0, "out", ("sec73,3,3,", ",16,5,")),
    ([*SEC73, "--sam", "16", "--se", "5", "--form", "json"], 0, "out", ('"samples": 16',)),
    ([*SEC73, "--samples", "16", "--seed", "1", "--seed", "5", "--format", "json",
      "--format", "csv"], 0, "out", ("model,", ",16,5,")),
    ([*SEC73, "--samples", "16", "--seed", "5", "--out", "-"], 0, "out", ("sec73,3,3,",)),
    (["report", "--mod", "sec73", "--d", "3", "--samples", "16", "--seed", "5"], 2, "err",
     (USAGE, "matcon report: error: ambiguous option: --mod could match --model, --model-file")),
    ([*SEC73, "--samples", "16", "--seed", "5", "--bogus", "1"], 2, "err",
     (USAGE, "error: unrecognized arguments: --bogus 1")),
    ([*SEC73, "--samples", "16", "--seed"], 2, "err",
     (USAGE, "matcon report: error: argument --seed: expected one argument")),
    ([*SEC73, "--samples", "--seed", "5"], 2, "err",
     ("error: argument --samples: expected one argument",)),
    (["experiment", "--model", "sec73", "--d", "-4,8", "--samples", "16", "--seed", "5"], 2,
     "err", ("matcon experiment: error: argument --d: expected one argument",)),
    ([*SEC73, "--samples", "many", "--seed", "5"], 2, "err",
     (USAGE, "matcon report: error: argument --samples: invalid int value: 'many'")),
    ([*SEC73, "--samples", "16", "--seed", "5", "--format", "xml"], 2, "err",
     ("matcon report: error: argument --format: invalid choice: 'xml' (choose from 'csv', "
      "'json')",)),
    (["verify", "--seed", "1", "--suite", "everything"], 2, "err",
     ("error: argument --suite: invalid choice: 'everything'",)),
    (SEC73, 2, "err",
     (USAGE, "matcon report: error: the following arguments are required: --samples, --seed")),
    (["report", "--model", "sec73", "--model-file", "m.json", "--samples", "8", "--seed", "1"],
     2, "err", (USAGE, "error: report needs exactly one of --model / --model-file")),
    (["verify", "--cases", "-3", "--seed", "1"], 2, "err",
     ("error: --cases must be >= 1, got -3",)),
    (["verify", "--seed", "1", "--inject-fault=yes"], 2, "err",
     ("error: argument --inject-fault: ignored explicit argument 'yes'",)),
    ([], 2, "err", (USAGE, "matcon: error: the following arguments are required: command")),
    (["frob"], 2, "err", (USAGE, "matcon: error: argument command: invalid choice: 'frob'")),
    (["--version"], 0, "out", (f"matcon {__version__}\n",)),
    (["--vers"], 0, "out", (f"matcon {__version__}\n",)),
    (["-h"], 0, "out", (USAGE, "--version", "report", "verify", "experiment")),
    (["--help"], 0, "out", (USAGE, "--version", "report", "verify", "experiment")),
    (["report", "-h"], 0, "out", (USAGE, *REPORT_OPTIONS)),
    (["report", "--model", "sec73", "--help"], 0, "out", (USAGE, *REPORT_OPTIONS)),
    (["verify", "-h"], 0, "out", (USAGE, *VERIFY_OPTIONS)),
    (["experiment", "-h"], 0, "out", (USAGE, *EXPERIMENT_OPTIONS)),
]


class TestParsing:
    """The command-line rules, as argv -> exit code and output: `--opt value`
    and `--opt=value`, unique prefixes, last occurrence wins, `-` and
    negative numbers as values, usage errors on stderr with exit code 2."""

    @pytest.mark.parametrize("argv, want_code, stream, fragments", PARSE_CASES)
    def test_argv(self, capsys, argv, want_code, stream, fragments):
        code, out, err = run_cli(argv, capsys)
        assert code == want_code
        written, other = (out, err) if stream == "out" else (err, out)
        assert other == ""
        for fragment in fragments:
            assert fragment in written


class TestParserReuse:
    """main may run many commands in one process; no call may see another's
    arguments, defaults or errors."""

    # each call's (exit code, stdout, stderr, --out file bytes)
    SCRIPT = (
        "import contextlib, io, json, os, sys\n"
        "import matcon.cli\n"
        "results = []\n"
        "for argv, out_path in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        try:\n"
        "            code = matcon.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    written = open(out_path).read() if out_path else None\n"
        "    if out_path:\n"
        "        os.remove(out_path)\n"
        "    results.append([code, out.getvalue(), err.getvalue(), written])\n"
        "print(json.dumps(results))\n"
    )

    @classmethod
    def run(cls, calls) -> list:
        proc = subprocess.run(
            [sys.executable, "-c", cls.SCRIPT, json.dumps(calls)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_calls_in_one_process_match_fresh_interpreters(self, tmp_path):
        f = tmp_path / "shifted.json"
        f.write_text(json.dumps(SHIFTED_DOC))
        csv_out = str(tmp_path / "report.csv")
        # the first report's --out and --estimator, and the second's --format,
        # must not reach the calls after them
        calls = [
            (["report", "--model", "sec73", "--d", "3", "--samples", "64", "--seed", "5",
              "--estimator", "mom", "--out", csv_out], csv_out),
            (["report", "--model-file", str(f), "--samples", "64", "--seed", "5",
              "--format", "json"], None),
            (["report", "--model", "sec73", "--d", "3", "--samples", "64"], None),
            (["verify", "--cases", "5", "--seed", "1"], None),
            (["experiment", "--model", "sec74", "--d", "4,8", "--samples", "64", "--seed", "9",
              "--out", csv_out], csv_out),
            (["report", "--model", "sec73", "--d", "3", "--samples", "64", "--seed", "5"], None),
            (["--version"], None),
        ]
        together = self.run(calls)
        alone = [result for call in calls for result in self.run([call])]
        assert together == alone
        assert [code for code, *_ in together] == [0, 0, 2, 0, 0, 0, 0]
        assert together[0][3].startswith("model,") and together[4][3].startswith("experiment,")
        # the same model and seed under the mean: other bytes, on stdout
        assert together[5][1].startswith("model,") and together[5][1] != together[0][3]
        assert "envelope" in together[1][2]
        assert "the following arguments are required: --seed" in together[2][2]

    def test_version_after_other_calls(self, capsys):
        run_cli(["report", "--model", "sec73", "--d", "2", "--samples", "8", "--seed", "1"],
                capsys)
        run_cli(["verify", "--cases", "0", "--seed", "1"], capsys)
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (f"matcon {__version__}\n", "")


class TestEntryPoints:
    def test_public_names_resolve(self):
        import matcon

        for name in matcon.__all__:
            assert getattr(matcon, name) is not None, name

    def test_console_script_version(self):
        proc = subprocess.run(
            ["matcon", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "matcon" in proc.stdout

    GUARDED_RUNS = [
        ["report", "--model", "sec74", "--d", "4", "--samples", "64", "--seed", "1"],
        ["experiment", "--model", "sec74", "--d", "4,8", "--samples", "64", "--seed", "1"],
        ["report", "--model", "sec71", "--d", "4", "--n", "4", "--samples", "64",
         "--seed", "1"],
        ["verify", "--suite", "all", "--cases", "5", "--seed", "1"],
    ]
    UNIMPORTED = ("numpy.ma", "numpy.random", "concurrent.futures", "argparse", "gettext",
                  "locale")

    def test_commands_leave_heavy_modules_unimported(self):
        # numpy.ma (np.median's first call), numpy.random, a thread pool and
        # argparse with the gettext and locale it loads cost milliseconds to
        # import; no command needs them
        script = (
            "import contextlib, io, sys\n"
            "import matcon.cli\n"
            f"for argv in {self.GUARDED_RUNS!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert matcon.cli.main(argv) == 0, argv\n"
            f"print(' '.join(m for m in {self.UNIMPORTED!r} if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in proc.stdout.split():
            pytest.fail(f"{name} was imported by the guarded commands")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "matcon", "report", "--model", "sec73",
             "--d", "3", "--samples", "50", "--seed", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("model,")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [["report", "--model", "sec73", "--d", "3", "--samples", "8", "--seed", "1"],
         ["experiment", "-h"],
         ["--version"]],
        ids=["report", "experiment-help", "version"],
    )
    def test_closed_stdout_is_an_io_error(self, argv, unbuffered):
        # whether the first write or the flush at exit meets the closed pipe:
        # one error line and exit 2, with no traceback or "Exception ignored"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the child starts
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "matcon", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")

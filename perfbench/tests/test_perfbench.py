"""Tests of the benchmark itself: python3 -m pytest perfbench/tests

Every workload runs once at smoke size, traced and untraced, so a broken
workload fails here in seconds rather than in a timed run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    listed = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in listed:
        assert f"\n{m['name']} " in proc.stdout  # printed by name in the table


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path):
    workloads.write_inputs(workload, 11, "smoke", tmp_path)
    ops = workloads.build_ops(workload, 11, "smoke", tmp_path)
    env = run.child_env()
    plain = run.run_pass(ops, False, tmp_path / "plain", env)
    traced = run.run_pass(ops, True, tmp_path / "traced", env)
    assert "crashed" not in plain and "crashed" not in traced
    assert all(plain["outputs"].values())
    assert plain["outputs"] == traced["outputs"]
    assert run.check_pass(ops, traced) == [[] for _ in ops]
    bindings = set(traced["trace"]["bindings"])
    for binding in (
        "matcon.models.analytic_second_moments",
        "matcon.montecarlo.analytic_second_moments",
        "matcon.bounds.analytic_second_moments",
        "matcon.oracles.brute_force_expected_norm",
        "matcon.bounds.brute_force_expected_norm",
        "matcon.cli.bound_report",
        "matcon.collect_samples",
        "matcon.cli.sweep_fact_kind",
        "matcon.models.SamplerPlan.realize",
    ):
        assert binding in bindings


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, name):
        workloads.write_inputs("desk_mix", seed, "full", tmp_path / name)
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    for name in ("a", "b", "c"):
        (tmp_path / name).mkdir()
    first, again, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert len(first) == 16 and first == again
    assert all(first[k] != other[k] for k in first)
    doc = json.loads(first["fixed_gaussian_0.json"])
    entry = doc["summands"][0]["matrix"][0][0]
    assert doc["summands"][0]["family"] == "fixed_gaussian" and len(entry) == 2


def test_layer_metrics_from_spans():
    spans_ = [
        (0, -1, "cli.main", 0.0, 20.0, None),
        (1, 0, "models.build", 0.0, 2.0, {"summands": 5}),
        (2, 1, "models.build", 0.5, 1.5, {"summands": 5}),
        (3, 0, "montecarlo.collect", 2.0, 12.0, {"samples": 64}),
        (4, 3, "models.realize", 3.0, 6.0, {"bytes": 100}),
        (5, 4, "rng", 3.5, 5.0, None),
        (6, 5, "rng", 3.6, 4.0, {"words": 7}),
        (7, 0, "montecarlo.max_sq_estimate", 12.0, 19.0, None),
        (8, 7, "montecarlo.collect", 12.0, 19.0, {"samples": 192}),
        (9, 0, "oracles.facts.heinz", 19.0, 19.5, None),
    ]
    m = spans.layer_metrics(spans_)
    assert m["cli.self_s"] == pytest.approx(20.0 - 2.0 - 10.0 - 7.0 - 0.5)
    assert m["models.build_s"] == 2.0 and m["models.summands"] == 5
    assert m["montecarlo.collect_s"] == 17.0
    assert m["montecarlo.norm_s"] == 17.0 - 3.0
    assert m["models.realize_s"] == 3.0 and m["models.realize_bytes_computed"] == 100
    assert m["rng.s"] == 1.5 and m["rng.words"] == 7
    assert m["montecarlo.samples"] == 256
    assert m["montecarlo.norm_use_ratio"] == 64 / 256
    assert m["oracles.facts.heinz_s"] == 0.5
    assert set(m) | {"process.cpu_s", "trace.overhead_s"} == set(spans.LAYER_METRICS)


def test_checks_reject_wrong_outputs():
    ops = {op["id"]: op for op in workloads.build_ops("desk_mix", 1, "smoke", Path("."))}
    ops.update({op["id"]: op for w in ("sec71_trend", "sec74_tail", "verify_oracles")
                for op in workloads.build_ops(w, 1, "smoke", Path("."))})
    header = "experiment,d,n,samples,seed,v,L,C,lower,upper,mc_sqnorm_mean,mc_se,ratio\n"
    trend = header + "sec71,4,10,64,1,1,1,1,1,2,2,0.1,{}\nsec71,16,10,64,1,1,1,1,1,2,2,0.1,0.8\n"
    assert workloads.check_op(ops["trend"], trend.format(0.8), {}) == []
    assert workloads.check_op(ops["trend"], trend.format(1.5), {})

    tail = header + "sec74,4,4,1,1,2,{},1,1,2,2,0.1,1\nsec74,8,8,1,1,2,2.2,1,1,2,2,0.1,1\n" \
        "sec74_fit,0,0,1,1,0,0,0,0,0,0,0,0.5\n"
    assert workloads.check_op(ops["tail"], tail.format(1.9), {}) == []
    assert workloads.check_op(ops["tail"], tail.format(3.0), {})
    fit = "d,l_sq\n4,3.61\n8,{}\nslope,0.4\n"
    texts = {"tail": tail.format(1.9)}
    assert workloads.check_op(ops["fit"], fit.format(4.84), texts) == []
    assert workloads.check_op(ops["fit"], fit.format(4.9), texts)  # routes disagree

    cols = "model,d1,d2,n,v,v_provenance,L,L_provenance,C,lower,upper," \
        "mc_sqnorm_mean,mc_se,samples,seed,sandwich_ok\n"
    row = "sec73,4,4,16,4,analytic,1,analytic,20,1.2,60,5,0.3,16,1,{}\n"
    assert workloads.check_op(ops["sec73_d4"], cols + row.format("true"), {}) == []
    assert workloads.check_op(ops["sec73_d4"], cols + row.format("false"), {})

    lines = [f"facts/{k}: 5/5 passed" for k in spans.KINDS] + ["symmetrization: 5/5 passed"]
    good = "\n".join(lines + ["rademacher: 5/5 passed (relative slack min 0, max 1)"])
    assert workloads.check_op(ops["verify_all"], good, {}) == []
    assert workloads.check_op(ops["verify_all"], good.replace("heinz: 5/5", "heinz: 4/5"), {})
    fault = "\n".join(f"facts/{k}: 20/20 passed" for k in spans.KINDS)
    assert workloads.check_op(ops["verify_fault"], fault, {})  # fault not caught


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

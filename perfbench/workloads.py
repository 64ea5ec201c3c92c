"""Workload definitions, the seeded input generator and the output checks.

A workload is a list of ops run in order inside one fresh program process
(one "pass").  An op is either a command line handed to ``matcon.cli.main``
or the L^2 growth fit of acceptance check 7 (``max_sq_fit``), which has no
command-line form.  Every op writes its output to ``<workdir>/<op id>.csv``
(``--out``) or, for ``verify``, to ``<workdir>/<op id>.txt`` (captured
stdout); the checks below read those files.

The benchmark seed is passed to the program unchanged as ``--seed`` and also
seeds the model files of ``desk_mix``; the program receives nothing else.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from spans import KINDS

# Acceptance band for the sec71 ratio mc_sqnorm_mean / (2 log d), as in
# tests/test_acceptance.py.
TREND_BAND = (0.6, 1.4)

# Band for (Monte Carlo L^2) / (closed-form L^2) on sec74.  The estimator is
# the median of 16 block means of 64 draws of max_i P_i^2 (1024 samples).
# Over 2000 seeds at d = 8, 32, 128 (plus 1000 seeds at d = 4) the ratio
# stayed within [0.838, 1.141], median 0.96 (the median of heavy-tailed
# block means sits below the mean).  The band leaves at least 0.08 below and
# 0.15 above that range, and still rejects an L that is off by a third.
L_SQ_BAND = (0.75, 1.30)

FIT_HEADER = "d,l_sq"

SIZES = {
    "full": {
        "trend": {"d": (16, 64, 256), "n": 100, "samples": 200},
        "tail": {"d": (8, 32, 128), "samples": 1024},
        "desk": {"d": (4, 16, 64), "n": 100, "samples": 200, "families": 8},
        "verify": {"cases": 500, "fault_cases": 500},
    },
    "smoke": {
        "trend": {"d": (4, 16), "n": 10, "samples": 64},
        "tail": {"d": (4, 8), "samples": 1024},
        "desk": {"d": (4,), "n": 10, "samples": 16, "families": 1},
        "verify": {"cases": 5, "fault_cases": 20},
    },
}


def closed_form_l_sq(d: int) -> float:
    """E max_i P_i^2 for sec74: Gamma(1/2) Gamma(d+1) / Gamma(d+1/2)."""
    return math.exp(math.lgamma(0.5) + math.lgamma(d + 1) - math.lgamma(d + 0.5))


def _grid(ds) -> str:
    return ",".join(str(d) for d in ds)


def _cli(op_id: str, argv: list[str], expect: int = 0, stdout: bool = False,
         name: str | None = None) -> dict:
    """A command-line op; `name` is the model name its report row must carry."""
    return {"id": op_id, "kind": "cli", "argv": argv, "expect": expect,
            "stdout": stdout, "name": name}


# ---------------------------------------------------------------------------
# Seeded input generator (desk_mix model files)
# ---------------------------------------------------------------------------


def _hermitian(g: np.random.Generator, d: int) -> np.ndarray:
    a = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    return (a + a.conj().T) / 2.0


def family_document(seed: int, stream: int, index: int, family: str) -> dict:
    """A complex Hermitian family drawn like the fixed-sign families of the
    acceptance desk set.  Its size (1-10 matrices of dimension 1-6) depends
    on the index only, so every seed gives the same amount of work."""
    g = np.random.default_rng([seed, stream, index])
    n = 1 + (7 * index) % 10
    d = 1 + (5 * index) % 6
    summands = []
    for _ in range(n):
        h = _hermitian(g, d)
        matrix = [[[float(x.real), float(x.imag)] for x in row] for row in h]
        summands.append({"family": family, "matrix": matrix})
    return {"name": f"{family}_{seed}_{index}", "summands": summands}


def write_inputs(workload: str, seed: int, size: str, workdir: Path) -> None:
    """Write the model files a workload reads (desk_mix only)."""
    if workload != "desk_mix":
        return
    for stream, family in ((40, "fixed_rademacher"), (41, "fixed_gaussian")):
        for i in range(SIZES[size]["desk"]["families"]):
            doc = family_document(seed, stream, i, family)
            (workdir / f"{family}_{i}.json").write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------


def build_ops(workload: str, seed: int, size: str, workdir: Path) -> list[dict]:
    """The ops of one pass.  Model files must already exist (write_inputs)."""
    sz = SIZES[size]
    s = str(seed)
    if workload == "sec71_trend":
        t = sz["trend"]
        return [
            _cli(
                "trend",
                ["experiment", "--model", "sec71", "--d", _grid(t["d"]), "--n",
                 str(t["n"]), "--samples", str(t["samples"]), "--seed", s],
            )
        ]
    if workload == "sec74_tail":
        t = sz["tail"]
        return [
            _cli(
                "tail",
                ["experiment", "--model", "sec74", "--d", _grid(t["d"]),
                 "--samples", str(t["samples"]), "--seed", s],
            ),
            {"id": "fit", "kind": "max_sq_fit", "d": list(t["d"]),
             "samples": t["samples"], "seed": seed, "expect": 0},
        ]
    if workload == "desk_mix":
        t = sz["desk"]
        ops = []
        for name in ("sec71", "sec72", "sec73", "sec74"):
            for d in t["d"]:
                argv = ["report", "--model", name, "--d", str(d)]
                if name in ("sec71", "sec72"):
                    argv += ["--n", str(t["n"])]
                argv += ["--samples", str(t["samples"]), "--seed", s]
                ops.append(_cli(f"{name}_d{d}", argv, name=name))
        for family in ("fixed_rademacher", "fixed_gaussian"):
            for i in range(t["families"]):
                op_id = f"{family}_{i}"
                ops.append(
                    _cli(op_id, ["report", "--model-file", str(workdir / f"{op_id}.json"),
                                 "--samples", str(t["samples"]), "--seed", s],
                         name=f"{family}_{seed}_{i}")
                )
        return ops
    if workload == "verify_oracles":
        t = sz["verify"]
        return [
            _cli("verify_all", ["verify", "--suite", "all", "--cases", str(t["cases"]),
                                "--seed", s], stdout=True),
            _cli("verify_fault", ["verify", "--suite", "facts", "--cases",
                                  str(t["fault_cases"]), "--seed", s, "--inject-fault"],
                 expect=1, stdout=True),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def output_path(op: dict, workdir: Path) -> Path:
    return workdir / (f"{op['id']}.txt" if op.get("stdout") else f"{op['id']}.csv")


def program_argv(op: dict, workdir: Path) -> list[str]:
    """The command line as the program sees it, with --out for CSV ops."""
    if op.get("stdout"):
        return list(op["argv"])
    return list(op["argv"]) + ["--out", str(output_path(op, workdir))]


def max_sq_fit(op: dict, out: Path) -> int:
    """Run the max_sq_fit op inside the program process: E max_i ||S_i||^2
    on the sec74 grid by Monte Carlo (acceptance check 7) and the fitted
    growth exponent of L^2 in d, written as CSV.  Functions are looked up
    on their modules at call time, so traced bindings are used."""
    models = sys.modules["matcon.models"]
    montecarlo = sys.modules["matcon.montecarlo"]
    lines = [FIT_HEADER]
    l_sq = []
    for d in op["d"]:
        cfg = montecarlo.MCConfig(
            samples=op["samples"], seed=op["seed"], estimator=montecarlo.MEDIAN_OF_MEANS
        )
        est = montecarlo.estimate_max_summand_sq(models.make_example("sec74", d=d), cfg)
        l_sq.append(est.mean)
        lines.append(f"{d},{est.mean:.12g}")
    slope = float(np.polyfit(np.log(op["d"]), np.log(l_sq), 1)[0])
    lines.append(f"slope,{slope:.12g}")
    out.write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems (empty when the op is right)
# ---------------------------------------------------------------------------


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_trend(op: dict, text: str) -> list[str]:
    rows = _rows(text)
    want = [int(d) for d in op["argv"][op["argv"].index("--d") + 1].split(",")]
    if [int(r["d"]) for r in rows] != want:
        return [f"rows for d={[r['d'] for r in rows]}, expected {want}"]
    lo, hi = TREND_BAND
    return [
        f"sec71 ratio {r['ratio']} at d={r['d']} outside [{lo}, {hi}]"
        for r in rows
        if not lo <= float(r["ratio"]) <= hi
    ]


def _check_l_sq(d: int, l_sq: float) -> list[str]:
    exact = closed_form_l_sq(d)
    lo, hi = L_SQ_BAND
    if lo <= l_sq / exact <= hi:
        return []
    return [f"L^2 {l_sq:.6g} at d={d} is {l_sq / exact:.4f} x closed form {exact:.6g}"]


def _check_tail(op: dict, text: str) -> list[str]:
    rows = _rows(text)
    grid = [r for r in rows if r["experiment"] == "sec74"]
    fit = [r for r in rows if r["experiment"] == "sec74_fit"]
    want = [int(d) for d in op["argv"][op["argv"].index("--d") + 1].split(",")]
    if [int(r["d"]) for r in grid] != want or len(fit) != 1:
        return ["unexpected sec74 experiment rows"]
    problems = []
    for r in grid:
        problems += _check_l_sq(int(r["d"]), float(r["L"]) ** 2)
    if not float(fit[0]["ratio"]) > 0.0:
        problems.append(f"fitted L^2 growth exponent {fit[0]['ratio']} is not positive")
    return problems


def _check_fit(op: dict, text: str, tail_text: str | None) -> list[str]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != FIT_HEADER:
        return ["bad fit output"]
    pairs = [line.split(",") for line in lines[1:]]
    slope = [float(v) for k, v in pairs if k == "slope"]
    points = [(int(k), float(v)) for k, v in pairs if k != "slope"]
    if [d for d, _ in points] != op["d"] or len(slope) != 1:
        return ["bad fit output"]
    problems = []
    for d, l_sq in points:
        problems += _check_l_sq(d, l_sq)
    if not slope[0] > 0.0:
        problems.append(f"fitted L^2 growth exponent {slope[0]} is not positive")
    if tail_text is not None:
        # the experiment's L column and estimate_max_summand_sq are two routes
        # to the same estimate at the same seed and sample count
        grid = {int(r["d"]): float(r["L"]) ** 2 for r in _rows(tail_text)
                if r["experiment"] == "sec74"}
        for d, l_sq in points:
            if d in grid and abs(grid[d] - l_sq) > 1e-9 * l_sq:
                problems.append(f"experiment L^2 {grid[d]} != fit L^2 {l_sq} at d={d}")
    return problems


def _check_report(op: dict, text: str) -> list[str]:
    rows = _rows(text)
    if len(rows) != 1:
        return [f"{len(rows)} report rows"]
    r = rows[0]
    problems = []
    if r["sandwich_ok"] != "true":
        problems.append("sandwich_ok is not true")
    if not 0.0 <= float(r["lower"]) <= float(r["upper"]):
        problems.append(f"interval [{r['lower']}, {r['upper']}] is not ordered")
    if r["model"] != op["name"]:
        problems.append(f"model name {r['model']}, expected {op['name']}")
    return problems


def _verify_counts(text: str) -> dict[str, tuple[int, int]]:
    counts = {}
    for line in text.splitlines():
        if line.startswith("FAIL") or line.startswith("{"):
            continue
        name, rest = line.split(":", 1)
        passed, total = rest.split()[0].split("/")
        counts[name] = (int(passed), int(total))
    return counts


def _check_verify(op: dict, text: str) -> list[str]:
    cases = int(op["argv"][op["argv"].index("--cases") + 1])
    fault = "--inject-fault" in op["argv"]
    counts = _verify_counts(text)
    want = [f"facts/{k}" for k in KINDS]
    if not fault:
        want += ["symmetrization", "rademacher"]
    if sorted(counts) != sorted(want):
        return [f"verify lines {sorted(counts)}"]
    problems = []
    for name, (passed, total) in counts.items():
        if total != cases:
            problems.append(f"{name}: {total} cases, expected {cases}")
        planted = fault and name == "facts/gm_am_trace"
        if planted and passed == total:
            problems.append("injected fault was not detected")
        if not planted and passed != total:
            problems.append(f"{name}: {passed}/{total} passed")
    if fault and "FAIL facts/gm_am_trace" not in text:
        problems.append("no replayable FAIL line for the injected fault")
    return problems


def check_op(op: dict, text: str, outputs: dict[str, str]) -> list[str]:
    """Problems with one op's output; `outputs` maps op id -> output text of
    the same pass, for cross-op checks."""
    argv = op.get("argv", [])
    if op["kind"] == "max_sq_fit":
        return _check_fit(op, text, outputs.get("tail"))
    if argv[0] == "verify":
        return _check_verify(op, text)
    if argv[0] == "report":
        return _check_report(op, text)
    model = argv[argv.index("--model") + 1]
    return _check_trend(op, text) if model == "sec71" else _check_tail(op, text)

"""matcon benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see BENCHMARK.json for why each exists) from the root of
a source checkout, with matcon imported from ``src/``.  A *pass* is one
fresh program process that imports matcon and runs the workload's ops in
order on one thread (``MATCON_THREADS`` unset, so 1; one BLAS thread
unless ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS`` are set).  Passes repeat until ``--seconds`` have elapsed.  Every op's output
is checked (see workloads.py); a wrong output or an unexpected exit code
counts the op as failed.

With ``--trace 0`` the end-to-end metrics are reported: the median pass wall
time (end of import to last output written), the median of five fresh
interpreters' ``import matcon, matcon.cli`` (setup_s), and the median peak
RSS of a pass.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones record spans around calls into each layer (spans.py), the
per-layer metrics are their medians, and every traced output must be
byte-identical to the untraced one.

Output: an ``env`` line, one ``digest`` line per op output (sha256, compared
with perfbench/baseline.json where it has the seed), a table of every metric
by name with its unit, and as the last line one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 when a result is
printed; 1 when no pass of the program completed; 2 when the program source
is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sec71_trend", "sec74_tail", "desk_mix", "verify_oracles")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_PROBES = 5
# a run must end within 180 s; a pass still running at this point is killed
DEADLINE_S = 170


def child_env() -> dict:
    """The program's environment: MATCON_THREADS at its default (1) and one
    BLAS thread unless the caller chose a count.  Two BLAS threads on two
    cores spin against any other load and made pass times swing many-fold."""
    env = dict(os.environ)
    env.pop("MATCON_THREADS", None)
    for name in BLAS_THREADS:
        env.setdefault(name, "1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(env: dict) -> list[float]:
    """Wall time of fresh interpreters that import matcon and its CLI."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import matcon, matcon.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(ops: list[dict], traced: bool, passdir: Path, env: dict,
             timeout: float = DEADLINE_S) -> dict:
    """One program process over all ops.  Returns its result record plus
    `outputs` (op id -> bytes or None) and, when traced, `trace`."""
    passdir.mkdir(parents=True)
    child_ops = []
    for op in ops:
        child_op = dict(op, out=workloads.output_path(op, passdir).name)
        if op["kind"] == "cli":
            child_op["program_argv"] = workloads.program_argv(op, passdir)
        child_ops.append(child_op)
    spec = {"ops": child_ops, "outdir": str(passdir), "trace": traced,
            "spans_out": str(passdir / "spans.json")}
    spec_path, result_path = passdir / "spec.json", passdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0 or not result_path.exists():
        return {"crashed": proc.stderr[-2000:], "codes": [None] * len(ops),
                "outputs": {op["id"]: None for op in ops}}
    result = json.loads(result_path.read_text())
    result["outputs"], result["stderr"] = {}, {}
    for op in ops:
        path = workloads.output_path(op, passdir)
        result["outputs"][op["id"]] = path.read_bytes() if path.exists() else None
        errors = passdir / f"{op['id']}.stderr"
        result["stderr"][op["id"]] = errors.read_text() if errors.exists() else ""
    if traced:
        result["trace"] = json.loads((passdir / "spans.json").read_text())
    return result


def check_pass(ops: list[dict], result: dict) -> list[list[str]]:
    """Problems per op (same order as ops)."""
    texts = {k: v.decode() for k, v in result["outputs"].items() if v is not None}
    problems = []
    for op, code in zip(ops, result["codes"]):
        found = []
        if "crashed" in result:
            found.append("program process failed: " + result["crashed"].strip())
        elif code != op["expect"]:
            stderr = result["stderr"][op["id"]].strip()[-2000:]
            found.append(f"exit code {code}, expected {op['expect']}; stderr: {stderr}")
        if op["id"] not in texts:
            found.append("no output")
        else:
            try:
                found += workloads.check_op(op, texts[op["id"]], texts)
            except (ValueError, KeyError, IndexError) as exc:
                found.append(f"unreadable output: {exc!r}")
        problems.append(found)
    return problems


def environment(env: dict) -> dict:
    """Where the figures were measured; thread settings as the program saw them."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "MATCON_THREADS": env.get("MATCON_THREADS"),
        "blas_threads": {k: env.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": commit,
        "src_matcon_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((SRC / "matcon").glob("*.py"))
        ),
    }


def digest_lines(workload: str, seed: int, size: str, digests: dict) -> list[str]:
    """One line per op output; a digest that moved from the baseline is
    named, not counted as a failure."""
    baseline = json.loads((HERE / "baseline.json").read_text())["digests"]
    known = baseline.get(workload, {}).get(str(seed), {}) if size == "full" else {}
    lines = []
    for op_id, digest in digests.items():
        if op_id not in known:
            status = "no-baseline"
        elif known[op_id] == digest:
            status = "matches-baseline"
        else:
            status = f"MOVED (baseline {known[op_id]})"
        lines.append(f"digest {op_id} {digest} {status}")
    return lines


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (SRC / "matcon" / "__init__.py").is_file():
        sys.stderr.write(f"error: no matcon source under {SRC}\n")
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # SIGTERM unwinds like an exception, so a running pass is killed and
    # waited for, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    size = "smoke" if args.smoke else "full"
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    env = child_env()
    deadline = time.perf_counter() + DEADLINE_S
    try:
        workdir.mkdir(parents=True)
        workloads.write_inputs(args.workload, args.seed, size, workdir)
        ops = workloads.build_ops(args.workload, args.seed, size, workdir)
        setup = [] if args.trace else setup_times(env)

        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            result = run_pass(ops, traced, workdir / f"pass{len(passes)}", env,
                              timeout=max(1.0, deadline - time.perf_counter()))
            result["traced"] = traced
            passes.append(result)
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failures = []
    attempted = failed = 0
    for n, result in enumerate(passes):
        for op, found in zip(ops, check_pass(ops, result)):
            attempted += 1
            failed += bool(found)
            failures += [f"FAIL pass {n} op {op['id']}: {p}" for p in found]
    reference = passes[0]["outputs"]
    for n, result in enumerate(passes[1:], start=1):
        for op_id, data in result["outputs"].items():
            if data is not None and reference[op_id] is not None and data != reference[op_id]:
                kind = "traced" if result["traced"] else "untraced"
                failures.append(f"FAIL pass {n} ({kind}) op {op_id}: output differs from pass 0")
    correct = not failures

    plain = [p for p in passes if not p["traced"] and "crashed" not in p]
    traced = [p for p in passes if p["traced"] and "crashed" not in p]
    if not plain or (args.trace and not traced):
        print("\n".join(failures))
        sys.stderr.write("error: no pass of the program completed\n")
        return 1
    walls = [p["wall_s"] for p in plain]
    if args.trace:
        units = spans.LAYER_METRICS
        metrics = spans.median_metrics(
            [spans.layer_metrics(p["trace"]["spans"]) for p in traced]
        )
        metrics["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - statistics.median(walls)
        )
    else:
        units = END_TO_END
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }

    print(f"# matcon benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}, size {size}")
    print("env " + json.dumps(environment(env), sort_keys=True))
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in reference.items() if v is not None}
    for line in digest_lines(args.workload, args.seed, size, digests):
        print(line)
    for line in failures:
        print(line)
    q1, q2, q3 = quartiles(walls)
    print(f"passes {len(plain)} untraced, {len(traced)} traced; wall_s median {q2:.6g} "
          f"quartiles [{q1:.6g}, {q3:.6g}] s; untraced passes "
          + " ".join(f"{w:.4f}" for w in walls))
    print(f"{'error_rate':<34} {failed / attempted:>14.6g} ({failed}/{attempted} ops)")
    for name, value in metrics.items():
        print(f"{name:<34} {value:>14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Subcommands:

  report      one bound-report row for a built-in or JSON-described model
  verify      oracle sweeps: fact checks, symmetrization, sign-series domination
  experiment  grid runs over d reproducing the optimality examples

Exit codes: 0 success, 1 mathematical-check failure (sandwich violation or a
failed oracle case), 2 usage/parse/I-O failure.  All randomness flows from
--seed; every number prints with 12 significant digits so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import sweep_rademacher_domination
from .models import EXAMPLE_NAMES, make_example, model_from_json, _matrix_to_json
from .montecarlo import MCConfig, MEAN, MEDIAN_OF_MEANS, bound_report
from .oracles import KINDS, replay_fact_case, sweep_fact_kind, sweep_symmetrization

REPORT_COLUMNS = (
    "model,d1,d2,n,v,v_provenance,L,L_provenance,C,lower,upper,"
    "mc_sqnorm_mean,mc_se,samples,seed,sandwich_ok"
).split(",")
EXPERIMENT_COLUMNS = (
    "experiment,d,n,samples,seed,v,L,C,lower,upper,mc_sqnorm_mean,mc_se,ratio"
).split(",")
EXPERIMENTS = ("sec71", "sec72", "sec73", "sec74", "rademacher_sharpness")


def fmt(value) -> str:
    """12-significant-digit rendering; bools as lowercase true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _json_value(value):
    """fmt's rendering as a JSON value: bools and strings as they are."""
    if isinstance(value, (bool, str)):
        return value
    return (int if isinstance(value, (int, np.integer)) else float)(fmt(value))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(row[col]) for col in header))
    return "\n".join(lines) + "\n"


def _report_row(rep) -> dict:
    """REPORT_COLUMNS of a report: the mc_* columns read the estimate of
    E||Z||^2, every other column the BoundReport field of its name."""
    fields = {**vars(rep), "model": rep.model_name}
    fields.update(mc_sqnorm_mean=rep.mc_sqnorm.mean, mc_se=rep.mc_sqnorm.spread)
    return {col: fields[col] for col in REPORT_COLUMNS}


_ESTIMATORS = {"mean": MEAN, "mom": MEDIAN_OF_MEANS}


def _report(args, model):
    """bound_report under --samples and --seed, with the --estimator given,
    else median-of-means for heavy-tailed models and the mean otherwise."""
    default = MEDIAN_OF_MEANS if model.heavy_tail else MEAN
    cfg = MCConfig(args.samples, args.seed, _ESTIMATORS.get(args.estimator, default))
    return bound_report(model, cfg)


def _example(name: str, d: int, n: int | None, label: str):
    """Built-in model `name` at dimension d; sec71 and sec72 need --n, and
    `label` names the model or experiment that asked for it."""
    if n is None and name in ("sec71", "sec72"):
        raise ValueError(f"--n is required for {label}")
    return make_example(name, d=d, n=1 if n is None else n)


def _load_model(args):
    if args.model_file:
        with open(args.model_file) as fh:
            return model_from_json(json.load(fh))
    name = args.model.lower()
    if name not in EXAMPLE_NAMES:
        raise ValueError(f"unknown model {args.model!r}; expected one of {EXAMPLE_NAMES}")
    if args.d is None:
        raise ValueError("--d is required for built-in models")
    grid = _parse_d_grid(args.d)
    if len(grid) != 1:
        raise ValueError("report takes a single --d value")
    return _example(name, grid[0], args.n, name)


def _parse_d_grid(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"bad --d value {raw!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ValueError("--d values must be integers >= 1")
    return values


def cmd_report(args) -> int:
    rep = _report(args, _load_model(args))
    row = _report_row(rep)
    if args.format == "json":
        payload = {col: _json_value(value) for col, value in row.items()}
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    else:
        _write_text(args.out, _csv(REPORT_COLUMNS, [row]))
    if rep.mean_norm is not None:
        sys.stderr.write(
            "note: uncentered model; bounds describe the centered sum; "
            f"||E R|| = {fmt(rep.mean_norm)}, second-moment envelope "
            f"[{fmt(rep.envelope_lower)}, {fmt(rep.envelope_upper)}]\n"
        )
    return 0 if rep.sandwich_ok else 1


def _payload_json(case) -> dict:
    out = {}
    for key, value in case.batch.items():
        value = value[0]
        if value.ndim == 3:
            out[key] = [_matrix_to_json(m) for m in value]
        elif value.ndim == 2:
            out[key] = _matrix_to_json(value)
        else:
            out[key] = value.item()
    return out


def _print_fact_failure(seed: int, kind: str, index: int, result) -> None:
    case = replay_fact_case(seed, kind, index)
    print(
        f"FAIL facts/{kind} case {index} "
        f"(replay: --seed {seed}, kind {kind}, index {index})"
    )
    print(
        json.dumps(
            {
                "kind": kind,
                "index": index,
                "lhs": result.lhs,
                "rhs": result.rhs,
                "slack": result.slack,
                "tolerance": result.tolerance,
                "payload": _payload_json(case),
            }
        )
    )


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise ValueError(f"--cases must be >= 1, got {args.cases}")
    suites = ("facts", "symmetrization", "rademacher") if args.suite == "all" else (args.suite,)
    failed = False
    for suite in suites:
        if suite == "facts":
            for kind in KINDS:
                res = sweep_fact_kind(
                    kind, cases=args.cases, seed=args.seed, inject_fault=args.inject_fault
                )
                print(f"facts/{kind}: {res.passed}/{res.cases} passed")
                if not res.ok:
                    failed = True
                    index, result = res.failures[0]
                    _print_fact_failure(args.seed, kind, index, result)
        elif suite == "symmetrization":
            res = sweep_symmetrization(cases=args.cases, seed=args.seed)
            print(f"symmetrization: {res.passed}/{res.cases} passed")
            if not res.ok:
                failed = True
                index, result = res.failures[0]
                print(
                    f"FAIL symmetrization case {index} "
                    f"(replay: --seed {args.seed}, index {index}); "
                    f"violation {fmt(result.lhs)}, detail {result.detail}"
                )
        elif suite == "rademacher":
            records = sweep_rademacher_domination(cases=args.cases, seed=args.seed)
            bad = [r for r in records if not r.holds]
            slacks = [r.rel_slack for r in records]
            print(
                f"rademacher: {len(records) - len(bad)}/{len(records)} passed "
                f"(relative slack min {fmt(min(slacks))}, max {fmt(max(slacks))})"
            )
            if bad:
                failed = True
                r = bad[0]
                print(
                    f"FAIL rademacher case {r.index} "
                    f"(replay: --seed {args.seed}, index {r.index}); "
                    f"bound {fmt(r.bound)} < exact {fmt(r.exact)}"
                )
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return 1 if failed else 0


def _ratio(experiment: str, d: int, rep) -> float:
    if experiment == "sec71":
        if d < 2:
            return math.nan
        return rep.mc_sqnorm.mean / (2.0 * math.log(d))
    if experiment == "sec72":
        if d < 3 or math.log(math.log(d)) <= 0:
            return math.nan
        return math.sqrt(max(rep.mc_sqnorm.mean, 0.0)) / (
            math.log(d) / math.log(math.log(d))
        )
    if experiment == "sec73":
        return math.sqrt(max(rep.mc_sqnorm.mean, 0.0)) / math.sqrt(d)
    if experiment == "sec74":
        return rep.L**2 / float(d) ** 2
    if experiment == "rademacher_sharpness":
        if d < 2:
            return math.nan
        return math.sqrt(max(rep.mc_sqnorm.mean, 0.0)) / math.sqrt(2.0 * math.log(d))
    raise ValueError(f"unknown experiment {experiment!r}")


def write_svg(path: str, xs: list[float], ys: list[float], title: str) -> None:
    """Minimal line plot: one polyline over a framed axis box."""
    width, height, margin = 640, 440, 70
    finite = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>',
        f'<text x="{width // 2}" y="30" text-anchor="middle" '
        f'font-family="monospace">{title}</text>',
    ]
    if finite:
        x0, x1 = min(x for x, _ in finite), max(x for x, _ in finite)
        y0, y1 = min(y for _, y in finite), max(y for _, y in finite)
        xspan = (x1 - x0) or 1.0
        yspan = (y1 - y0) or 1.0

        def px(x):
            return margin + (x - x0) / xspan * (width - 2 * margin)

        def py(y):
            return height - margin - (y - y0) / yspan * (height - 2 * margin)

        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in finite)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="2"/>'
        )
        for x, y in finite:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="steelblue"/>'
            )
        labels = [
            (margin, height - margin + 20, f"{x0:.6g}", "start"),
            (width - margin, height - margin + 20, f"{x1:.6g}", "end"),
            (margin - 8, height - margin, f"{y0:.6g}", "end"),
            (margin - 8, margin + 10, f"{y1:.6g}", "end"),
        ]
        for x, y, text, anchor in labels:
            parts.append(
                f'<text x="{x}" y="{y}" text-anchor="{anchor}" '
                f'font-family="monospace" font-size="12">{text}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_experiment(args) -> int:
    experiment = args.model.lower()
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {args.model!r}; expected one of {EXPERIMENTS}"
        )
    grid = _parse_d_grid(args.d)
    if len(set(grid)) != len(grid):
        raise ValueError(f"--d values must be distinct, got {args.d}")
    name = "sec71" if experiment == "rademacher_sharpness" else experiment

    rows = []
    all_ok = True
    for d in grid:
        rep = _report(args, _example(name, d, args.n, experiment))
        all_ok = all_ok and rep.sandwich_ok
        ratio = _ratio(experiment, d, rep)
        rows.append({**_report_row(rep), "experiment": experiment, "d": d, "ratio": ratio})

    if experiment == "sec74" and len(grid) >= 2:
        logd = np.log([row["d"] for row in rows])
        logl2 = np.log([max(row["L"] ** 2, 1e-300) for row in rows])
        exponent = float(np.polyfit(logd, logl2, 1)[0])
        # every other column of the fit row is 0: fmt(0) == fmt(0.0) == "0"
        fit = {"experiment": "sec74_fit", "samples": args.samples, "seed": args.seed}
        rows.append({**dict.fromkeys(EXPERIMENT_COLUMNS, 0), **fit, "ratio": exponent})

    _write_text(args.out, _csv(EXPERIMENT_COLUMNS, rows))
    if args.svg:
        data = [(float(r["d"]), float(r["ratio"])) for r in rows if r["d"] > 0]
        write_svg(
            args.svg,
            [x for x, _ in data],
            [y for _, y in data],
            f"{experiment}: ratio vs d",
        )
    return 0 if all_ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matcon",
        description=(
            "Matrix concentration bounds: matched upper/lower estimates for "
            "E||sum of independent random matrices||, oracle-tested matrix "
            "inequalities, and reproducible experiments."
        ),
    )
    parser.add_argument("--version", action="version", version=f"matcon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="compute one bound report row")
    rep.add_argument("--model", help=f"built-in model: one of {', '.join(EXAMPLE_NAMES)}")
    rep.add_argument("--model-file", help="JSON model description file")
    rep.add_argument("--d", help="dimension (built-in models)")
    rep.add_argument("--n", type=int, help="repetition count (sec71/sec72)")
    rep.add_argument("--samples", type=int, required=True, help="Monte Carlo samples")
    rep.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    rep.add_argument("--format", choices=("csv", "json"), default="csv")
    rep.add_argument("--out", help="output path (default stdout)")
    rep.add_argument(
        "--estimator",
        choices=("mean", "mom"),
        help="mean or median-of-means (default: mom for heavy-tailed models)",
    )

    ver = sub.add_parser("verify", help="run the oracle sweeps")
    ver.add_argument(
        "--suite",
        choices=("facts", "symmetrization", "rademacher", "all"),
        default="all",
    )
    ver.add_argument("--cases", type=int, default=10000, help="cases per sweep")
    ver.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    ver.add_argument(
        "--inject-fault",
        action="store_true",
        help="test-only: plant a known violation to confirm the harness fails",
    )

    exp = sub.add_parser("experiment", help="reproduce an optimality experiment")
    exp.add_argument(
        "--model",
        required=True,
        help=f"experiment id: one of {', '.join(EXPERIMENTS)}",
    )
    exp.add_argument("--d", required=True, help="comma-separated d grid, e.g. 16,64,256")
    exp.add_argument("--n", type=int, help="repetition count (sec71/sec72/sharpness)")
    exp.add_argument("--samples", type=int, required=True, help="Monte Carlo samples")
    exp.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    exp.add_argument("--out", help="output CSV path (default stdout)")
    exp.add_argument("--svg", help="optional SVG line-plot path")
    exp.add_argument("--estimator", choices=("mean", "mom"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and bool(args.model) == bool(args.model_file):
        parser.error("report needs exactly one of --model / --model-file")
    command = {"report": cmd_report, "verify": cmd_verify, "experiment": cmd_experiment}
    try:
        return command[args.command](args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

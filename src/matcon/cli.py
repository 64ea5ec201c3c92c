"""Command-line surface: three subcommands and one option table.

  report      one bound-report row for a built-in or JSON-described model
  verify      oracle sweeps: fact checks, symmetrization, sign-series domination
  experiment  grid runs over d reproducing the optimality examples

OPTIONS holds each command's options with converter, default and help.
main parses argv against it by argparse's rules: `--opt value` or
`--opt=value`, an option named by a prefix no other option has, the last
of a repeated option winning, `-` and negative numbers taken as values.

Exit codes: 0 success, 1 mathematical-check failure (sandwich violation or a
failed oracle case), 2 usage/parse/I-O failure.  All randomness flows from
--seed; every number prints with 12 significant digits so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import types

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


REQUIRED = object()  # the default of an option that must be given

# command -> (help line, {option: (converter, default, help)}), with the top
# level as command None.  A converter is int, str, a tuple of choices, or bool
# for a flag that takes no value.
OPTIONS = {
    None: ("Matrix concentration bounds: matched upper/lower estimates for E||sum of "
           "independent random matrices||, oracle-tested matrix inequalities, and "
           "reproducible experiments.",
           {"--version": (bool, False, "show program's version number and exit")}),
    "report": ("compute one bound report row", {
        "--model": (str, None, f"built-in model: one of {', '.join(EXAMPLE_NAMES)}"),
        "--model-file": (str, None, "JSON model description file"),
        "--d": (str, None, "dimension (built-in models)"),
        "--n": (int, None, "repetition count (sec71/sec72)"),
        "--samples": (int, REQUIRED, "Monte Carlo samples"),
        "--seed": (int, REQUIRED, "RNG seed (required)"),
        "--format": (("csv", "json"), "csv", ""),
        "--out": (str, None, "output path (default stdout)"),
        "--estimator": (("mean", "mom"), None,
                        "mean or median-of-means (default: mom for heavy-tailed models)"),
    }),
    "verify": ("run the oracle sweeps", {
        "--suite": (("facts", "symmetrization", "rademacher", "all"), "all", ""),
        "--cases": (int, 10000, "cases per sweep"),
        "--seed": (int, REQUIRED, "RNG seed (required)"),
        "--inject-fault": (bool, False,
                           "test-only: plant a known violation to confirm the harness fails"),
    }),
    "experiment": ("reproduce an optimality experiment", {
        "--model": (str, REQUIRED, f"experiment id: one of {', '.join(EXPERIMENTS)}"),
        "--d": (str, REQUIRED, "comma-separated d grid, e.g. 16,64,256"),
        "--n": (int, None, "repetition count (sec71/sec72/sharpness)"),
        "--samples": (int, REQUIRED, "Monte Carlo samples"),
        "--seed": (int, REQUIRED, "RNG seed (required)"),
        "--out": (str, None, "output CSV path (default stdout)"),
        "--svg": (str, None, "optional SVG line-plot path"),
        "--estimator": (("mean", "mom"), None, ""),
    }),
}
COMMANDS = ("report", "verify", "experiment")
_DASH_VALUE = re.compile(r"-|-\d+|-\d*\.\d+")  # taken as values, as argparse does


def _usage(command, error: str = ""):
    """Exit 2 on a usage error: the usage line and `error` on stderr.  With
    no error, --help: exit 0 after the usage line and every option with its
    help on stdout."""
    prog = f"matcon {command}" if command else "matcon"
    text, options = OPTIONS[command]
    required = [f"{o} {o[2:].upper()}" for o, entry in options.items() if entry[1] is REQUIRED]
    commands = [] if command else ["{%s} ..." % ",".join(COMMANDS)]
    usage = " ".join([f"usage: {prog} [-h]", *required, "[options]", *commands])
    if error:
        sys.stderr.write(f"{usage}\n{prog}: error: {error}\n")
        raise SystemExit(2)
    rows = [("-h, --help", "show this help message and exit")]
    for option, (convert, _, help) in options.items():
        choices = " {%s}" % ",".join(convert) if isinstance(convert, tuple) else ""
        rows.append((option + choices, help))
    rows += [] if command else [(c, OPTIONS[c][0]) for c in COMMANDS]
    print(f"{usage}\n\n{text}\n")
    print("\n".join(f"  {row:24}{help}".rstrip() for row, help in rows))
    raise SystemExit(0)


def _parse(argv: list) -> types.SimpleNamespace:
    """The command named in argv, with its option values by attribute name."""
    command, values, extras, tokens = None, {}, [], list(argv)
    while tokens:
        token, options = tokens.pop(0), OPTIONS[command][1]
        name, eq, value = ("--help", "", "") if token == "-h" else token.partition("=")
        # an option is named in full or by a prefix that no other option has;
        # "-" and "--" name none
        hits = [o for o in ("--help", *options) if len(name) > 2 and o.startswith(name)]
        hits = [name] if name in options else hits
        if len(hits) > 1:
            _usage(command, f"ambiguous option: {token} could match {', '.join(hits)}")
        if command is None and token[:1] != "-":  # the first other token names the command
            option, convert, value = "command", COMMANDS, token
        elif not hits:
            extras.append(token)
            continue
        elif hits[0] == "--help":
            _usage(command)
        elif hits[0] == "--version":
            print(f"matcon {__version__}")
            raise SystemExit(0)
        else:
            option, convert = hits[0], options[hits[0]][0]
            if convert is bool and eq:
                _usage(command, f"argument {option}: ignored explicit argument {value!r}")
            if convert is not bool and not eq:
                if not tokens or tokens[0][:1] == "-" and not _DASH_VALUE.fullmatch(tokens[0]):
                    _usage(command, f"argument {option}: expected one argument")
                value = tokens.pop(0)
        if isinstance(convert, tuple) and value not in convert:
            choices = ", ".join(map(repr, convert))
            _usage(command, f"argument {option}: invalid choice: {value!r} "
                            f"(choose from {choices})")
        try:
            values[option] = True if convert is bool else int(value) if convert is int else value
        except ValueError:
            _usage(command, f"argument {option}: invalid int value: {value!r}")
        command = values.pop("command", command)
    if command is None:
        _usage(None, "the following arguments are required: command")
    options = OPTIONS[command][1]
    missing = [o for o, entry in options.items() if entry[1] is REQUIRED and o not in values]
    if missing:
        _usage(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _usage(None, f"unrecognized arguments: {' '.join(extras)}")
    attributes = {o[2:].replace("-", "_"): values.get(o, d) for o, (_, d, _) in options.items()}
    return types.SimpleNamespace(command=command, **attributes)


def main(argv=None) -> int:
    """Run one command: 0 success, 1 a failed check, 2 a usage or input error.
    A stdout whose reader is gone is an I/O error, under any buffering."""
    command = {"report": cmd_report, "verify": cmd_verify, "experiment": cmd_experiment}
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
            if args.command == "report" and bool(args.model) == bool(args.model_file):
                _usage(None, "report needs exactly one of --model / --model-file")
            return command[args.command](args)
        finally:  # --help and --version end in SystemExit, so flush here
            sys.stdout.flush()
    except (ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # nor may the flush at exit write there
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload inside a fresh program process.

Usage: python3 child.py SPEC.json RESULT.json

SPEC holds the ops (see workloads.py), the output directory, whether to
trace, and where to write the spans; matcon is imported from PYTHONPATH.
The pass imports matcon, optionally installs the tracer, runs the ops in
order on one thread and writes RESULT once at the end: wall time from the
end of import to the last output written, CPU time and peak RSS of this
process, and each op's exit code.  An op's stderr goes to <op id>.stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())

    import matcon
    import matcon.cli
    import workloads

    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install({k: v for k, v in sys.modules.items()
                        if k == "matcon" or k.startswith("matcon.")})

    outdir = Path(spec["outdir"])
    codes = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    for op in spec["ops"]:
        out = outdir / op["out"]
        captured, errors = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
                if op["kind"] == "max_sq_fit":
                    code = workloads.max_sq_fit(op, out)
                else:
                    code = matcon.cli.main(op["program_argv"])
        except Exception:  # one broken op must not hide the others
            code = "exception"
            errors.write(traceback.format_exc())
        if op.get("stdout"):
            out.write_text(captured.getvalue())
        if errors.getvalue():
            (outdir / f"{op['id']}.stderr").write_text(errors.getvalue())
        codes.append(code)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0

    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
    }
    if tracer is not None:
        Path(spec["spans_out"]).write_text(
            json.dumps({"bindings": tracer.bindings, "spans": tracer.spans})
        )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))

"""Write perfbench/baseline.json from saved outputs of full-size runs.

    python3 perfbench/record_baseline.py OUTPUT_FILE...

Each file is the stdout of one ``run.py`` run.  The baseline keeps, per
workload, the median and quartiles of every metric over the runs, the error
rate, and the sha256 of every op output per seed (run.py names a digest that
moved from it).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HEADER = re.compile(r"# matcon benchmark: workload (\S+), seed (\d+), .*trace (\d), size (\w+)")


def main(paths: list[str]) -> int:
    values = defaultdict(lambda: defaultdict(list))
    ops = defaultdict(lambda: [0, 0])
    digests = defaultdict(dict)
    env = None
    for path in paths:
        lines = Path(path).read_text().splitlines()
        workload, seed, trace, size = HEADER.match(lines[0]).groups()
        if size != "full":
            raise SystemExit(f"{path}: not a full-size run")
        env = json.loads(lines[1].removeprefix("env "))
        result = json.loads(lines[-1])
        ops[workload][0] += result["attempted"]
        ops[workload][1] += result["failed"]
        for name, metric in result["metrics"].items():
            values[workload][name].append(metric["value"])
        for line in lines:
            if line.startswith("digest "):
                _, op_id, digest, _ = line.split(" ", 3)
                digests[workload].setdefault(seed, {})[op_id] = digest

    metrics = {}
    for workload, named in values.items():
        metrics[workload] = {}
        for name, vals in named.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            metrics[workload][name] = {"median": med, "q1": q1, "q3": q3, "runs": len(vals)}
    baseline = {
        "env": env,
        "metrics": metrics,
        "error_rate": {w: failed / attempted for w, (attempted, failed) in ops.items()},
        "digests": digests,
    }
    out = Path(__file__).resolve().parent / "baseline.json"
    out.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

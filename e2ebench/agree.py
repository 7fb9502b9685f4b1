#!/usr/bin/env python3
"""Check that two sets of untraced benchmark runs agree within the bounds.

    python3 e2ebench/agree.py RUNS_A/ RUNS_B/

Each set is a directory searched recursively for the run files
(<workload>.json, written by `run.py --out DIR`; give every run its own DIR).
For every workload and end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles and the shift of B's median from A's. It exits
non-zero when a run file lacks a metric, or when the two medians differ by
more than the metric's bound (a share of A's median).
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """{workload: [end_to_end dict per run]} for the untraced run files."""
    runs = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(record, dict):
            continue
        if record.get("schema") != "sdmpeb-e2e/1" or record.get("traced"):
            continue
        runs.setdefault(record["workload"], []).append(
            (path, record["end_to_end"]))
    return runs


def summary(values):
    q1, q2, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                  else values * 3)
    return q2, q1, q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads(SPEC.read_text())
    sets = [load_runs(d) for d in sys.argv[1:]]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(workload in s for s in sets):
            print(f"{workload}: no runs in one of the sets")
            ok = False
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = []
            for s in sets:
                vals = []
                for path, end_to_end in s[workload]:
                    if name not in end_to_end:
                        print(f"{path}: missing {name}")
                        ok = False
                    else:
                        vals.append(end_to_end[name]["value"])
                values.append(vals)
            if not all(values):
                continue
            (ma, a1, a3), (mb, b1, b3) = summary(values[0]), summary(values[1])
            shift = (mb - ma) / ma if ma else float("inf")
            verdict = "ok" if abs(shift) <= metric["bound"] else "DIFFER"
            ok = ok and verdict == "ok"
            print(f"{workload:16} {name:15} A {ma:.6g} [{a1:.6g}, {a3:.6g}] "
                  f"n={len(values[0])}  B {mb:.6g} [{b1:.6g}, {b3:.6g}] "
                  f"n={len(values[1])}  shift {shift:+.2%} "
                  f"(bound {metric['bound']:.0%}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

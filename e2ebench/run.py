#!/usr/bin/env python3
"""Build and run the SDM-PEB end-to-end benchmark (see README.md here).

One workload (the form BENCHMARK.json's command takes):

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1] [--out DIR]

builds the benchmark binary from the checkout's sources (configure once,
then an incremental build into .bench_build/e2e), runs the workload in its
own process, relays one `workload metric value unit` line per metric and
prints the result object as the last line: the end-to-end metrics of
BENCHMARK.json when untraced, its per-layer metrics when traced. A layer the
workload never calls records nothing and reads 0.

Without --workload, runs every workload in turn; with --trace 1 each is also
run traced, and the traced/untraced latency ratio is printed as
trace_overhead. `--smoke` runs every workload briefly in both modes and
checks the metric names against BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "sdmpeb_e2e"
HOOK = Path(__file__).resolve().parent / "sdmpeb_e2e.cmake"
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build the benchmark target incrementally."""
    log = BUILD / "build.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      f"-DCMAKE_PROJECT_sdmpeb_INCLUDE={HOOK}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sdmpeb_e2e",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(f"benchmark build failed ({' '.join(cmd[:2])}); "
                     f"see {log}")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_workload(spec, workload, seed, seconds, trace, out_dir, relay=True):
    """Run one workload; returns the result object with the metric set
    completed in BENCHMARK.json's order, or exits on failure."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0",
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, file=sys.stderr, end="")
        fail(f"{workload}: exited with {proc.returncode}")
    result = json.loads(lines[-1])
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in listed})
    if unknown:
        fail(f"{workload}: metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in listed:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                fail(f"{workload}: missing end-to-end metric {m['name']}")
            got = {"value": 0.0, "unit": m["unit"]}
        elif got["unit"] != m["unit"]:
            fail(f"{workload}: {m['name']} in {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    result["metrics"] = metrics
    if relay:
        for name, m in metrics.items():
            print(f"{workload} {name} {m['value']!r} {m['unit']}")
    return result


def median_latency(out_dir, name, traced):
    path = Path(out_dir) / f"{name}{'.traced' if traced else ''}.json"
    with open(path) as f:
        return json.load(f)["info"]["latency.p50_ms"]


def run_all(spec, args, out_dir):
    latency = {}
    for w in spec["workloads"]:
        name = w["name"]
        run_workload(spec, name, args.seed, args.seconds, False, out_dir)
        latency[name] = median_latency(out_dir, name, False)
        if args.trace:
            run_workload(spec, name, args.seed, args.seconds, True, out_dir)
            traced = median_latency(out_dir, name, True)
            print(f"{name} trace_overhead {traced / latency[name] - 1.0!r} "
                  "ratio")
    if "rigorous_solve" in latency and "surrogate_infer" in latency:
        # The paper's 138x figure on the host that ran this (derived, not
        # gated): the ratio of the two median per-clip latencies.
        ratio = latency["rigorous_solve"] / latency["surrogate_infer"]
        print(f"derived rigorous_over_surrogate {ratio!r} ratio")


def smoke(spec, args, out_dir):
    for w in spec["workloads"]:
        for trace in (False, True):
            start = time.monotonic()
            result = run_workload(spec, w["name"], args.seed, 2.0, trace,
                                  out_dir, relay=False)
            if not result["correct"] or result["attempted"] < 1:
                fail(f"{w['name']}: smoke result {result}")
            print(f"smoke {w['name']} trace={int(trace)} ok "
                  f"({time.monotonic() - start:.1f} s)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(ROOT / "bench_out" / "e2e"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.smoke:
        smoke(spec, args, args.out)
    elif args.workload:
        result = run_workload(spec, args.workload, args.seed, args.seconds,
                              bool(args.trace), args.out)
        print(json.dumps(result))
    else:
        run_all(spec, args, args.out)


if __name__ == "__main__":
    main()

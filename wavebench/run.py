#!/usr/bin/env python3
"""Builds the wavemig benchmark from the checkout it sits in and runs it.

    python3 wavebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The library and the benchmark are built
with CMake into .bench_build/ (incrementally, so only the first run pays
for the build); build output goes to stderr. The benchmark's standard
output is passed through, except its last line: the metric values by name,
which are checked against BENCHMARK.json (the one list of metric names and
units) and printed as the JSON result line with their units.
"""

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "include", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found next to {os.path.basename(BENCH_DIR)}/: "
                 "run from a full wavemig checkout")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wavebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "wavebench")


def result_line(raw, trace):
    """The result line for the binary's last line `raw`. Untraced runs must
    report every end-to-end metric as a positive number; a traced run
    reports 0 for a per-layer metric its workload does not touch."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    values = raw["values"]
    undeclared = sorted(set(values) - {m["name"] for m in declared})
    if undeclared:
        fail(f"metrics not declared in BENCHMARK.json: {undeclared}")
    metrics = {}
    for m in declared:
        value = values.get(m["name"])
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        if not trace and not (finite and value > 0):
            fail(f"end-to-end metric {m['name']} is missing or not positive: {value}")
        metrics[m["name"]] = {"value": value if finite else 0.0, "unit": m["unit"]}
    return {"correct": raw["correct"], "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-file", os.path.join(
            BUILD_DIR, f"trace-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode not in (0, 1):  # 1 is a run with wrong outputs
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")

    result = result_line(json.loads(lines[-1]), args.trace)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
uvmsim library and the benchmark driver (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr. The driver's report goes to stdout, and its last line is the
result object. Before passing that line on, this script checks that its
metric names and units are exactly the ones BENCHMARK.json declares for the
mode (end_to_end for --trace 0, per_layer for --trace 1).

Exits non-zero, without a result, when the sources or the toolchain are
missing, the build fails, or the driver fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("src/CMakeLists.txt", "include/uvmsim/uvmsim.hpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die(f"uvmsim sources not found ({need} is missing under {ROOT})")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            die(f"cannot run {cmd[0]}: {e}")
        if rc != 0:
            die(f"build step failed (rc={rc}): {' '.join(cmd)}")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0x5EED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs (self-check only)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        die(f"benchmark failed (rc={proc.returncode})")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("benchmark printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(args.trace)
    if got != want:
        die("metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, undeclared {sorted(set(got) - set(want))}, "
            f"unit mismatch {sorted(n for n in set(got) & set(want) if got[n] != want[n])}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(lines[-1])


if __name__ == "__main__":
    main()

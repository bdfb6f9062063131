#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is well formed, then runs every workload at smoke
size in both modes through run.py. run.py itself refuses a result whose
metric names or units differ from BENCHMARK.json; this script additionally
requires every smoke run to pass the correctness gate (correct, no failed
operation). Exits non-zero on the first problem. Takes about a minute.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def check_spec(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, f"BENCHMARK.json keys: {sorted(spec)}"
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), "a name breaks the naming rule"
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bound outside (0, 0.25]"
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]), \
        "setup_s must carry the largest bound"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.exit(f"selfcheck: {w['name']} trace={trace}: run.py failed "
                         f"(rc={proc.returncode})")
            result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"selfcheck: {w['name']} trace={trace}: correctness gate failed:\n"
                         + proc.stdout)
            print(f"ok  {w['name']:14s} trace={trace}  {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")
    print("selfcheck: all smoke runs pass")


if __name__ == "__main__":
    main()

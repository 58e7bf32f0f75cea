#!/usr/bin/env python3
"""Smoke check of the benchmark harness: every workload at its smallest
size, untraced and traced, in well under a minute.

    python3 bench/smoke.py

Checks that each run exits 0, that its last line is the result object with
exactly the metrics BENCHMARK.json names, that every output was correct and
that the failed share is the one the workload's known faults give.  Also
checks that the command fails, without a result, in a directory that holds
only BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# failed operations per attempted ones at tiny size: one t=7 lower
# certificate of 7 operations, one refuted exponent of 3, none
FAILED_SHARE = {"certificates": (1, 7), "hom-profiles": (1, 3), "walk-sweep": (0, 1)}


def run(cwd, workload, trace):
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    command = spec["command"] + ["--workload", workload, "--seed", "3", "--seconds", "0.1",
                                 "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            share = FAILED_SHARE[workload]
            checks = [
                (set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys"),
                (result["correct"] is True, f"incorrect outputs: {proc.stderr.strip()[-500:]}"),
                (got == expected, f"metrics {sorted(set(got) ^ set(expected))} differ"),
                (result["failed"] * share[1] == result["attempted"] * share[0],
                 f"{result['failed']} of {result['attempted']} failed"),
                (all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                 "a metric value is not a number"),
            ]
            problems += [f"{label}: {what}" for ok, what in checks if not ok]
            print(f"{label}: {result['attempted']} attempted, {result['failed']} failed", flush=True)

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run(bare, "walk-sweep", 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("the command ran without the program's sources")
    else:
        print(f"without sources: exit {proc.returncode}, no result")
    shutil.rmtree(bare)

    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

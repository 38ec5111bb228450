#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny self-test size.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Checks that:
  - every workload, untraced and traced, passes its answer checks and
    prints exactly the metrics BENCHMARK.json names, with their units;
  - a deliberately corrupted answer is counted as failed and makes the
    command exit nonzero;
  - a stray SQLOOP_BENCH_* variable makes the command refuse to run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SPEC = json.loads(Path("BENCHMARK.json").read_text())


def run(workload, trace, extra=(), env=None):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny", *extra]
    completed = subprocess.run(command, capture_output=True, text=True,
                               env=env, timeout=900)
    lines = completed.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return completed, result


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest: FAIL: {message}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            completed, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            expect(completed.returncode == 0,
                   f"{label} exited {completed.returncode}:\n"
                   f"{completed.stderr[-2000:]}")
            expect(result is not None, f"{label} printed no result line")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{label} result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label} answers")
            wanted = {m["name"]: m["unit"] for m in SPEC[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == wanted,
                   f"{label} metrics differ: printed {sorted(printed)}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label} non-numeric metric value")
            print(f"selftest: ok {label} ({result['attempted']} jobs)")

    completed, result = run("pagerank-sync", 0, ("--corrupt-every", "2"))
    expect(completed.returncode != 0, "corrupted answers exited 0")
    expect(result is not None and result["correct"] is False
           and result["failed"] >= 1,
           f"corrupted answers not counted as failed: {result}")
    print(f"selftest: ok corrupted answers counted "
          f"({result['failed']} of {result['attempted']} failed)")

    env = dict(os.environ, SQLOOP_BENCH_NO_FUSED="1")
    completed, result = run("pagerank-sync", 0, env=env)
    expect(completed.returncode != 0 and result is None,
           "a SQLOOP_BENCH_* variable did not stop the run")
    print("selftest: ok SQLOOP_BENCH_* variables refused")
    print("selftest: PASS")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the SQLoop end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds `sqloop_perfbench` (the SQLoop libraries plus the benchmark program
in this directory) under `.bench_build/`; later runs only re-check the
build. The program's last stdout line is the JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SOURCE_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "sqloop_perfbench"
# Spill files of the bounded buffer pool land in TMPDIR; keep them inside
# the checkout.
TMP_DIR = BUILD_ROOT / "tmp"
TRACE_DIR = BUILD_ROOT / "traces"
WORKLOADS = ("pagerank-sync", "sssp-async", "service-mix", "pagerank-spill")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny is the self-test size")
    parser.add_argument("--corrupt-every", type=int, default=0,
                        help="self-test: corrupt every k-th answer")
    return parser.parse_args(argv)


def build():
    """Configures once, then builds; build output goes to stderr so the
    result stays the last line of stdout."""
    if not (SOURCE_DIR / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: {SOURCE_DIR} not found; run from the checkout root")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SOURCE_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "sqloop_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def main(argv):
    args = parse_args(argv)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")

    TMP_DIR.mkdir(parents=True, exist_ok=True)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--scale", args.scale,
               "--corrupt-every", str(args.corrupt_every)]
    if args.trace == "1":
        command += ["--trace-out",
                    str(TRACE_DIR / f"{args.workload}.jsonl")]
    env = dict(os.environ, TMPDIR=str(TMP_DIR))
    try:
        completed = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s")
    return completed.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

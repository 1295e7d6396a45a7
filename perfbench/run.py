#!/usr/bin/env python3
"""Builds the SEDA benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload explore_warm --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The Release build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused by
later runs; snapshot images and span dumps go to .bench_build/run. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. The exit code is the benchmark's: non-zero when the build fails or an
answer check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "seda_perfbench", "perfbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(os.getcwd(), build_root)
    build_dir = os.path.join(build_root, "perfbench")
    work_dir = os.path.join(build_root, "run")
    if not build(build_dir):
        return 1
    os.makedirs(work_dir, exist_ok=True)

    if args.selftest:
        command = [os.path.join(build_dir, "perfbench_selftest"), work_dir]
    else:
        command = [os.path.join(build_dir, "seda_perfbench"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--workdir", work_dir]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

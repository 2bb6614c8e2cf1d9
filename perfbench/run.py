#!/usr/bin/env python3
"""Builds the benchmark program from this checkout and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The library and benchmark program are built with CMake into `.bench_build/` at the
checkout root (configured once, rebuilt incrementally on every call).
The program's standard output is passed through; its last line is the
result JSON. Exits non-zero, printing no result, when the checkout has
no sources to build, the build fails, or the program fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 600
# Room beyond the timed loop for input generation, three set-ups and the
# output checks, while staying far inside the time a run is given.
RUN_SLACK_S = 100


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"perfbench: no {needed} at {ROOT}; nothing to build",
                  file=sys.stderr)
            sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "perfbench", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail(f"build step timed out: {' '.join(step)}")
            if done.returncode != 0:
                sys.stderr.write(done.stdout.decode(errors="replace"))
                fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()

    # The workloads fix every knob themselves; ambient SBRL_* overrides
    # (threads, ISA, precision, recovery, ...) would change what runs.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SBRL_")}
    scratch = os.path.join(BUILD_DIR, "scratch")
    os.makedirs(scratch, exist_ok=True)
    command = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch-dir", scratch]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, check=False,
                              timeout=2 * args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program timed out")
    output = done.stdout.decode(errors="replace")
    if done.returncode != 0:
        sys.stderr.write(output)
        fail(f"benchmark program exited with code {done.returncode}")
    lines = output.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(output)
        fail("benchmark program printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys")
    sys.stdout.write(output if output.endswith("\n") else output + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one workload of the tsched benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload wire-hot|wire-miss|offline \
        [--seed N] [--seconds S] [--trace 0|1] [--tiny 0|1]

Run from the repository root.  The first call configures and builds
perfbench/CMakeLists.txt (the tsched library plus the tsched_perfbench
binary) in .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr.  The binary's stdout is passed through; its
last line is the JSON result.  The exit code is non-zero when the build
fails, the run fails a correctness check, times out, or prints no result.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tsched_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build the binary; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tsched_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main(argv):
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run([BINARY] + argv, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    out = proc.stdout.decode("utf-8", errors="replace")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not True:
        print("run.py: the last output line is not a correct JSON result", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

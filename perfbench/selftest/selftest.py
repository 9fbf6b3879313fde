#!/usr/bin/env python3
"""Self-test of the tsched benchmark.

    python3 perfbench/selftest/selftest.py

Run from the repository root.  Checks that BENCHMARK.json is well formed and
that every metric name matches [A-Za-z0-9_.-]+, then runs a tiny-size pass
of each workload through perfbench/run.py, untraced and traced, and checks
that each pass exits 0, passes its correctness checks, and prints as its
last line a JSON result holding exactly the metrics BENCHMARK.json names,
with their units.  Finally it checks that a
workload's inputs are a function of the seed: the offline slr_mean repeats
for one seed and moves with it.
Exits non-zero on the first failure.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(os.path.dirname(HERE), "run.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ["wire-hot", "wire-miss", "offline"]  # the workloads BENCHMARK.json lists


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if names != WORKLOADS:
        fail(f"workloads are {names}, expected {WORKLOADS}")
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if not NAME.fullmatch(metric["name"]):
                fail(f"metric name {metric['name']!r} does not match {NAME.pattern}")
    return spec


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} trace={trace}: last line is not JSON")


def check(result, expected, where):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{where}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{where}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
             f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            fail(f"{where}: metric name {name!r} does not match {NAME.pattern}")
        if m.get("unit") != expected[name]:
            fail(f"{where}: {name} unit {m.get('unit')!r}, expected {expected[name]!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{where}: {name} value {value!r} is not a finite number")


def main():
    spec = load_spec()
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            check(run(workload, 3, trace), groups[trace], f"{workload} trace={trace}")
            print(f"selftest: {workload} trace={trace} ok", flush=True)
    slr = [run("offline", seed, 0)["metrics"]["slr_mean"]["value"] for seed in (3, 3, 4)]
    if slr[0] != slr[1] or slr[0] == slr[2]:
        fail(f"offline slr_mean is not a function of the seed: {slr}")
    print("selftest: seed determinism ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()

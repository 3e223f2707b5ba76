#!/usr/bin/env python3
"""Builds the GNNIE benchmark program from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 3 --seconds 15 --trace 0

The program is built (CMake, Release) into .bench_build/ at the checkout root
on first use and rebuilt incrementally afterwards; build output goes to
stderr. The program's report is relayed to stdout, and the last line is its
JSON result, checked here against BENCHMARK.json: with --trace 0 it carries
every end_to_end metric, with --trace 1 every per_layer metric. A traced run
also writes a Chrome trace-event file under .bench_build/traces/ and checks
that it parses. Any failure exits non-zero without printing a result.

--tiny runs the workload on tiny inputs (the benchmark's own smoke tests).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper-sweep", "cache-policies", "serve-mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run_child(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout the whole group is
    killed and reaped, so no compiler or benchmark process outlives this one."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "serving.hpp")):
        fail("no GNNIE sources next to perfbench/: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        returncode, _ = run_child(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON ({e})")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        if got[name].get("unit") != unit or not isinstance(got[name].get("value"), (int, float)):
            fail(f"metric {name}: {got[name]} (want unit {unit})")
    if result["attempted"] < 1:
        fail("no operation attempted")


def check_trace(path):
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"trace file {path} is not Chrome trace-event JSON ({e})")
    for e in events:
        if e.get("ph") != "X" or not all(k in e for k in ("name", "ts", "dur", "pid", "tid")):
            fail(f"malformed trace event {e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    build()
    trace = args.trace == "1"
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_path = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
        cmd += ["--trace-out", trace_path]
    if args.tiny:
        cmd.append("--tiny")
    returncode, out = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if returncode != 0:
        sys.stderr.write(out)
        fail(f"perfbench exited with code {returncode}")
    lines = out.rstrip("\n").split("\n")
    check_result(lines[-1], trace)
    if trace:
        check_trace(trace_path)
        lines.insert(-1, f"trace file: {os.path.relpath(trace_path, ROOT)}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()

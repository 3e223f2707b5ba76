#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, on tiny inputs (about a minute).

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it checks that an untraced and a traced run succeed with
no failed operation, that every metric is finite and every end-to-end metric
positive, that the trace file holds properly nested spans, that the same
seed reproduces every modeled number, and that another seed changes the
inputs. The runs use the held-out seed, which no tuning of the benchmark
used, so every metric is shown to be defined on it.
"""
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-sweep", "cache-policies", "serve-mix")
HELD_OUT_SEED = 90210
# Per-layer metrics measured in host time; everything else is modeled or a
# count fixed by the seed, and must repeat exactly.
HOST_UNITS = ("s", "1/s")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def check_run(result, label):
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0, f"{label}: {result['failed']} failed"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    for name, v in values(result).items():
        assert math.isfinite(v), f"{label}: {name} = {v}"


def check_trace(path):
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert events, "empty trace"
    by_id = {e["args"]["id"]: e for e in events}
    for e in events:
        parent = e["args"]["parent"]
        if parent == -1:
            continue
        p = by_id[parent]
        assert p["ts"] <= e["ts"] + 1e-3, f"{e['name']} starts before its parent"
        assert e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 1e-3, f"{e['name']} outlives its parent"
        assert e["args"]["group"], f"{e['name']} has no group id"


def modeled(result, bench):
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return {k: v for k, v in values(result).items() if units[k] not in HOST_UNITS}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    nonzero = set()
    for workload in WORKLOADS:
        plain = run(workload, HELD_OUT_SEED, 0)
        check_run(plain, f"{workload} untraced")
        for name, v in values(plain).items():
            assert v > 0, f"{workload}: end-to-end {name} = {v}"

        traced = run(workload, HELD_OUT_SEED, 1)
        check_run(traced, f"{workload} traced")
        check_trace(os.path.join(ROOT, ".bench_build", "traces",
                                 f"{workload}-seed{HELD_OUT_SEED}.json"))
        nonzero |= {k for k, v in values(traced).items() if v != 0}

        again = run(workload, HELD_OUT_SEED, 1)
        assert modeled(again, bench) == modeled(traced, bench), f"{workload}: not repeatable"
        other = run(workload, HELD_OUT_SEED + 1, 0)
        check_run(other, f"{workload} other seed")
        assert (values(other)["modeled_ms_geomean"] != values(plain)["modeled_ms_geomean"]), \
            f"{workload}: the seed does not reach the inputs"
        print(f"ok  {workload}")

    silent = [m["name"] for m in bench["per_layer"] if m["name"] not in nonzero]
    assert not silent, f"per-layer metrics zero on every workload: {silent}"
    print("ok  every per-layer metric measured on some workload")


if __name__ == "__main__":
    main()

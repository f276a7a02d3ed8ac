#!/usr/bin/env python3
"""Self-test of the benchmark: a short run of every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout. For each workload in BENCHMARK.json it
checks that a short untraced run prints every end-to-end metric with its
declared unit, that a short traced run prints every per-layer metric with
its declared unit, and that a run whose expected answers were deliberately
corrupted fails: non-zero exit and no result line. Exits non-zero on the
first failed check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
SECONDS = "1"


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", SECONDS, "--trace", str(trace)]
    if corrupt:
        cmd.append("--corrupt-expected")
    return subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)


def check_metrics(workload, trace, declared):
    proc = run(workload, trace)
    if proc.returncode != 0:
        return f"{workload} trace={trace}: exit {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return f"{workload}: result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"{workload}: correct={result['correct']} " \
               f"attempted={result['attempted']}"
    printed = result["metrics"]
    if set(printed) != set(declared):
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        return f"{workload} trace={trace}: missing {missing}, extra {extra}"
    for name, unit in declared.items():
        got = printed[name]
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            return f"{workload}: {name} printed as {got}, declared {unit}"
    return None


def check_corruption(workload):
    proc = run(workload, 0, corrupt=True)
    if proc.returncode == 0:
        return f"{workload}: a corrupted expected answer went unnoticed"
    if any(line.startswith("{") for line in proc.stdout.splitlines()):
        return f"{workload}: failed run still printed a result line"
    return None


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for error in (check_metrics(name, 0, end_to_end),
                      check_metrics(name, 1, per_layer),
                      check_corruption(name)):
            if error:
                print("selftest FAILED:", error)
                return 1
        print(f"selftest: {name} ok")
    print("selftest: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

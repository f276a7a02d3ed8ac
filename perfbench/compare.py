#!/usr/bin/env python3
"""Compares the benchmark on a parent and a change, workload by workload.

    python3 perfbench/compare.py --parent ../parent --change . --pairs 10

Each side is a checkout of its own. Pair i runs both sides on seed 1000 + i
with the run length from BENCHMARK.json, on every workload it names, and
alternates which side runs first. For every end-to-end metric the verdict
follows the benchmark's rules:

  better      the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound, or the change failed more ops than the
              parent (then no metric of the workload counts as better);
  unresolved  a side's spread (IQR over median) exceeds the bound and the
              change's runs do not all beat the parent's; also whenever
              fewer than 10 pairs were run;
  same        otherwise.

One row is printed per workload. The exit code is 1 when any metric
regressed, else 0.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9
FIRST_SEED = 1000


def run_side(checkout, workload, seed, seconds):
    """One untraced run; returns (metric values, failed ops)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} gave wrong "
                         "answers")
    return ({k: v["value"] for k, v in result["metrics"].items()},
            result["failed"])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else math.inf, q3 - q1


def verdict(metric, parent, change, more_failed):
    lower = metric["better"] == "lower"
    n = min(len(parent), len(change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_spread, p_iqr = spread(parent)
    c_spread, _ = spread(change)
    gap = c_med - p_med if lower else p_med - c_med  # > 0: change worse
    worse = gap / abs(p_med) if p_med else 0.0
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if more_failed:
        word = "regressed"
    elif n >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * n) and \
            -gap > p_iqr:
        word = "better"
    elif n < MIN_PAIRS or (max(p_spread, c_spread) > metric["bound"]
                           and not all_better):
        word = "unresolved"
    elif worse > metric["bound"]:
        word = "regressed"
    else:
        word = "same"
    return word, worse, wins, n


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    args = parser.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)

    regressed = False
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"parent": [], "change": []}
        failed = {"parent": 0, "change": 0}
        for i in range(args.pairs):
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2 == 1:
                sides.reverse()
            for side, checkout in sides:
                metrics, side_failed = run_side(checkout, workload,
                                                FIRST_SEED + i,
                                                bench["run_seconds"])
                runs[side].append(metrics)
                failed[side] += side_failed
                print(f"pair {i} {workload} {side} done", file=sys.stderr)
        more_failed = failed["change"] > failed["parent"]
        cells = [f"failed={failed['parent']}->{failed['change']}"]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [m[name] for m in runs["parent"]]
            change = [m[name] for m in runs["change"]]
            if len(parent) < 2:
                cells.append(f"{name}=unresolved")
                continue
            word, worse, wins, n = verdict(metric, parent, change,
                                           more_failed)
            regressed |= word == "regressed"
            cells.append(f"{name}={word}({-worse:+.1%},{wins}/{n} wins)")
        print(f"{workload:12s} " + "  ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

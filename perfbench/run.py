#!/usr/bin/env python3
"""Builds the Zidian benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <point_hot|olap_scan|serve_mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout; traced runs write their spans to
<build>/traces. Build logs and progress go to stderr; stdout carries the
metrics and, as its last line, one JSON result object. Any failed build,
run or answer check exits non-zero without a result line.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point_hot", "olap_scan", "serve_mixed")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    """Configures (once) and builds zbench; returns its path or None."""
    binary_dir = os.path.join(out, "perfbench")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", binary_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(binary_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", binary_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(binary_dir, "zbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-test: corrupt one expected answer")
    args = parser.parse_args()

    out = build_dir()
    zbench = build(out)
    if zbench is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [zbench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        # Keep the metrics for a reader, but never a result line.
        lines = [l for l in run.stdout.splitlines() if not l.startswith("{")]
        sys.stderr.write("\n".join(lines) + "\n")
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())

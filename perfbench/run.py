#!/usr/bin/env python3
"""Build and run the MichiCAN benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library from src/ plus
the `perfbench` driver) into .bench_build/perfbench; later calls only
re-check the build.  The driver's stdout is passed through; its last line is
the JSON result.  Build output goes to stderr.  The run fails (non-zero exit,
no result line) when the sources are missing, the build fails, the driver
fails, or the metrics it prints differ from BENCHMARK.json.

--self-test checks that the output checks count a forced mismatch: each
workload is run briefly with the driver's --force-mismatch and must report
correct=false with fail_frac > 0, and once without it with no failures.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("table2-defended", "open-bus", "cache-replay", "fsm-study")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no MichiCAN sources under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Run the driver once; returns (stdout lines, parsed result)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(BUILD / "work"), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    names = list(result["metrics"])
    want = expected_metrics(trace)
    if names != want:
        raise RuntimeError(f"driver metrics {names} != BENCHMARK.json {want}")
    return lines, result


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        _, clean = run_driver(binary, workload, 1, 0.5, 0)
        _, forced = run_driver(binary, workload, 1, 0.5, 0,
                               ["--force-mismatch"])
        fail_frac = forced["failed"] / forced["attempted"]
        passed = (clean["correct"] and clean["failed"] == 0
                  and not forced["correct"] and fail_frac > 0)
        ok = ok and passed
        print(f"self-test {workload}: clean failed={clean['failed']}, "
              f"forced fail_frac={fail_frac:.4f} "
              f"-> {'ok' if passed else 'FAILED'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    try:
        binary = build()
        if args.self_test:
            return 0 if self_test(binary) else 1
        lines, _ = run_driver(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as exc:
        log(f"error: {exc}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The benchmark binary and the plumber library are built into
.bench_build/ at the root of the checkout (CMake, Release); later runs
rebuild incrementally.
The binary's last stdout line is the run's JSON result. With --trace 1
its spans are written to .bench_build/traces/<workload>.json as Chrome
trace-event JSON. Exits non-zero without a result when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# A run must end within 180 s; the binary itself stops well before.
RUN_TIMEOUT_S = 170


def build(target):
    """Configures (once) and builds `target`; exits 2 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    # Concurrent runs in one checkout share the build directory.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            configured = any(os.path.exists(os.path.join(BUILD, f))
                             for f in ("build.ninja", "Makefile"))
            if not configured:
                configure = ["cmake", "-S", HERE, "-B", BUILD,
                             "-DCMAKE_BUILD_TYPE=Release"]
                if shutil.which("ninja"):
                    configure += ["-G", "Ninja"]
                steps.append(configure)
            jobs = str(min(4, os.cpu_count() or 1))
            steps.append(["cmake", "--build", BUILD, "--target", target,
                          "-j", jobs])
            for step in steps:
                if subprocess.call(step, stdout=log, stderr=log) != 0:
                    log.flush()
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-30:]))
                    sys.stderr.write("perfbench: build failed: %s\n"
                                     % " ".join(step))
                    sys.exit(2)
    return os.path.join(BUILD, target)


def run(cmd):
    """Runs `cmd`, passing its output through; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


def benchmark_metrics():
    """(kind, name, unit) of every metric BENCHMARK.json declares."""
    import json
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return sorted((kind, m["name"], m["unit"])
                  for kind in ("end_to_end", "per_layer")
                  for m in spec[kind])


def self_test():
    """Runs the helper tests and checks BENCHMARK.json against the binary."""
    status = run([build("perfbench_selftest")])
    listed = subprocess.run([build("perfbench"), "--list-metrics"],
                            check=True, capture_output=True, text=True)
    listed_metrics = sorted(tuple(line.split())
                            for line in listed.stdout.splitlines())
    if listed_metrics != benchmark_metrics():
        sys.stderr.write("perfbench: BENCHMARK.json metrics differ from "
                         "the binary's:\n  json:   %s\n  binary: %s\n"
                         % (benchmark_metrics(), listed_metrics))
        status = status or 1
    print("self-test %s" % ("passed" if status == 0 else "FAILED"))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())

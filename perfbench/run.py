#!/usr/bin/env python3
"""Build and run one workload of the LOTS benchmark.

    python3 perfbench/run.py --workload kv_zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run it from the root of a source tree. It configures and builds
perfbench/CMakeLists.txt (the library from src/ with optimisation on,
plus the benchmark programs) into .bench_build/perfbench, runs the
workload there, and passes the program's standard output through: its
last line is the result object. Disk stores and per-rank files go to
.bench_build/run and are removed afterwards; a traced run leaves its
spans in .bench_build/trace.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("kv_zipf", "kv_uniform", "rx_udp", "largespace")
RUN_TIMEOUT_S = 150  # a run that outlives this is a hang


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "api.hpp")):
        fail(f"no LOTS sources under {ROOT}/src; run from the root of a source tree")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    """Runs cmd in its own process group; kills the whole group on a hang."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {RUN_TIMEOUT_S} s", 3)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every output check fails on corrupted output")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")

    build()
    if args.self_test:
        sys.exit(run([os.path.join(BUILD, "lots_perfbench_selftest")]))

    run_dir = os.path.join(ROOT, ".bench_build", "run", f"{args.workload}-{os.getpid()}")
    trace_dir = os.path.join(ROOT, ".bench_build", "trace")
    os.makedirs(run_dir)
    try:
        code = run([os.path.join(BUILD, "lots_perfbench"),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--run-dir", run_dir, "--trace-dir", trace_dir])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

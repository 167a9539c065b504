#!/usr/bin/env python3
"""Builds and runs the fnc2d wire benchmark.

Run from the root of a checkout:

    python3 wirebench/run.py --workload evaluate-small --seed 1 \
        --seconds 24 --trace 0
    python3 wirebench/run.py --self-test

The first call configures and builds the benchmark (the fnc2cpp libraries
plus wirebench/*.cpp) under .bench_build/wirebench; later calls rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the benchmark's result object. Temporary files of the run (the native
backend's compiler scratch) stay under .bench_build.

An end-to-end run (--trace 0) measures the workload in PROCESSES fresh
processes of --seconds / PROCESSES each and reports, per metric, the median
of their values. The daemon's speed differs from one process to the next
(thread placement and allocator state are settled per process), so one
process per run let that luck decide the figures.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "wirebench")
BINARY = os.path.join(BUILD_DIR, "wirebench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
PROCESSES = 3


def run(cmd, timeout, env=None, stdout=None):
    """Runs cmd in its own process group; kills the whole group and waits
    for it on timeout. Returns (exit code, captured stdout or None); the
    code is -1 on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("wirebench: %s timed out after %ds" % (cmd[0], timeout),
              file=sys.stderr)
        return -1, None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("wirebench: no fnc2cpp sources next to %s" % HERE,
              file=sys.stderr)
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code, _ = run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                      BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            return False
    code, _ = run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                  BUILD_TIMEOUT_S, stdout=sys.stderr)
    return code == 0


def option(args, name):
    """The value following --name in args, or None."""
    flag = "--" + name
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def combine(results):
    """One result object from several processes' results: correctness and
    counts summed, every metric the median over the processes."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    if not build():
        print("wirebench: build failed", file=sys.stderr)
        return 1
    tmp = os.path.join(BUILD_ROOT, "tmp")
    scratch = os.path.join(BUILD_ROOT, "wirebench-scratch")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    args = sys.argv[1:]
    tail = ["--scratch", scratch]
    sys.stdout.flush()

    seconds = option(args, "seconds")
    if option(args, "trace") != "0" or seconds is None:
        code, _ = run([BINARY] + args + tail, RUN_TIMEOUT_S, env=env)
        return code

    args = list(args)
    args[args.index("--seconds") + 1] = repr(float(seconds) / PROCESSES)
    results = []
    for _ in range(PROCESSES):
        code, out = run([BINARY] + args + tail, RUN_TIMEOUT_S // PROCESSES,
                        env=env, stdout=subprocess.PIPE)
        lines = (out or "").strip().splitlines()
        if code != 0 or not lines:
            return code if code > 0 else 1
        print("\n".join(lines[:-1]))
        results.append(json.loads(lines[-1]))
    print(json.dumps(combine(results)))
    return 0

if __name__ == "__main__":
    code = main()
    sys.exit(code if code >= 0 else 1)

#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ against ../src and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <zipf_hot|uniform_lifecycle|overload_chaos>
                             --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench_driver under .bench_build/
(or $CARGO_TARGET_DIR when set); later runs reuse the build. The driver's
output is passed through: the end-to-end table, with --trace 1 the
per-layer table and self times, the simulated-state digest, and as the last
line one JSON object {"correct", "attempted", "failed", "metrics"}. Exits
nonzero, printing no JSON line, when the build fails, the sources are
missing, or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("zipf_hot", "uniform_lifecycle", "overload_chaos")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))
    except OSError as e:
        fail("cannot run %s: %s" % (cmd[0], e))
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no o1mem sources next to perfbench/ (expected %s/src)" % ROOT)
    driver = os.path.join(build_dir, "perfbench_driver")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        result = run(step, BUILD_TIMEOUT_S)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
            fail("build step failed: " + " ".join(step))
    if not os.access(driver, os.X_OK):
        fail("build produced no driver at " + driver)
    return driver


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    driver = build(build_dir)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, "spans-%s-%d.tsv" % (args.workload, args.seed))]
    result = run(cmd, RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        fail("%s exited with %d" % (args.workload, result.returncode))
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no result line")
    if summary.get("correct") is not True or summary.get("failed") != 0:
        fail("driver reported an incorrect run")
    print("\n".join(lines))


if __name__ == "__main__":
    main()

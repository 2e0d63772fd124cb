#!/usr/bin/env python3
"""Builds the exploration benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of the checkout. The program and the benchmark are built
with CMake (Release) under $CARGO_TARGET_DIR (default .bench_build); a traced
run (--trace 1) also writes a Chrome trace to <build dir>/traces/. The last
line of standard output is the result as one JSON object.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir, target):
    if not os.path.isfile(os.path.join(TREE, "src", "server", "server.h")):
        fail("no ExploreDB source tree next to " + HERE)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, target)


def main(argv):
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")

    if argv == ["--self-test"]:
        return subprocess.run([build(build_dir, "perfbench_test")]).returncode

    args = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or not {"--workload", "--seed", "--seconds", "--trace"} <= args.keys():
        fail("usage: run.py --workload W --seed N --seconds S --trace 0|1 "
             "[--rows N] | --self-test", 2)
    binary = build(build_dir, "explore_bench")
    cmd = [binary] + argv
    if args["--trace"] == "1" and "--trace-out" not in args:
        traces = os.path.join(root, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (args["--workload"], args["--seed"])
        cmd += ["--trace-out", os.path.join(traces, name)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

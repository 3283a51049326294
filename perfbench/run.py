#!/usr/bin/env python3
"""Builds and runs the COYOTE end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the top of the repository. The first run configures and builds
the library and the benchmark program (perfbench/CMakeLists.txt) under
.bench_build/; later runs only rebuild what changed. The report goes to stdout,
its last line being the JSON result; build output goes to stderr. A traced
run also writes its spans to .bench_build/traces/<workload>-<seed>.json.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD, "coyote_perfbench")
REFERENCE = os.path.join(HERE, "reference.json")


def build():
    jobs = str(min(len(os.sched_getaffinity(0)), 4))
    steps = [
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "coyote_perfbench"],
    ]
    # Once configured, the build step re-runs CMake itself when needed.
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--reference", REFERENCE]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(TRACES, f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()

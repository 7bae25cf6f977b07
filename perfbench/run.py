#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload fig9_5k --seed 1 --seconds 30 --trace 0

The harness (main.cc) and the repository's src/ libraries are compiled
into .bench_build/perfbench at the checkout root; later runs only check
that the build is current. Build output goes to stderr, so the last line
of stdout is the harness's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig9_5k", "sort_failover")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    generated = ("build.ninja", "Makefile")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "fuxi_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "fuxi_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    # The harness replaces this process, so a signal sent to the run
    # reaches it directly and no child outlives the run.
    sys.stdout.flush()
    os.execv(binary, [binary, "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--out", BUILD_DIR])


if __name__ == "__main__":
    sys.exit(main())

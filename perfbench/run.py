#!/usr/bin/env python3
"""Build and run the ShamFinder end-to-end benchmark.

    python3 perfbench/run.py --workload zone_scan|paper_join|serve_open \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
perfbench/ (its own CMake project over ../src, Release) into
.bench_build/perfbench; later calls rebuild only what changed. Build
output goes to stderr, so the last line on stdout is the benchmark's JSON
result. The exit code is the benchmark's: 0 only when every output check
passed; 2 when the build or the run itself failed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("zone_scan", "paper_join", "serve_open")


def build():
    """Configure once, then build incrementally; True on success."""
    # The generator's build file appears only once configuring succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

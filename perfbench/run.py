#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload point-read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The build goes through dune into
_build/; its output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Exits non-zero without a result when the
build or the run fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = os.path.join("perfbench", "main.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", TARGET],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(ROOT, "_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

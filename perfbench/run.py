#!/usr/bin/env python3
"""Build the view-maintenance benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grow --seed 1 --seconds 10 --trace 0

The arguments are passed to perfbench/main.exe unchanged (see main.ml and
LEDGER.md). The build goes to .bench_build with the dune cache off, so
the benchmark reads and writes only inside the checkout. The exit code is
non-zero when the build fails, when any run fails its correctness gate,
or when the traced replay diverges from the run it replays.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", TARGET],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/bench.exe from source with
dune (release profile, build directory .bench_build), then replaces this
process with it, with the same arguments: its standard output, whose last
line is the JSON result, and its exit code are the run's. A build failure
exits non-zero without printing a result.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 700


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2

    # Keep the build's temporary and cache files inside the checkout.
    build_root = os.path.abspath(BUILD_DIR)
    os.makedirs(os.path.join(build_root, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled",
               DUNE_CACHE_ROOT=os.path.join(build_root, "dune-cache"),
               XDG_CACHE_HOME=os.path.join(build_root, "cache"),
               TMPDIR=os.path.join(build_root, "tmp"))
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, "./perfbench/bench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # exec, not a child process: nothing is left running if the caller
    # stops the run, and a slow run is measured rather than cut off.
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    try:
        os.execv(exe, [exe, "--workload", args.workload, "--seed",
                       str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)])
    except OSError as e:
        print(f"perfbench: cannot start {exe}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

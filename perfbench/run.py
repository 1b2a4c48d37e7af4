#!/usr/bin/env python3
"""Builds gpm-service and the perfbench load generator, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-cached --seed 1 --seconds 10 --trace 0

The last line of standard output is the result object; build output and
progress go to standard error.  Builds land in $CARGO_TARGET_DIR (default
.bench_build at the repository root); span traces land in its perfbench/
subdirectory.  See perfbench/README.md.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["solve-cached", "upload-inline", "patch-stream", "solve-pooled"]
# The benchmark must finish within 180 s of starting; leave room for the build
# check and the server shutdown.
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates", "service"))
    ):
        print("perfbench: run from a checkout of the repository", file=sys.stderr)
        return 2

    env = dict(os.environ)
    target = os.path.join(root, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "gpm-service", "--bin", "gpm-service"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(bench_dir, "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to standard error: standard output carries only
        # the result.
        if subprocess.run(command, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(command), file=sys.stderr)
            return 1

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--server", os.path.join(release, "gpm-service"),
        "--out", os.path.join(target, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    # A process group of its own, so a timeout can stop the benchmark and
    # the server it spawned together.
    bench = subprocess.Popen(command, cwd=root, start_new_session=True)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

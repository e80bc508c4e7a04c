#!/usr/bin/env python3
"""Builds and runs the Shredder benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` binary from source
(release, offline) into $CARGO_TARGET_DIR, or `.bench_build` when that is
unset, runs the workload, checks the result line and prints it as the
last line of standard output. With `--trace 1` the spans are written to
`<target dir>/perfbench-spans/<workload>-seed<n>.jsonl`.

Exits non-zero without printing a result when the build fails, the run
fails or its output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            timeout=BUILD_TIMEOUT_S,
            env=env,
            stdout=sys.stderr,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        bench = subprocess.run(
            cmd, timeout=RUN_TIMEOUT_S, env=env, stdout=subprocess.PIPE, text=True
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: benchmark did not finish: {e}", file=sys.stderr)
        return 1
    lines = bench.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("run.py: no result line", file=sys.stderr)
        return 1
    if bench.returncode != 0 or result.get("correct") is not True:
        print(f"run.py: wrong output (exit {bench.returncode}): {lines[-1]}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Checks that the benchmark's simulated channel is exact across runs.

    python3 perfbench/check_exact.py [--seed N]

Run from the repository root. For every workload, makes two short
untraced runs and two short traced runs with the same seed (through
run.py) and fails unless each pair reports bit-identical values for
every simulated metric and every count: the end-to-end `sim_gbps` and
`stored_per_logical` metrics, and every per-layer metric whose unit is
not a unit of measured time. Within one run, perfbench itself already fails
when any iteration, traced or not, reports other simulated values than
the first.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("backup_generations", "fleet_small_requests", "incremental_wordcount")
EXACT_END_TO_END = ("sim_gbps", "stored_per_logical")
TIMED_UNITS = ("s", "MB/s", "us")


def metrics(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def exact(values, trace):
    if trace:
        return {k: v["value"] for k, v in values.items() if v["unit"] not in TIMED_UNITS}
    return {k: values[k]["value"] for k in EXACT_END_TO_END}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            first = exact(metrics(workload, args.seed, trace), trace)
            second = exact(metrics(workload, args.seed, trace), trace)
            differ = sorted(k for k in first if first[k] != second[k])
            print(f"{workload} trace={trace}: {len(first)} exact values, "
                  f"{'differ: ' + ', '.join(differ) if differ else 'identical'}")
            ok = ok and not differ
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

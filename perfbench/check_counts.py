"""Run each workload traced twice and require identical per-layer counts.

Run from the repository root:

    python3 perfbench/check_counts.py --seconds 20
    python3 perfbench/check_counts.py --workload warm-report --seed 3

Counts (unit ``count`` or ``B``) are per traced pass, so two runs of the same
code and seed must agree exactly; times are not compared.  Exits 1 on any
difference or on a run that reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, WORKLOADS

COUNT_UNITS = ("count", "B")


def traced_counts(workload: str, seed: int, seconds: float) -> tuple[dict, float, bool]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if entry["unit"] in COUNT_UNITS
    }
    overhead = result["metrics"]["trace.overhead_frac"]["value"]
    return counts, overhead, result["correct"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        first, overhead1, correct1 = traced_counts(workload, args.seed, args.seconds)
        second, overhead2, correct2 = traced_counts(workload, args.seed, args.seconds)
        diff = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        status = "identical" if not diff else f"DIFFER in {diff}"
        print(
            f"{workload}: {len(first)} counts {status}; correct {correct1}, {correct2}; "
            f"tracing overhead {overhead1:+.1%}, {overhead2:+.1%} of untraced run_s"
        )
        ok = ok and not diff and correct1 and correct2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

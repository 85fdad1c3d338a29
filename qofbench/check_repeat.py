#!/usr/bin/env python3
"""The benchmark's own test: counts repeat exactly for one seed.

    python3 qofbench/check_repeat.py [--seed N] [--seconds S]

Runs every workload named in spec.json's exact_repeat section twice with
the same seed through run.py (--trace 0 and --trace 1 each), then
  - fails if any count listed there differs between the two runs;
  - prints the metrics listed as known violations with both values;
  - prints every other metric's relative difference between the runs
    (timings vary run to run; this shows by how much).
Exits 1 when a count that must repeat does not, or a run fails.
"""

import argparse
import fnmatch
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr)
        sys.exit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=4)
    args = parser.parse_args()
    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)["exact_repeat"]

    bad = 0
    for workload in spec["workloads"]:
        first, second = {}, {}
        for trace in (0, 1):
            first.update(run(workload, args.seed, args.seconds, trace))
            second.update(run(workload, args.seed, args.seconds, trace))
        for name in sorted(first):
            a, b = first[name], second[name]
            exact = any(fnmatch.fnmatchcase(name, p) for p in spec["metrics"])
            if name in spec["known_violations"]:
                status = "known violation" if a != b else "repeated"
            elif exact:
                status = "exact ok" if a == b else "EXACT MISMATCH"
                bad += a != b
            else:
                diff = abs(a - b) / abs(a) if a else (0.0 if b == 0 else 1.0)
                status = f"differs by {diff:.1%}"
            print(f"{workload:18s} {name:40s} {a:>14.6g} {b:>14.6g}  {status}")
    if bad:
        print(f"{bad} count(s) did not repeat exactly")
        sys.exit(1)
    print("all exact-repeat counts matched")


if __name__ == "__main__":
    main()

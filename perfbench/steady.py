#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report the spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Each run gets its own seed (first-seed, first-seed + 1, ...) and lasts
BENCHMARK.json's run_seconds. For every end-to-end metric it prints the
median, the quartiles (`statistics.quantiles(n=4)`), the spread
(Q3 - Q1) / median, and that spread against the metric's bound in
BENCHMARK.json. A spread above a third of its bound is flagged `WIDE`.
It also prints the share of failed operations in each run, and each run's
strict verdicts (the `STRICT CHECK` lines of run.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description="Run one workload N times and report the spread.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    declared = bench["end_to_end"]
    values = {m["name"]: [] for m in declared}
    shares = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                            args.workload, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                           cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = r.stdout.strip().splitlines()
        if r.returncode != 0 or not lines:
            sys.exit(f"run with seed {seed} exited {r.returncode}:\n{r.stdout[-2000:]}")
        out = json.loads(lines[-1])
        if not out["correct"]:
            sys.exit(f"run with seed {seed} reported incorrect output:\n{r.stdout[-2000:]}")
        shares.append(out["failed"] / out["attempted"])
        for name in values:
            values[name].append(out["metrics"][name]["value"])
        print(f"seed {seed}: attempted {out['attempted']} failed {out['failed']}", flush=True)
        for line in lines:
            if line.startswith("STRICT"):
                print(f"  {line}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {bench['run_seconds']} s each")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in declared:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        bound = m["bound"]
        flag = "WIDE" if spread > bound / 3 else "ok"
        if m["name"] == "setup_s":
            flag += " (setup_s is judged by its median only)"
        print(f"{m['name']:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound:>6} {flag}")
    print(f"failed share per run: {sorted(set(shares))}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly and compare each
end-to-end metric's run-to-run spread with its bound in BENCHMARK.json.

    python3 searchbench/steady.py                 # 10 seeds per workload
    python3 searchbench/steady.py --runs 5 --workloads fleet_search

Run from the repository root.  For each workload and metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4), the
spread (q3 - q1) / median and the bound; a spread at or above the bound is
marked OVER (setup_s is exempt: one cold set-up per run is noisy by nature
and only its median is compared between sets of runs).  It also prints the
share of failed searches, which must not vary between runs.
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
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args()

    worst = 0.0
    for workload in args.workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed_shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correctness checks failed")
                return 1
            failed_shares.add(result["failed"] / result["attempted"])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " +
                  " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)
        print(f"\n{workload}: {args.runs} runs, failed share {sorted(failed_shares)}")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            exempt = metric["name"] == "setup_s"
            over = spread >= metric["bound"] and not exempt
            if not exempt:
                worst = max(worst, spread / metric["bound"])
            print(f"  {metric['name']:<16} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {spread:6.3f}  bound {metric['bound']}"
                  f"{'  (exempt)' if exempt else ''}{'  OVER' if over else ''}")
        print(flush=True)
    print(f"largest spread / bound (setup_s exempt): {worst:.3f}")
    return 0 if worst < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())

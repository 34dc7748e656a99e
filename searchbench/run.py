#!/usr/bin/env python3
"""Build the search benchmark in Release and run one workload.

    python3 searchbench/run.py --workload fleet_search --seed 1 --seconds 20 --trace 0
    python3 searchbench/run.py --self-test

Run from the repository root.  The build goes to $CARGO_TARGET_DIR (default
.bench_build) and is incremental; daemon logs, trace files and scratch
checkpoints go to .bench_out.  The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train_search", "fleet_search", "served_rerun", "checkpoint_search")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build the benchmark and both daemons."""
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "searchbench",
                    "ecad_workerd", "ecad_searchd"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "searchbench"), os.path.join(build_dir, "ecad", "tools")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="feed every correctness check a sabotaged input")
    parser.add_argument("--evaluations", type=int, default=0,
                        help="override the unique evaluations per search (reference figures)")
    parser.add_argument("--max-protocol", type=int, default=0,
                        help="wire version the master offers (reference figures)")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = ".bench_out"
    try:
        binary, tools_dir = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"run.py: build failed: {error}")
        return 2

    if args.self_test:
        return subprocess.run([binary, "--self-test", "--out-dir", out_dir]).returncode

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tools-dir", tools_dir, "--out-dir", out_dir]
    if args.evaluations:
        command += ["--evaluations", str(args.evaluations)]
    if args.max_protocol:
        command += ["--max-protocol", str(args.max_protocol)]
    # The process start set-up time counts from: this instant, on the same
    # monotonic clock the benchmark reads.
    command += ["--start-ns", str(time.monotonic_ns())]
    # Its own process group, so a run cut at the timeout takes the daemons
    # it launched down with it.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: {args.workload} exited with {proc.returncode}")
        return proc.returncode or 4
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

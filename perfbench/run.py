#!/usr/bin/env python3
"""Builds and runs the NodeSentry benchmark for one workload and seed.

    python3 perfbench/run.py --workload fleet-steady --seed 1 --seconds 10 --trace 0

Run from the repository root (or any checkout of it). The library and the
perfbench program are built from source into .bench_build/perfbench
(Release); build output goes to stderr so the last line of stdout is the
program's JSON result. Its self-tests run before every measurement. The
result line is checked against BENCHMARK.json: --trace 0 must report exactly
its end_to_end metrics, --trace 1 exactly its per_layer metrics, each with
its unit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (a no-op when nothing changed) and builds incrementally;
    False on failure."""
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", "4",
              "--target", "perfbench", "perfbench_selftest"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Problems with the result line, as a list of messages."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["the last line is not JSON"]
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["the result does not have exactly correct/attempted/failed/metrics"]
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    problems = []
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(got)):
        if want[name] != got[name]:
            problems.append(f"metric {name} has unit {got[name]}, BENCHMARK.json says {want[name]}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fleet-steady", "fleet-churn", "offline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()

    if not build():
        return 1
    selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        log("self-tests failed")
        return 1

    work = os.path.join(ROOT, ".bench_build", "perfbench-work", str(os.getpid()))
    traces = os.path.join(ROOT, ".bench_build", "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work, "--git-sha", git_sha()]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the program and waits for it before raising.
        log(f"the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if done.returncode == 2 or not lines:
        log(f"perfbench exited with {done.returncode} and no result")
        return done.returncode or 1
    problems = check_result(lines[-1], args.trace)
    for problem in problems:
        log(problem)
    print(lines[-1], flush=True)
    if problems:
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

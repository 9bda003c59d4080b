#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt into .bench_build/perfbench (Release,
failpoints compiled out), builds septic_perfbench, runs it with a scratch
directory under .bench_build, and relays its output. The program reports
every metric it measured; the last line of standard output is the run's
JSON result, holding the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1), or every metric when
there is no BENCHMARK.json. Exits non-zero, without a result
line, when the build fails or the program dies; exits non-zero after the
result line when a correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hot-read", "adhoc-rw", "tcp-durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "septic_perfbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step {' '.join(cmd[:2])} exited {rc}")
    return os.path.join(build_dir, "septic_perfbench")


def listed_metrics(root, trace):
    """Metric names BENCHMARK.json lists for this mode, if it is present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    workdir = os.path.join(root, ".bench_build", "perfbench-work")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S}s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        fail(f"septic_perfbench exited {proc.returncode} without a result")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    measured = result["metrics"]
    names = listed_metrics(root, args.trace == "1") or sorted(measured)
    missing = [n for n in names if n not in measured]
    if missing:
        fail(f"BENCHMARK.json lists metrics the run did not measure: {missing}")
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
                    for n in names},
    }
    print(json.dumps(out), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()

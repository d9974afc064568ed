#!/usr/bin/env python3
"""Builds scup-bench from this checkout and runs one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>

The library is built from the checkout's own sources (the directory above
benchmark/) into benchmark/build/, which the repository's .gitignore
already ignores, in Release mode; later runs only rebuild what changed. The
benchmark's output is passed through: its last line is one JSON object with
the keys correct, attempted, failed and metrics, whose metric names must be
exactly those BENCHMARK.json lists for --trace 0 (end_to_end) or --trace 1
(per_layer). Exits nonzero, without a result line, when the checkout holds
no library to build.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "benchmark", "build")
BINARY = os.path.join(BUILD, "scup-bench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no library next to benchmark/ "
                 "(CMakeLists.txt and src/ are missing)")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    # Build output goes to stderr so stdout carries only the benchmark's.
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                            "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "scup-bench",
                        "-j", jobs], stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")

    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}"]
    if args.trace:
        command.append("--trace")
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    names = sorted(result.get("metrics", {}))
    if names != sorted(expected_metrics(args.trace)):
        print("run.py: metric names differ from BENCHMARK.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

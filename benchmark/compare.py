#!/usr/bin/env python3
"""Runs scup-bench result sets and compares two of them against BENCHMARK.json.

    compare.py run --out FILE [--checkout DIR [--checkout DIR]]
                   [--workload NAME ...] [--seeds 1-10] [--trace 0|1]
    compare.py report FILE

`run` collects two result sets, one run per seed and workload in each. With
one checkout (default: this one) the sets are "A" and "B" of the same code;
with two they are "base" and "new". Within each seed the order of the two
sets alternates, so drift on the host does not favour one side. FILE is
rewritten after every run.

`report` prints, per workload and metric, each set's median and quartiles
and their spread (q3 - q1 over the median, as statistics.quantiles gives
them), then checks the file's second set against its first:
  - every run exited 0 with correct = true and failed = 0;
  - metrics that the simulation determines (ticks, counts, kilobytes) are
    identical seed by seed;
  - no end-to-end metric's median is worse than the first set's by more
    than its bound, and no spread exceeds its bound; a spread above a
    third of the bound is flagged as noisy.
Exit 0: all checks pass; 1: a check failed; 2: bad arguments or input.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Units of metrics that depend on the host's speed or memory; every other
# metric is fixed by the seed. Two ratios are also computed from times.
TIMED_UNITS = {"s", "1/s", "MiB"}
TIMED_RATIOS = {"matrix.busy_ratio", "trace.overhead"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def is_exact(metric):
    return (metric["unit"] not in TIMED_UNITS
            and metric["name"] not in TIMED_RATIOS)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout, workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(checkout, "benchmark", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"seed": seed, "exit": proc.returncode, "wall_s":
            round(time.monotonic() - start, 3), "result": result}


def command_run(args):
    spec = load_spec()
    checkouts = [os.path.abspath(c) for c in (args.checkout or [ROOT])]
    if len(checkouts) > 2:
        sys.exit("compare.py: at most two checkouts")
    if len(checkouts) == 1:
        sets = [("A", checkouts[0]), ("B", checkouts[0])]
    else:
        sets = [("base", checkouts[0]), ("new", checkouts[1])]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    data = {
        "host": {"cores": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system()},
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "sets": {label: {w: [] for w in workloads} for label, _ in sets},
    }
    for i, seed in enumerate(seeds):
        for workload in workloads:
            order = sets if i % 2 == 0 else sets[::-1]
            for label, checkout in order:
                run = run_one(checkout, workload, seed, spec["run_seconds"],
                              args.trace)
                data["sets"][label][workload].append(run)
                print(f"{label:>4} {workload:<12} seed={seed:<4} "
                      f"exit={run['exit']} {run['wall_s']:.1f}s", flush=True)
                with open(args.out, "w") as f:
                    json.dump(data, f, indent=1)
                    f.write("\n")
    return 0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def fmt(v):
    return f"{v:.6g}"


def report_workload(workload, base_runs, new_runs, metrics, problems):
    def values(runs, name):
        return {r["seed"]: r["result"]["metrics"][name]["value"]
                for r in runs
                if r["result"] and name in r["result"].get("metrics", {})}

    for label, runs in (("base", base_runs), ("new", new_runs)):
        for r in runs:
            res = r["result"] or {}
            if r["exit"] != 0 or not res.get("correct") or res.get("failed"):
                problems.append(f"{workload} {label} seed={r['seed']}: "
                                f"exit={r['exit']} correct={res.get('correct')}"
                                f" failed={res.get('failed')}")
    print(f"{workload}: {len(base_runs)} base runs, {len(new_runs)} new runs")
    print(f"  {'metric':<24} {'set':<4} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}  status")
    for metric in metrics:
        name = metric["name"]
        base = values(base_runs, name)
        new = values(new_runs, name)
        if not base or not new:
            problems.append(f"{workload} {name}: missing values")
            continue
        bound = metric.get("bound")
        status = []
        if is_exact(metric):
            common = sorted(set(base) & set(new))
            if any(base[s] != new[s] for s in common):
                status.append("DIFFERS")
                problems.append(f"{workload} {name}: values differ by seed")
            else:
                status.append("identical")
        if bound is not None:
            b_med = statistics.median(base.values())
            n_med = statistics.median(new.values())
            worse = (n_med - b_med) / b_med if b_med else 0.0
            if metric["better"] == "higher":
                worse = -worse
            status.append(f"change {-worse:+.1%}")
            if worse > bound:
                status.append("REGRESSED")
                problems.append(f"{workload} {name}: worse by {worse:.1%} "
                                f"> bound {bound:.0%}")
            for label, vals in (("base", base), ("new", new)):
                s = spread(list(vals.values()))
                if s > bound:
                    status.append(f"{label} spread > bound")
                    problems.append(f"{workload} {name}: {label} spread "
                                    f"{s:.1%} > bound {bound:.0%}")
                elif s > bound / 3:
                    status.append(f"{label} noisy")
        for label, vals in (("base", base), ("new", new)):
            q1, med, q3 = quartiles(list(vals.values()))
            tail = "  " + ", ".join(status) if label == "new" else ""
            print(f"  {name if label == 'base' else '':<24} {label:<4} "
                  f"{fmt(med):>12} {fmt(q1):>12} {fmt(q3):>12} "
                  f"{spread(list(vals.values())):>7.1%}{tail}")


def command_report(args):
    spec = load_spec()
    try:
        with open(args.file) as f:
            data = json.load(f)
        labels = list(data["sets"])
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: cannot read {args.file}: {e}", file=sys.stderr)
        return 2
    if len(labels) != 2:
        print(f"compare.py: need two sets, file has {labels}", file=sys.stderr)
        return 2
    base, new = labels
    metrics = spec["per_layer"] if data.get("trace") else spec["end_to_end"]
    print(f"host: {data.get('host')}  run_seconds: {data.get('run_seconds')}"
          f"  base={base} new={new}")
    problems = []
    for workload, base_runs in data["sets"][base].items():
        new_runs = data["sets"][new].get(workload, [])
        report_workload(workload, base_runs, new_runs, metrics, problems)
    for p in problems:
        print(f"FAIL {p}")
    print("ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--out", required=True)
    run.add_argument("--checkout", action="append")
    run.add_argument("--workload", action="append")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    report = sub.add_parser("report")
    report.add_argument("file")
    args = parser.parse_args()
    if args.command == "run":
        return command_run(args)
    return command_report(args)


if __name__ == "__main__":
    sys.exit(main())

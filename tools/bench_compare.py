#!/usr/bin/env python3
"""Perf regression gate over canonical BENCH_E<k>.json artifacts.

Compares a candidate bench summary (written by SCUP_BENCH_MAIN, see
bench/bench_common.hpp) against a committed reference and fails (exit 1)
on regressions. A reference row missing from the candidate fails, and so
does a reference counter missing from a candidate row, so a bench change
that drops either must re-record the reference. Both files must record
the same host.build_type ("release" for builds that define NDEBUG,
"debug" otherwise): a Debug run is never compared against a Release
reference, and a file without the field fails. Three checks, in
decreasing order of trust:

 1. Ratio floors. Counters that encode an experiment's headline promise
    (E16's sends per encode, E13's rescan savings, E11's recheck savings)
    have an absolute floor; a candidate at or above the floor passes
    regardless of the reference value, because such ratios can
    legitimately move far above the floor without meaning anything.

 2. Exact counters. Every other shared counter is deterministic
    (messages_sent, wire_encodes, frame_bytes, qset_evals, ...) and must
    equal the reference: integers exactly, floats within a relative
    1e-9. Any change to one is a behaviour change, which must be declared
    and the reference re-recorded. The one exception is a measured
    allocation counter (any heap_* counter the gate does not skip), which
    carries harness noise and must stay within --counter-tolerance
    (default 25%) of the reference.

 3. Normalized wall time. Raw wall comparisons across machines are
    meaningless, so each row's real_time, converted to nanoseconds by its
    time_unit, is normalized by a baseline row *within the same file*
    (--wall-baseline); the normalized ratio must not regress more than
    --wall-tolerance (default 25%). Skipped when either file lacks the
    baseline row (E11, E12 and E13 have none, so their gates check
    counters only).

Counters derived from wall time (items_per_second, E13's slots_per_sec,
E11's nodes_per_sec, E12's speedup_8t, any *_ms breakdown) and harness
measurements (heap_allocs) are not gated.

Usage:
  bench_compare.py --reference tools/bench_reference_e16.json \
                   --candidate build/BENCH_E16.json \
                   --wall-baseline BM_MessageChurn
  bench_compare.py --reference tools/bench_reference_e13.json \
                   --candidate build/BENCH_E13.json
  bench_compare.py --reference tools/bench_reference_e11.json \
                   --candidate build/BENCH_E11.json
  bench_compare.py --reference tools/bench_reference_e12.json \
                   --candidate build/BENCH_E12.json

tools/test_bench_compare.py checks the gate itself (CTest
bench_compare_selftest).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

# Counters whose larger-is-better value is gated by an absolute floor
# instead of the reference (see module docstring, check 1).
RATIO_FLOORS = {
    "sends_per_encode": 2.0,  # wire-once must amortize over broadcasts
    "rescan_savings": 10.0,  # E13's bar over the rescan-every-check baseline
    "recheck_savings": 10.0,  # E11's bar over the recompute-everything one
}

# Counters that are measurements of the harness or the host rather than the
# benched code; never gated. Any counter ending in "_ms" (a wall-clock
# breakdown) is host-dependent by construction and skipped too.
SKIP_COUNTERS = {
    "heap_allocs",
    "items_per_second",  # redundant with the normalized wall gate
    "slots_per_sec",  # E13 throughput, derived from wall time
    "nodes_per_sec",  # E11 throughput, derived from wall time
    "speedup_8t",  # E12 serial_ms / parallel8_ms, both wall times
}


# Google Benchmark's time units, in nanoseconds.
NS_PER_TIME_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def real_time_ns(row):
    return row["real_time"] * NS_PER_TIME_UNIT[row.get("time_unit", "ns")]


def skipped_counter(name):
    return name in SKIP_COUNTERS or name.endswith("_ms")


def harness_counter(name):
    """Measured allocation counters: gated with --counter-tolerance."""
    return name.startswith("heap_")


def same_value(c, r):
    if isinstance(c, int) and isinstance(r, int):
        return c == r
    return math.isclose(c, r, rel_tol=1e-9)


def load_rows(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        if row.get("error") or row.get("aggregate"):
            continue
        rows[row["name"]] = row
    return doc, rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument(
        "--counter-tolerance",
        type=float,
        default=0.25,
        help="relative tolerance for measured heap_* counters",
    )
    parser.add_argument("--wall-tolerance", type=float, default=0.25)
    parser.add_argument(
        "--wall-baseline",
        default="BM_MessageChurn",
        help="row whose real_time normalizes wall comparisons per file",
    )
    args = parser.parse_args()

    ref_doc, ref_rows = load_rows(args.reference)
    cand_doc, cand_rows = load_rows(args.candidate)
    if ref_doc.get("experiment") != cand_doc.get("experiment"):
        print(
            f"bench_compare: experiment mismatch "
            f"({ref_doc.get('experiment')} vs {cand_doc.get('experiment')})"
        )
        return 1
    ref_build = ref_doc.get("host", {}).get("build_type")
    cand_build = cand_doc.get("host", {}).get("build_type")
    if ref_build is None or cand_build is None:
        print("bench_compare: host.build_type missing from the "
              f"{'reference' if ref_build is None else 'candidate'}")
        return 1
    if ref_build != cand_build:
        print(f"bench_compare: build type mismatch (reference {ref_build}, "
              f"candidate {cand_build})")
        return 1

    shared = sorted(set(ref_rows) & set(cand_rows))
    missing = sorted(set(ref_rows) - set(cand_rows))
    failures = []
    if not shared:
        failures.append("no shared benchmark rows between the two files")
    for name in missing:
        failures.append(f"row disappeared from the candidate run: {name}")

    for name in shared:
        ref = dict(ref_rows[name].get("counters", {}))
        cand = dict(cand_rows[name].get("counters", {}))
        for counter in sorted(set(ref) - set(cand)):
            failures.append(
                f"{name}: counter disappeared from the candidate run: "
                f"{counter}"
            )
        for counter in sorted(set(ref) & set(cand)):
            if skipped_counter(counter):
                continue
            r, c = ref[counter], cand[counter]
            if counter in RATIO_FLOORS:
                floor = RATIO_FLOORS[counter]
                if c < floor:
                    failures.append(
                        f"{name}: {counter} = {c:g} fell below the floor "
                        f"{floor:g} (reference {r:g})"
                    )
            elif harness_counter(counter):
                scale = max(abs(r), 1e-9)
                if abs(c - r) > args.counter_tolerance * scale:
                    failures.append(
                        f"{name}: {counter} = {c:g} deviates more than "
                        f"{args.counter_tolerance:.0%} from the reference {r:g}"
                    )
            elif not same_value(c, r):
                failures.append(
                    f"{name}: {counter} = {c!r} differs from the reference "
                    f"{r!r}; deterministic counters must match exactly"
                )

    ref_base = ref_rows.get(args.wall_baseline)
    cand_base = cand_rows.get(args.wall_baseline)
    if ref_base and cand_base and ref_base["real_time"] > 0 \
            and cand_base["real_time"] > 0:
        for name in shared:
            if name == args.wall_baseline:
                continue
            ref_norm = real_time_ns(ref_rows[name]) / real_time_ns(ref_base)
            cand_norm = (real_time_ns(cand_rows[name])
                         / real_time_ns(cand_base))
            if cand_norm > ref_norm * (1 + args.wall_tolerance):
                failures.append(
                    f"{name}: normalized wall time {cand_norm:.3g}x baseline "
                    f"regressed more than {args.wall_tolerance:.0%} vs the "
                    f"reference {ref_norm:.3g}x"
                )
    else:
        print(
            f"bench_compare: wall gate skipped "
            f"(baseline row {args.wall_baseline!r} absent or zero)"
        )

    if failures:
        print(f"bench_compare: {len(failures)} regression(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(
        f"bench_compare: OK — {len(shared)} rows: counters exact, "
        f"heap_* within {args.counter_tolerance:.0%}, "
        f"wall within {args.wall_tolerance:.0%}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the bench regression gate (tools/bench_compare.py).

Each case writes a candidate derived from tools/bench_reference_e11.json
to a temporary directory and runs the gate on it as CI does: identical
files pass, and a changed deterministic counter, a deleted counter, a
ratio below its floor, a deleted row, a Debug build type or a missing
build type fails. Two cases on
tools/bench_reference_e12.json check that a wall-derived counter
(speedup_8t) is skipped while a deterministic one is not. Two cases on
tools/bench_reference_e16.json check that the wall gate compares
durations, not raw numbers: a row reported in another time unit with an
equal duration passes, and a 2x regression reported in another unit
fails.

Run directly (python3 tools/test_bench_compare.py) or through CTest
(bench_compare_selftest).
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(TOOLS, "bench_compare.py")
REFERENCE = os.path.join(TOOLS, "bench_reference_e11.json")
REFERENCE_E12 = os.path.join(TOOLS, "bench_reference_e12.json")
REFERENCE_E16 = os.path.join(TOOLS, "bench_reference_e16.json")
SWEEP = "BM_ScaleDiscovery_Sweep/64/1"
FULL_STACK = "BM_ScaleDiscovery_FullStack/n:64/threads:1"
SPEEDUP = "BM_E12_SpeedupProof/20"
E12_SWEEP = "BM_E12_Sweep/proto:1/n:20/threads:8"
ENCODE = "BM_EncodeOnce/cached:0"


class GateCase(unittest.TestCase):
    """Runs the gate on edited copies of `reference_path`."""

    reference_path = REFERENCE

    def setUp(self):
        with open(self.reference_path, "r", encoding="utf-8") as f:
            self.reference = json.load(f)
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def row(self, doc, name):
        for row in doc["rows"]:
            if row["name"] == name:
                return row
        self.fail(f"reference lacks row {name}")

    def gate(self, candidate):
        path = os.path.join(self.tmp.name, "BENCH_candidate.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(candidate, f)
        return subprocess.run(
            [sys.executable, GATE, "--reference", self.reference_path,
             "--candidate", path],
            capture_output=True, text=True, check=False)

    def candidate(self):
        return copy.deepcopy(self.reference)


class BenchCompareTest(GateCase):
    def test_identical_files_pass(self):
        result = self.gate(self.candidate())
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_deterministic_counter_off_by_one_fails(self):
        cand = self.candidate()
        self.row(cand, SWEEP)["counters"]["messages"] += 1
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("messages", result.stdout)

    def test_deleted_counter_fails(self):
        cand = self.candidate()
        del self.row(cand, FULL_STACK)["counters"]["p99_decide"]
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(
            "counter disappeared from the candidate run: p99_decide",
            result.stdout)

    def test_ratio_below_floor_fails(self):
        cand = self.candidate()
        self.row(cand, SWEEP)["counters"]["recheck_savings"] = 9.99
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("recheck_savings", result.stdout)

    def test_deleted_row_fails(self):
        cand = self.candidate()
        cand["rows"] = [r for r in cand["rows"] if r["name"] != SWEEP]
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(
            f"row disappeared from the candidate run: {SWEEP}", result.stdout)

    def test_debug_build_type_fails(self):
        cand = self.candidate()
        cand["host"]["build_type"] = "debug"
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("build type mismatch", result.stdout)

    def test_missing_build_type_fails(self):
        cand = self.candidate()
        del cand["host"]["build_type"]
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("host.build_type missing from the candidate",
                      result.stdout)


class BenchCompareE12Test(GateCase):
    reference_path = REFERENCE_E12

    def test_wall_derived_speedup_is_skipped(self):
        cand = self.candidate()
        self.row(cand, SPEEDUP)["counters"]["speedup_8t"] *= 3.0
        result = self.gate(cand)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_sweep_messages_off_by_one_fails(self):
        cand = self.candidate()
        self.row(cand, E12_SWEEP)["counters"]["messages"] += 1
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("messages", result.stdout)


class BenchCompareE16Test(GateCase):
    reference_path = REFERENCE_E16

    def test_equal_duration_in_another_unit_passes(self):
        cand = self.candidate()
        row = self.row(cand, ENCODE)
        self.assertEqual(row["time_unit"], "us")
        row["real_time"] *= 1e3
        row["time_unit"] = "ns"
        result = self.gate(cand)
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_doubled_duration_in_another_unit_fails(self):
        cand = self.candidate()
        row = self.row(cand, ENCODE)
        self.assertEqual(row["time_unit"], "us")
        row["real_time"] *= 2 / 1e3
        row["time_unit"] = "ms"
        result = self.gate(cand)
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn(ENCODE, result.stdout)


if __name__ == "__main__":
    unittest.main()

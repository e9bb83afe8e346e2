#!/usr/bin/env python3
"""Unit tests for check_perf.compare — stdlib only, run by ctest.

The comparator gates CI perf smokes; these tests pin its contract:
exact keys fail on any drift, rate keys fail only below the tolerance
floor, improvements never fail, missing rows fail, and the delta table
covers every compared metric on pass and fail alike.
"""

import io
import sys
import unittest

sys.path.insert(0, __file__.rsplit("/", 1)[0])
import check_perf


def doc(rows, bench="bench_explore"):
    return {"bench": bench, "rows": rows}


BASE = doc([{"n": 4, "configs": 100,
             "configs_per_sec": 1000.0, "seconds": 0.1}])


class CompareTest(unittest.TestCase):
    def test_identical_passes(self):
        rows, failures = check_perf.compare(BASE, BASE, tolerance=25)
        self.assertEqual(failures, [])
        self.assertEqual(
            sorted(key for _, key, *_ in rows),
            ["configs", "configs_per_sec", "seconds"],
        )

    def test_exact_drift_fails(self):
        cur = doc([{"n": 4, "configs": 101,
                    "configs_per_sec": 1000.0}])
        rows, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("configs", failures[0])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["configs"], "DRIFT")

    def test_rate_within_tolerance_passes(self):
        cur = doc([{"n": 4, "configs": 100,
                    "configs_per_sec": 800.0}])
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(failures, [])

    def test_rate_below_floor_fails(self):
        cur = doc([{"n": 4, "configs": 100,
                    "configs_per_sec": 700.0}])
        rows, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("configs_per_sec", failures[0])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["configs_per_sec"], "FAIL")

    def test_improvement_never_fails(self):
        cur = doc([{"n": 4, "configs": 100,
                    "configs_per_sec": 9000.0}])
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(failures, [])

    def test_missing_row_fails(self):
        cur = doc([{"n": 5, "configs": 100,
                    "configs_per_sec": 1000.0}])
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertTrue(any("missing" in f for f in failures))

    def test_bench_mismatch_fails(self):
        cur = doc(BASE["rows"], bench="bench_lemmas")
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertTrue(any("mismatch" in f for f in failures))

    def test_empty_baseline_fails(self):
        _, failures = check_perf.compare(doc([]), doc([]), tolerance=25)
        self.assertTrue(any("no comparable" in f for f in failures))

    def test_seconds_ungated(self):
        cur = doc([{"n": 4, "configs": 100,
                    "configs_per_sec": 1000.0, "seconds": 99.0}])
        rows, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(failures, [])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["seconds"], "ungated")

    def test_delta_pct(self):
        self.assertAlmostEqual(check_perf.delta_pct(100, 110), 10.0)
        self.assertAlmostEqual(check_perf.delta_pct(100, 90), -10.0)
        self.assertIsNone(check_perf.delta_pct(0, 5))

    def test_forced_spill_gate_requires_nonzero_bytes(self):
        cur = {"bench": "lemmas", "rows": [
            {"n": 4, "spill": 0, "queries": 10},
            {"n": 4, "spill": 1, "queries": 10, "graph_spill": 0},
        ]}
        failures = check_perf.forced_spill_failures(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("graph_spill", failures[0])
        self.assertIn("spill=1", failures[0])

    def test_forced_spill_gate_passes_with_bytes_on_disk(self):
        cur = {"bench": "lemmas", "rows": [
            {"n": 4, "spill": 1, "queries": 10, "graph_spill": 4096},
            {"n": 4, "spill": 1, "arena_spill": 512},
        ]}
        self.assertEqual(check_perf.forced_spill_failures(cur), [])

    def test_forced_spill_gate_skips_resident_and_legacy_rows(self):
        # spill=0 rows and pre-column rows (no spill key, no byte counts)
        # are not evidence rows; the gate must not invent failures there.
        cur = {"bench": "explore", "rows": [
            {"n": 4, "spill": 0, "arena_spill": 0},
            {"n": 4, "configs": 100},
            {"n": 4, "spill": 1},
        ]}
        self.assertEqual(check_perf.forced_spill_failures(cur), [])

    def test_spill_identity_key_separates_rows(self):
        base = doc([{"n": 4, "spill": 0, "configs": 100},
                    {"n": 4, "spill": 1, "configs": 100}])
        cur = doc([{"n": 4, "spill": 0, "configs": 100},
                   {"n": 4, "spill": 1, "configs": 101}])
        rows, failures = check_perf.compare(base, cur, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("spill=1", failures[0])
        self.assertEqual(
            [s for label, *_, s in rows if "spill=0" in label], ["exact"])

    def test_table_renders_all_rows(self):
        cur = doc([{"n": 4, "configs": 101,
                    "configs_per_sec": 700.0, "seconds": 0.2}])
        rows, _ = check_perf.compare(BASE, cur, tolerance=25)
        buf = io.StringIO()
        check_perf.print_table(rows, out=buf)
        text = buf.getvalue()
        for key in ("configs", "configs_per_sec", "seconds"):
            self.assertIn(key, text)
        self.assertIn("DRIFT", text)
        self.assertIn("FAIL", text)
        self.assertIn("ungated", text)


if __name__ == "__main__":
    unittest.main()

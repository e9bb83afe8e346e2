#!/usr/bin/env python3
"""Self-test of the benchmark's metric arithmetic and correctness gate on
canned inputs. Run from anywhere: python3 perfbench/test_measure.py"""

import hashlib
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import run  # noqa: E402

# Lines in the exact shapes TraceSink::write_jsonl and
# MemLedger::emit_record produce.
TRACE = [
    '{"name":"adversary.run","ph":"X","pid":1,"tid":0,"ts_ns":0,'
    '"dur_ns":100,"args":{"value":5}}',
    '{"name":"valency.query","ph":"X","pid":1,"tid":0,"ts_ns":10,'
    '"dur_ns":20,"args":{"value":0}}',
    '{"name":"valency.query","ph":"X","pid":1,"tid":0,"ts_ns":25,'
    '"dur_ns":15,"args":{"value":0}}',
    '{"name":"valency.query","ph":"X","pid":1,"tid":0,"ts_ns":90,'
    '"dur_ns":30,"args":{"value":0}}',
    '{"name":"pool.task","ph":"X","pid":1,"tid":1,"ts_ns":0,'
    '"dur_ns":50,"args":{"value":0}}',
    '{"name":"covered","ph":"C","pid":1,"tid":0,"ts_ns":95,'
    '"args":{"covered":5}}',
    '{"name":"certificate.verified","ph":"i","pid":1,"tid":0,"ts_ns":99,'
    '"args":{"value":5},"s":"t"}',
    '',
]
STATS = [
    '{"type":"ckpt.write","why":"work","generation":1,"bytes":7,"ms":3,'
    '"total_writes":1,"total_ms":3}',
    '{"type":"ledger","total":1,"peak_total":9,"accounts":{"reach.nodes":1},'
    '"peaks":{"reach.nodes":4}}',
    '{"type":"ledger","total":2,"peak_total":9,"accounts":{"reach.nodes":2},'
    '"peaks":{"reach.nodes":6,"reach.facts":3}}',
]


class Arithmetic(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [9, 1, 8, 2, 7, 3, 6, 4, 5]
        self.assertEqual(measure.median(xs), 5)
        self.assertEqual(measure.quartiles(xs), (2.5, 5, 7.5))
        self.assertEqual(measure.spread(xs), 1.0)
        self.assertEqual(measure.median([4, 1, 3, 2]), 2.5)

    def test_nearest_rank_percentile(self):
        xs = list(range(1, 101))
        self.assertEqual(measure.percentile(xs, 50), 50)
        self.assertEqual(measure.percentile(xs, 85), 85)
        self.assertEqual(measure.percentile([7, 3], 1), 3)
        self.assertEqual(measure.percentile([7, 3], 100), 7)

    def test_tail_percentile_leaves_ten_samples_beyond(self):
        # 37 queries: p70 is rank 26 (11 beyond); p75 is rank 28 (9 beyond).
        self.assertEqual(measure.tail_percentile(37), 70)
        self.assertEqual(measure.tail_percentile(73), 85)
        self.assertEqual(measure.tail_percentile(20), 50)
        self.assertEqual(measure.tail_percentile(10000), 95)
        self.assertIsNone(measure.tail_percentile(10))
        for n in range(11, 400):
            p = measure.tail_percentile(n)
            rank = -(-p * n // 100)
            self.assertGreaterEqual(n - rank, 10)
            if p + 5 < 100:
                self.assertLess(n - -(-(p + 5) * n // 100), 10)

    def test_span_parsing_keeps_complete_events_only(self):
        spans = measure.parse_spans(TRACE)
        self.assertEqual([s.name for s in spans],
                         ["adversary.run"] + ["valency.query"] * 3 +
                         ["pool.task"])
        self.assertEqual(spans[1], measure.Span("valency.query", 0, 10, 20))
        self.assertEqual(measure.span_total(spans, "valency.query"), (3, 65))
        self.assertEqual(measure.span_total(spans, "pool.wait"), (0, 0))

    def test_self_time_subtracts_covered_child_time(self):
        spans = measure.parse_spans(TRACE)
        # Children cover [10, 40) (overlapping) and [90, 100) (clipped to
        # the parent); pool.task runs on another thread.
        self.assertEqual(
            measure.self_time(spans, "adversary.run", {"valency.query"}), 60)
        self.assertEqual(
            measure.self_time(spans, "adversary.run", {"pool.task"}), 100)
        self.assertEqual(measure.union_length([(0, 5), (5, 8), (10, 11)]), 9)
        self.assertEqual(measure.union_length([]), 0)

    def test_ledger_peaks_come_from_the_last_record(self):
        records = measure.parse_records(STATS)
        self.assertEqual(measure.ledger_peaks(records),
                         {"reach.nodes": 6, "reach.facts": 3})
        self.assertEqual(measure.ledger_peaks(records[:1]), {})


class Gate(unittest.TestCase):
    def setUp(self):
        self.saved = run.CERT_SHA256

    def tearDown(self):
        run.CERT_SHA256 = self.saved

    def good(self):
        rec = dict(run.EXPECTED, ok=True, budget_exhausted=False,
                   stopped=False, error="", check_ok=True, ckpt_writes=0,
                   inputs=[0], schedule=[1], covering=[[1, 1]])
        run.CERT_SHA256 = hashlib.sha256(
            run.certificate_key(rec).encode()).hexdigest()
        return rec

    def test_exact_record_passes(self):
        self.assertEqual(run.gate("adv5", 0, self.good(), "", False), [])

    def test_any_mismatch_fails(self):
        for key, value in [("reach_expanded", 753_356),
                           ("valency_cache_hits", 118),
                           ("distinct_registers", 3), ("ckpt_writes", 1),
                           ("schedule", [2]), ("ok", False),
                           ("check_ok", False)]:
            rec = self.good()
            rec[key] = value
            self.assertTrue(run.gate("adv5", 0, rec, "", False), key)
        self.assertTrue(run.gate("adv5", 1, self.good(), "", False))
        self.assertTrue(run.gate("adv5", 0, None, "", False))
        rec = self.good()
        rec.update(ok=False, budget_exhausted=True, error="budget")
        self.assertIn("budget stop", run.gate("adv5", 0, rec, "", False)[0])

    def test_campaign_needs_its_checkpoints_and_a_manifest(self):
        rec = self.good()
        rec["ckpt_writes"] = 2
        problems = run.gate("campaign5", 0, rec, "no-such-run-dir", False)
        self.assertEqual(problems, ["checkpoint manifest missing"])


if __name__ == "__main__":
    unittest.main()

"""Metric arithmetic for the benchmark, kept apart from process handling so
test_measure.py can check it on canned inputs.

Timings are reported as a median plus the highest percentile that still has
at least ten samples beyond it, with the sample count. Percentiles use the
nearest-rank definition: the p-th percentile of n sorted samples is the
ceil(p * n / 100)-th smallest.
"""

import json
import math
import statistics
from collections import namedtuple

# A complete ("X") span from the program's trace JSONL.
Span = namedtuple("Span", "name tid start dur")

TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it
TAIL_STEP = 5     # tail percentiles are multiples of this


median = statistics.median


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(xs, n=4) gives them."""
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


def percentile(xs, p):
    """Nearest-rank p-th percentile of xs."""
    s = sorted(xs)
    rank = max(1, math.ceil(p * len(s) / 100))
    return s[rank - 1]


def tail_percentile(n, beyond=TAIL_BEYOND, step=TAIL_STEP):
    """Highest percentile (a multiple of `step`, below 100) whose nearest
    rank leaves at least `beyond` of n samples above it; None if n is too
    small for any."""
    best = None
    for p in range(step, 100, step):
        if n - max(1, math.ceil(p * n / 100)) >= beyond:
            best = p
    return best


def parse_records(lines):
    """JSON objects, one per non-blank line (trace, stats and ledger JSONL)."""
    return [json.loads(line) for line in lines if line.strip()]


def parse_spans(lines):
    """Complete spans of a trace written by TraceSink::write_jsonl."""
    spans = []
    for line in lines:
        if '"ph":"X"' not in line:
            continue
        ev = json.loads(line)
        spans.append(Span(ev["name"], ev["tid"], ev["ts_ns"], ev["dur_ns"]))
    return spans


def span_total(spans, name):
    """(count, summed duration in ns) of the spans called `name`."""
    durs = [s.dur for s in spans if s.name == name]
    return len(durs), sum(durs)


def union_length(intervals):
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(spans, parent, children):
    """Summed duration of the `parent` spans minus the part of each that
    spans named in `children` on the same thread cover."""
    total = 0
    for p in spans:
        if p.name != parent:
            continue
        lo, hi = p.start, p.start + p.dur
        inside = [(max(c.start, lo), min(c.start + c.dur, hi))
                  for c in spans
                  if c.name in children and c.tid == p.tid
                  and c.start < hi and c.start + c.dur > lo]
        total += p.dur - union_length(inside)
    return total


def ledger_peaks(records):
    """Per-account peak bytes from the last memory-ledger stats record."""
    ledgers = [r for r in records if r.get("type") == "ledger"]
    return ledgers[-1].get("peaks", {}) if ledgers else {}

#!/usr/bin/env python3
"""CI perf-smoke comparator: committed BENCH_*.json baseline vs a fresh run.

Usage: check_perf.py BASELINE.json CURRENT.json

Both files are the one-object output of `bench_explore --json=` /
`bench_lemmas --json=`: {"bench": ..., "rows": [{...}, ...]}. Rows are
joined on their identity keys (n, spill) and every shared numeric
metric is compared:

  * deterministic counts (configs, queries, cache_hits, expanded, reused,
    fact_answers, fact_subsumed, cert_steps) must match EXACTLY — the
    engines' determinism contract means any drift is a real behaviour
    change, not noise;
  * every current row marked spill=1 must report nonzero spilled bytes
    (graph_spill for the lemmas bench's edge stores, arena_spill for the
    explore bench) — a forced-spill row that stayed resident measures
    nothing;
  * throughput (configs_per_sec) and efficiency ratios (hit_rate,
    reuse_rate) may regress by at most TSB_PERF_TOLERANCE percent
    (default 25) before the check fails;
  * improvements never fail, and `seconds` is reported but not gated
    (configs_per_sec already covers wall-clock, normalized by work done).

A per-metric delta table (current vs baseline, % change) is printed on both
pass and fail, so CI logs answer "how close was it?" without a rerun.

Environment: TSB_PERF_TOLERANCE=<percent> overrides the 25% tolerance.
Stdlib only — CI has no pip.
"""

import json
import os
import sys

ID_KEYS = ("n", "spill")
EXACT_KEYS = {
    "configs",
    "queries",
    "cache_hits",
    "expanded",
    "reused",
    "fact_answers",
    "fact_subsumed",
    "cert_steps",
}
# Higher is better; gated by the relative tolerance.
RATE_KEYS = {"configs_per_sec", "hit_rate", "reuse_rate"}
# Reported but not gated numerically: wall-clock is covered by
# configs_per_sec; the checkpoint counters (write count / bytes /
# serialize+commit ms) depend on cadence flags and disk speed —
# bench_explore --overhead gates the checkpoint write share of wall clock
# directly; the spill byte counts are deterministic per binary but shift
# with every codec tweak, so only their nonzero-ness is gated (below).
UNGATED_KEYS = {
    "seconds",
    "ckpt_writes",
    "ckpt_bytes",
    "ckpt_ms",
    "arena_spill",
    "graph_spill",
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if "rows" not in doc or not isinstance(doc["rows"], list):
        sys.exit(f"{path}: not a bench JSON (no rows array)")
    return doc


def row_id(row):
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def delta_pct(base_val, cur_val):
    """Relative change in percent; None when the baseline is zero."""
    if base_val == 0:
        return None
    return 100.0 * (cur_val - base_val) / base_val


def compare(base_doc, cur_doc, tolerance):
    """Join rows on identity keys and compare every shared metric.

    Returns (rows, failures): `rows` is a list of
    (label, key, base, cur, delta_pct_or_None, status) covering every
    compared metric (status in {"ok", "FAIL", "exact", "DRIFT",
    "ungated"}); `failures` is the human-readable failure list. Pure:
    prints nothing, reads no environment.
    """
    rows = []
    failures = []
    if base_doc.get("bench") != cur_doc.get("bench"):
        failures.append(
            f"bench mismatch: baseline is {base_doc.get('bench')!r}, "
            f"current is {cur_doc.get('bench')!r}"
        )
        return rows, failures

    current = {row_id(r): r for r in cur_doc["rows"]}
    for base in base_doc["rows"]:
        rid = row_id(base)
        label = ",".join(f"{k}={v}" for k, v in rid) or "(row)"
        cur = current.get(rid)
        if cur is None:
            failures.append(f"{label}: row missing from current run")
            continue
        for key, base_val in base.items():
            if key in ID_KEYS or key not in cur:
                continue
            cur_val = cur[key]
            if key in EXACT_KEYS:
                status = "exact"
                if cur_val != base_val:
                    status = "DRIFT"
                    failures.append(
                        f"{label} {key}: {cur_val} != baseline {base_val} "
                        "(deterministic count drifted)"
                    )
                rows.append(
                    (label, key, base_val, cur_val,
                     delta_pct(base_val, cur_val), status)
                )
            elif key in RATE_KEYS:
                floor = base_val * (1 - tolerance / 100.0)
                status = "ok"
                if cur_val < floor:
                    status = "FAIL"
                    failures.append(
                        f"{label} {key}: {cur_val:.6g} < {floor:.6g} "
                        f"(baseline {base_val:.6g} - {tolerance}%)"
                    )
                rows.append(
                    (label, key, base_val, cur_val,
                     delta_pct(base_val, cur_val), status)
                )
            elif key in UNGATED_KEYS:
                rows.append(
                    (label, key, base_val, cur_val,
                     delta_pct(base_val, cur_val), "ungated")
                )
    if not any(s in ("exact", "DRIFT", "ok", "FAIL") for *_, s in rows):
        failures.append("no comparable metrics found — empty baseline?")
    return rows, failures


def forced_spill_failures(cur_doc):
    """The out-of-core evidence gate, on the CURRENT run only.

    A row marked spill=1 exists to measure the out-of-core path; it is only
    evidence if bytes actually left RAM. The lemmas bench's spill rows must
    report graph_spill > 0 (the edge stores are the quantity under test);
    the explore bench's must report arena_spill > 0. A spill row carrying
    neither key predates the column and is skipped. Pure: returns a failure
    list, prints nothing.
    """
    failures = []
    for row in cur_doc.get("rows", []):
        if row.get("spill") != 1:
            continue
        label = ",".join(
            f"{k}={row[k]}" for k in ID_KEYS if k in row) or "(row)"
        for key in ("graph_spill", "arena_spill"):
            if key in row and row[key] <= 0:
                failures.append(
                    f"{label} {key}: {row[key]} — forced-spill row never "
                    "pushed bytes to disk (vacuous out-of-core measurement)"
                )
    return failures


def fmt_val(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_table(rows, out=sys.stdout):
    """Render the delta table; every compared metric, pass or fail."""
    header = ("row", "metric", "baseline", "current", "delta%", "status")
    cells = [header]
    for label, key, base_val, cur_val, dp, status in rows:
        cells.append(
            (label, key, fmt_val(base_val), fmt_val(cur_val),
             "n/a" if dp is None else f"{dp:+.2f}", status)
        )
    widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
    for i, row in enumerate(cells):
        print("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)),
              file=out)
        if i == 0:
            print("  " + "-" * (sum(widths) + 2 * (len(widths) - 1)),
                  file=out)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    tolerance = float(os.environ.get("TSB_PERF_TOLERANCE", "25"))
    base_doc = load(sys.argv[1])
    cur_doc = load(sys.argv[2])
    rows, failures = compare(base_doc, cur_doc, tolerance)
    failures += forced_spill_failures(cur_doc)
    print_table(rows)
    gated = sum(1 for *_, s in rows if s in ("exact", "DRIFT", "ok", "FAIL"))
    for msg in failures:
        print(f"PERF REGRESSION: {msg}", file=sys.stderr)
    print(
        f"check_perf: {gated} metrics compared, {len(failures)} failures "
        f"(tolerance {tolerance}%)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: time to a verified n=5 covering certificate.

    python3 perfbench/run.py --workload adv5 --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds perfbench_runner (this directory's
CMake project, which includes the repository's own build, Release) into
$CARGO_TARGET_DIR or .bench_build, then runs Zhu's Theorem 1 construction
against BallotConsensus(5, 15) with valency cap 2M, the run `tsb adversary 5`
makes, one fresh runner process per construction. Each construction is one
operation; it fails unless it ends with a verified certificate that matches
the expected counts and certificate below.

--trace 0 measures end-to-end metrics: one warm-up construction, then as
many constructions back to back as fit in --seconds, each followed by a
set-up probe; it reports medians. --trace 1 makes TRACED_RUNS untraced and
TRACED_RUNS traced constructions and reports per-layer metrics from the
traced one with the median wall time. The last stdout line is one JSON
object: correct, attempted, failed, metrics. Progress and build output go to
stderr.

The construction is deterministic (Proposition 2 fixes the inputs), so
--seed is recorded and changes nothing. See README.md for the workloads.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import measure

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("adv5", "adv5_t4", "campaign5")

# The correctness gate: every construction, on every workload, must
# reproduce these counts and adv5's certificate exactly.
EXPECTED = {
    "reach_expanded": 753_357,
    "reach_reused": 45_779,
    "reach_nodes": 265_560,
    "valency_queries": 154,
    "valency_cache_hits": 117,
    "distinct_registers": 4,
}
EXPECTED_CKPT_WRITES = {"adv5": 0, "adv5_t4": 0, "campaign5": 2}
# sha256 of certificate_key() of adv5's verified certificate.
CERT_SHA256 = "fe67efb1621fb68cee3b215aed6e7d60974ea966b8293888dc687a1ee2f48b5e"

TRACED_RUNS = 3            # untraced and traced constructions per traced run
RUN_LIMIT_S = 170.0        # a run must exit within 180 s of starting
CAMPAIGN_FREE_BYTES = 256 << 20  # a campaign writes ~55 MB
MIB = float(1 << 20)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring perfbench_runner up to date."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        sys.exit("perfbench: run from the repository root "
                 "(no CMakeLists.txt and src/ here)")
    os.makedirs(build_dir, exist_ok=True)
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir])
    steps.append(["cmake", "--build", cmake_dir, "--target",
                  "perfbench_runner", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(cmake_dir, "perfbench_runner")


def certificate_key(rec):
    cert = {k: rec[k] for k in ("inputs", "schedule", "covering")}
    return json.dumps(cert, sort_keys=True, separators=(",", ":"))


def gate(workload, rc, rec, run_dir, trace):
    """Why this construction fails the correctness gate ([] = it passes)."""
    if rc != 0:
        return [f"runner exit code {rc}"]
    if rec is None:
        return ["no result line"]
    problems = []
    if not rec["ok"]:
        kind = ("budget stop" if rec["budget_exhausted"] else
                "checkpoint stop" if rec["stopped"] else "no certificate")
        problems.append(f"{kind}: {rec['error']}")
    if not rec["check_ok"]:
        problems.append("certificate check failed")
    for key, want in EXPECTED.items():
        if rec[key] != want:
            problems.append(f"{key} {rec[key]} != {want}")
    digest = hashlib.sha256(certificate_key(rec).encode()).hexdigest()
    if digest != CERT_SHA256:
        problems.append(f"certificate {digest} differs from adv5's")
    if rec["ckpt_writes"] != EXPECTED_CKPT_WRITES[workload]:
        problems.append(f"{rec['ckpt_writes']} checkpoints written, "
                        f"expected {EXPECTED_CKPT_WRITES[workload]}")
    if workload == "campaign5":
        if not os.path.isfile(os.path.join(run_dir, "ckpt", "manifest.tsb")):
            problems.append("checkpoint manifest missing")
        leftovers = glob.glob(os.path.join(run_dir, "**", "*.tmp"),
                              recursive=True)
        if leftovers:
            problems.append(f"leftover temporary files: {leftovers}")
    if trace:
        if not rec["recheck_ok"]:
            problems.append("certificate recheck failed")
        if rec["trace_dropped"]:
            problems.append(f"{rec['trace_dropped']} trace events dropped")
        counters = rec["counters"]
        engine_steps = (counters.get("sim.steps.read", 0) +
                        counters.get("sim.steps.write", 0))
        if rec["steps"] != engine_steps:
            problems.append(f"protocol wrapper saw {rec['steps']} steps, "
                            f"the engine counted {engine_steps}")
    return problems


class Bench:
    def __init__(self, runner, workload, work_dir, deadline):
        self.runner = runner
        self.workload = workload
        self.work_dir = work_dir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def spawn(self, run_dir, *extra):
        """Run the runner once; (exit code, parsed last stdout line)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.monotonic_ns()
        proc = subprocess.Popen(
            [self.runner, "--workload", self.workload, "--dir", run_dir,
             "--t0-ns", str(t0), *extra],
            stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            return f"killed after {timeout:.0f} s", None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = out.strip().splitlines()
        try:
            return proc.returncode, json.loads(lines[-1]) if lines else None
        except ValueError:
            return proc.returncode, None

    def setup_probe(self):
        run_dir = tempfile.mkdtemp(prefix="run-", dir=self.work_dir)
        try:
            rc, rec = self.spawn(run_dir, "--setup-only")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if rc != 0 or rec is None:
            sys.exit(f"perfbench: set-up probe failed ({rc})")
        return rec["setup_ns"] / 1e9

    def construct(self, trace=False):
        """One construction, gated. Returns its record, or None if it
        fails the gate; traced records also carry their parsed spans and
        stats."""
        if (self.workload == "campaign5" and
                shutil.disk_usage(self.work_dir).free < CAMPAIGN_FREE_BYTES):
            sys.exit("perfbench: less than 256 MiB free for campaign files")
        self.attempted += 1
        run_dir = tempfile.mkdtemp(prefix="run-", dir=self.work_dir)
        try:
            rc, rec = self.spawn(run_dir, *(["--trace"] if trace else []))
            problems = gate(self.workload, rc, rec, run_dir, trace)
            if rec is not None and trace and rc == 0:
                with open(rec["trace_file"]) as f:
                    rec["spans"] = measure.parse_spans(f)
                with open(rec["stats_file"]) as f:
                    rec["stats"] = measure.parse_records(f)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            log(f"{self.workload}: construction FAILED: {'; '.join(problems)}")
        return None if problems else rec


def end_to_end(bench, seconds):
    # A warm-up construction first, so the binary and the shared libraries
    # are in the page cache before anything is timed.
    bench.construct()
    # Then constructions back to back until `seconds` have passed, each
    # followed by a set-up probe, so set-up is sampled across the whole run.
    recs, setups = [], []
    end = time.monotonic() + seconds
    while time.monotonic() < end and time.monotonic() < bench.deadline - 30:
        rec = bench.construct()
        if rec is not None:
            recs.append(rec)
            setups.append(rec["setup_ns"] / 1e9)
        setups.append(bench.setup_probe())
    if not recs:
        sys.exit("perfbench: no construction passed the correctness gate")
    log(f"{bench.workload}: {len(recs)} timed constructions, "
        f"{len(setups)} set-up samples")
    return {
        "wall_s": (measure.median([r["wall_ns"] / 1e9 for r in recs]), "s"),
        "peak_rss_mib": (measure.median([r["maxrss_kb"] / 1024 for r in recs]),
                         "MiB"),
        "setup_s": (measure.median(setups), "s"),
        "disk_write_mib": (measure.median([r["wchar"] / MIB for r in recs]),
                           "MiB"),
    }


def per_layer(bench):
    """Per-layer metrics of the traced construction with the median wall
    time, with the untraced constructions before it as the overhead
    baseline."""
    base = [bench.construct() for _ in range(TRACED_RUNS)]
    traced = [bench.construct(trace=True) for _ in range(TRACED_RUNS)]
    base = [r for r in base if r is not None]
    traced = sorted((r for r in traced if r is not None),
                    key=lambda r: r["wall_ns"])
    if not base or not traced:
        sys.exit("perfbench: no traced construction passed the gate")
    rec = traced[len(traced) // 2]
    base_wall = measure.median([r["wall_ns"] for r in base]) / 1e9
    wall = rec["wall_ns"] / 1e9
    spans = rec["spans"]
    peaks = measure.ledger_peaks(rec["stats"])
    counters = rec["counters"]

    q_count, q_ns = measure.span_total(spans, "valency.query")
    q_ms = [s.dur / 1e6 for s in spans if s.name == "valency.query"] or [0.0]
    q_tail = measure.tail_percentile(len(q_ms))
    q_busy = q_ns / 1e9
    construct_self = measure.self_time(spans, "adversary.run",
                                       {"valency.query"}) / 1e9

    timer = rec["timer_ns"]
    step_ns = [max(0, x - timer) for x in rec["step_ns"]] or [0]
    poised_ns = [max(0, x - timer) for x in rec["poised_ns"]] or [0]
    protocol_busy = (rec["steps"] * sum(step_ns) / len(step_ns) +
                     rec["poised_calls"] * sum(poised_ns) / len(poised_ns))

    expanded, reused = rec["reach_expanded"], rec["reach_reused"]
    cpu = (rec["utime_ns"] + rec["stime_ns"]) / 1e9
    ckpt_s = rec["ckpt_write_ms"] / 1e3
    ckpt_mib = rec["ckpt_bytes"] / MIB
    queries = rec["valency_queries"]
    step_tail = measure.tail_percentile(len(step_ns))
    return {
        # step semantics (consensus, sim/engine), via the forwarding protocol
        "consensus.steps": (rec["steps"], "count"),
        "consensus.poised_calls": (rec["poised_calls"], "count"),
        "consensus.step_ns": (measure.median(step_ns), "ns"),
        "consensus.step_tail_ns": (
            measure.percentile(step_ns, step_tail or 100), "ns"),
        "consensus.step_samples": (len(rec["step_ns"]), "count"),
        "consensus.busy_s": (protocol_busy / 1e9, "s"),
        # reach graph + arena (sim/reach_graph, sim/config_arena)
        "reach.queries": (q_count, "count"),
        "reach.query_busy_s": (q_busy, "s"),
        "reach.query_p50_ms": (measure.percentile(q_ms, 50), "ms"),
        "reach.query_tail_ms": (measure.percentile(q_ms, q_tail or 100), "ms"),
        "reach.edges_expanded": (expanded, "count"),
        "reach.edges_reused": (reused, "count"),
        "reach.reuse_ratio": (reused / (expanded + reused), "ratio"),
        "reach.nodes": (rec["reach_nodes"], "count"),
        "reach.new_node_ratio": (rec["reach_nodes"] / expanded, "ratio"),
        "reach.edges_per_s": (expanded / q_busy if q_busy else 0.0, "1/s"),
        "reach.fact_answers": (counters.get("bound.reach_fact_answers", 0),
                               "count"),
        "reach.fact_subsumed": (counters.get("bound.reach_fact_subsumed", 0),
                                "count"),
        "mem.reach_nodes_mib": (peaks.get("reach.nodes", 0) / MIB, "MiB"),
        "mem.reach_edges_mib": (peaks.get("reach.edges", 0) / MIB, "MiB"),
        "mem.reach_query_mib": (peaks.get("reach.query", 0) / MIB, "MiB"),
        "mem.reach_facts_mib": (peaks.get("reach.facts", 0) / MIB, "MiB"),
        # valency oracle + lemmas (bound)
        "valency.queries": (queries, "count"),
        "valency.cache_hits": (rec["valency_cache_hits"], "count"),
        "valency.hit_ratio": (rec["valency_cache_hits"] / queries, "ratio"),
        "mem.valency_memo_mib": (peaks.get("valency.memo", 0) / MIB, "MiB"),
        "bound.lemma1_calls": (rec["lemma1_calls"], "count"),
        "bound.lemma3_calls": (rec["lemma3_calls"], "count"),
        "bound.lemma4_calls": (rec["lemma4_calls"], "count"),
        "bound.solo_escapes": (rec["solo_escapes"], "count"),
        "bound.construct_self_s": (construct_self, "s"),
        "bound.certify_s": (rec["certify_ns"] / 1e9, "s"),
        # worker pool (util/worker_pool)
        "pool.task_s": (measure.span_total(spans, "pool.task")[1] / 1e9, "s"),
        "pool.wait_s": (measure.span_total(spans, "pool.wait")[1] / 1e9, "s"),
        "proc.cores_busy": (cpu / wall, "cores"),
        # spill (util/spill_store, arena spill)
        "spill.arena_disk_mib": (peaks.get("arena.spill", 0) / MIB, "MiB"),
        "spill.graph_disk_mib": (peaks.get("graph.spill", 0) / MIB, "MiB"),
        "spill.arena_mapped_mib": (peaks.get("arena.mapped", 0) / MIB, "MiB"),
        "spill.graph_mapped_mib": (peaks.get("graph.mapped", 0) / MIB, "MiB"),
        # checkpoint (util/checkpoint)
        "ckpt.writes": (rec["ckpt_writes"], "count"),
        "ckpt.bytes_mib": (ckpt_mib, "MiB"),
        "ckpt.write_s": (ckpt_s, "s"),
        "ckpt.write_mib_per_s": (ckpt_mib / ckpt_s if ckpt_s else 0.0,
                                 "MiB/s"),
        # process
        "proc.user_s": (rec["utime_ns"] / 1e9, "s"),
        "proc.sys_s": (rec["stime_ns"] / 1e9, "s"),
        "proc.minor_faults": (rec["minflt"], "count"),
        "proc.major_faults": (rec["majflt"], "count"),
        "proc.vol_ctx_switches": (rec["nvcsw"], "count"),
        "proc.invol_ctx_switches": (rec["nivcsw"], "count"),
        "proc.write_mib": (rec["write_bytes"] / MIB, "MiB"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_pct": (100.0 * (wall / base_wall - 1), "%"),
        "trace.accounted_pct": (100.0 * (q_busy + construct_self) / wall, "%"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Unwind on SIGTERM too, so the runner child is killed and reaped and
    # the run directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    runner = build(build_dir)
    log(f"workload {args.workload}, seed {args.seed} (recorded; the "
        "construction is deterministic, so it changes nothing)")

    # The 180 s limit starts after the build, which the first run pays.
    bench = Bench(runner, args.workload, build_dir,
                  deadline=time.monotonic() + RUN_LIMIT_S)
    if args.trace:
        metrics = per_layer(bench)
    else:
        metrics = end_to_end(bench, args.seconds)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()

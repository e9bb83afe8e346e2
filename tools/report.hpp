#pragma once

// Run-forensics analyzer behind `tsb report` (and the benches' per-level
// tables): ingests the JSONL artifacts a run leaves behind — trace events
// (--trace=*.jsonl), the run record stream (--stats: engine records, the
// adversary's decision trail, telemetry ticks), chaos records (--out) and
// flight dumps (--flight) — and renders a human report plus a
// machine-diffable one-line baseline JSON.
//
// The analyzer is deliberately file-format driven, not in-process: it reads
// only what the sinks wrote, so `tsb report` works on artifacts from any
// run (CI uploads, a colleague's machine) and doubles as a check that the
// emitters produce well-formed, complete records.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tsb::report {

/// Minimal recursive-descent JSON reader — just enough for the sinks'
/// output (objects, arrays, strings, numbers, booleans, null). Exists so
/// the analyzer has zero dependencies; not a general-purpose parser
/// (numbers via strtod, nesting capped at kMaxJsonDepth).
struct JsonValue {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* find(std::string_view key) const;
  double num_or(std::string_view key, double def) const;
  std::int64_t int_or(std::string_view key, std::int64_t def) const;
  bool bool_or(std::string_view key, bool def) const;
  std::string str_or(std::string_view key, std::string_view def) const;
  std::vector<int> int_array(std::string_view key) const;
};

/// Deepest array/object nesting parse_json accepts. Every emitter nests at
/// most 3 levels; the cap keeps a hostile line of brackets from exhausting
/// the stack of the recursive-descent reader.
constexpr int kMaxJsonDepth = 64;

/// Parse one complete JSON value from `text`; false on malformed input,
/// nesting deeper than kMaxJsonDepth, or trailing garbage.
bool parse_json(std::string_view text, JsonValue& out);

/// Rows the report's ranked tables keep (heaviest reachability passes,
/// hottest registers).
constexpr std::size_t kTopK = 5;
/// `tsb report --compare` gate: B's wall time may grow, and its throughput
/// shrink, by at most this many percent of A's.
constexpr double kTolerancePct = 25.0;

/// Aggregated view of one run's artifacts, and the one reader of the
/// stats stream: `tsb report`, `tsb report --compare` and `tsb monitor` are
/// all views of it. Feed every line of every file through ingest_line or
/// load (order within a file matters for "last event wins" fields; file
/// order does not), then finalize() once. A line with "ph" is a trace
/// event; every other line is dispatched once, on its "type". A
/// crash-truncated final line is tolerated (counted as malformed, never
/// fatal): the sink flushes per tick, so the worst case a kill -9 leaves
/// behind is one torn tail line.
class RunReport {
 public:
  void ingest_line(const std::string& line);
  /// Ingest every line of `path`. False, with *error saying why, when the
  /// file cannot be opened or is a Chrome trace_event document (what
  /// --trace writes without a .jsonl suffix, for Perfetto); content
  /// problems in a JSONL file just bump lines_malformed(). A file is one
  /// run: the alert rules' window starts afresh at its first tick.
  bool load(const std::string& path, std::string* error = nullptr);
  /// Derive everything the views read (self times, consistency, alerts).
  /// Call once all input is ingested, before any render.
  void finalize();

  /// The full human-readable report: phase breakdown, per-level table,
  /// valency cache stats, hottest registers, telemetry, covering narrative
  /// vs certificate.
  void render_text(std::ostream& out) const;
  /// The telemetry section alone (what `tsb monitor` repaints): the last
  /// tick's phase, uptime, rate, ETA to the cap, deadline, ledger,
  /// sparkline trends and still-latched alerts. Prints nothing without
  /// telemetry records.
  void render_telemetry(std::ostream& out) const;

  /// One-line JSON of the run's deterministic outcomes (no timings), for
  /// BENCH_*.json trajectory files: diffing two baselines answers "did the
  /// construction change?" without eyeballing reports.
  std::string baseline_json() const;

  /// False iff a certificate event is present and its replay-verified
  /// registers/clone count disagree with the construction's own narrative
  /// (covering.pre_escape + final solo_escape), or it failed verification.
  bool consistent() const { return consistent_; }
  bool has_certificate() const { return have_cert_; }

  /// Chaos-campaign outcomes (chaos.run / chaos.campaign records). A
  /// violation or solo failure in the ingested records fails the report;
  /// a budget-exhausted adversary run does not — that is clean truncation.
  std::uint64_t chaos_violations() const {
    return chaos_violations_ + chaos_solo_fails_;
  }

  /// valency.pass records whose witness failed the de-canonicalized
  /// replay (replay_ok:false). Any such record fails the report: it means
  /// the shared-subgraph engine handed back an unsound witness.
  std::uint64_t replay_failures() const { return reuse_replay_failures_; }
  /// Stored-edge traversals / (expansions + traversals) over all ingested
  /// shared-engine valency.pass records; 0 when none were ingested.
  double reuse_rate() const {
    const double total =
        static_cast<double>(reuse_expanded_ + reuse_reused_);
    return total > 0 ? static_cast<double>(reuse_reused_) / total : 0.0;
  }
  std::uint64_t reuse_records() const { return reuse_records_; }
  bool budget_exhausted() const { return budget_exhausted_; }

  // Checkpointing (ckpt.write records + adversary.resume/.stopped
  // events). Writes/bytes/ms are cadence-dependent, so they render
  // as an overhead line but never enter the baseline JSON.
  std::uint64_t ckpt_writes() const { return ckpt_writes_; }
  std::uint64_t ckpt_bytes() const { return ckpt_bytes_; }
  std::uint64_t ckpt_write_ms() const { return ckpt_ms_; }
  bool resumed() const { return ckpt_resumed_; }
  bool checkpoint_stopped() const { return ckpt_stopped_; }

  std::uint64_t lines_ingested() const { return lines_; }
  std::uint64_t lines_malformed() const { return malformed_; }

  // --- introspection artifacts (ledger / flight recorder) ---------------
  /// Bytes per ledger account from the last "ledger" record (the CLI
  /// writes one at exit; mid-run records are cumulative gauges, so last
  /// wins is the final state).
  const std::map<std::string, std::int64_t>& ledger_accounts() const {
    return ledger_accounts_;
  }
  std::uint64_t flight_events() const { return flight_rows_.size(); }
  std::string flight_dump_reason() const { return flight_reason_; }

  // --- telemetry (heartbeat ticks and the alerts derived from them) -----
  /// One "telemetry.tick" record. Counter-shaped fields are cumulative (the
  /// sampler never diffs); negative means the emitting engine did not
  /// supply the field on that tick.
  struct Tick {
    std::int64_t tick = 0;
    std::int64_t ts_ns = 0;  ///< the stats sink's clock
    std::string phase;
    std::int64_t level = -1;
    std::int64_t frontier = -1;
    std::int64_t visited = -1;
    std::int64_t cap = -1;
    std::int64_t covered = -1;  ///< distinct covered registers (lemma4)
    double cps = -1.0;  ///< interval rate, valid only within one phase
    double deadline_s = -1.0;  ///< seconds left under --time-budget-ms
    std::int64_t flight_events = -1;  ///< flight-recorder events so far
    std::int64_t peak_rss_kb = 0;
    std::int64_t ledger_total = 0;
    std::map<std::string, std::int64_t> ledger;    ///< account -> bytes
    std::map<std::string, std::int64_t> counters;  ///< registry counters
    std::int64_t mem_budget = 0;        ///< --mem-budget; 0 = none
    std::int64_t ckpt_age_s = -1;       ///< s since last checkpoint; -1 = off
    std::int64_t ckpt_interval_ms = 0;  ///< wall-clock cadence; 0 = none
  };
  /// One watchdog episode finalize() derives from the ticks: the rule's
  /// condition rose on `tick` and fell on `cleared_tick` (-1 = still
  /// latched at the end of the stream). The rules, over the last 16 ticks
  /// of the current phase of one file (a file is one run):
  ///   throughput_collapse  cps under 30% of the trailing median
  ///   spill_thrash         arena.mapped churn over 2x its peak with
  ///                        visited growth under 1%
  ///   ledger_runaway       ledger_total at mem_budget, or projected to
  ///                        reach it within 60 s
  ///   checkpoint_stall     ckpt_age_s past max(3x the cadence, 5 s)
  struct Alert {
    std::string rule;
    std::int64_t tick = 0;
    std::int64_t ts_ns = 0;
    std::string phase;
    std::string detail;
    std::int64_t cleared_tick = -1;
  };
  const std::vector<Tick>& ticks() const { return ticks_; }
  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Rules with an episode still latched at the end of the stream.
  std::vector<std::string> active_alerts() const;
  /// True iff tick ids strictly increase (the sampler's invariant).
  bool monotonic() const;

  // --- aggregates (public: the benches read them directly) ---------------
  /// Per-name span totals. self_ms is each span's duration minus its
  /// direct children's on the same tid, summed; finalize() computes it.
  struct SpanAgg {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  struct LevelRow {
    std::string who;
    std::int64_t level = 0;
    std::int64_t frontier = 0;
    std::int64_t discovered = 0;
    std::int64_t dedup = 0;
    double dedup_rate = 0.0;
    double ms = 0.0;
    double configs_per_sec = 0.0;
    std::int64_t arena_bytes = 0;
  };
  const std::map<std::string, SpanAgg>& spans() const { return spans_; }
  const std::vector<LevelRow>& levels() const { return levels_; }

 private:
  void ingest_trace(const JsonValue& v);
  /// The one dispatch for typed records: stats, decision trail, chaos and
  /// flight records alike.
  void ingest_record(const JsonValue& v, const std::string& type);
  void ingest_tick(const JsonValue& v);
  void derive_alerts(std::size_t begin, std::size_t end);
  void count_regs(const std::vector<int>& regs);

  std::uint64_t lines_ = 0;
  std::uint64_t malformed_ = 0;

  // Trace. Complete spans are kept, in ns, until finalize() nests them.
  struct TraceSpan {
    std::int64_t tid = 0;
    double start_ns = 0.0;
    double end_ns = 0.0;
    std::string name;
  };
  std::uint64_t trace_events_ = 0;
  std::map<std::string, SpanAgg> spans_;
  std::vector<TraceSpan> trace_spans_;

  // Engine records.
  std::vector<LevelRow> levels_;
  std::uint64_t explore_runs_ = 0;
  std::uint64_t explore_visited_ = 0;
  std::uint64_t explore_dedup_ = 0;
  double explore_ms_ = 0.0;
  std::uint64_t mc_inputs_ = 0;

  // Decision trail.
  std::string protocol_;
  int n_ = 0;
  std::uint64_t valency_queries_ = 0;
  std::uint64_t valency_memo_hits_ = 0;
  std::uint64_t valency_explores_ = 0;  ///< valency.pass records
  std::uint64_t lemma1_ = 0;
  std::uint64_t lemma3_ = 0;
  std::uint64_t lemma4_ = 0;
  std::uint64_t stages_ = 0;
  std::uint64_t pigeonholes_ = 0;
  std::uint64_t block_writes_ = 0;
  std::uint64_t clones_ = 0;  ///< solo_escape events with found=true
  std::map<int, std::uint64_t> reg_cover_counts_;

  // Shared-subgraph engine (the valency.pass records that carry engine
  // counters; orbit_* counts those that also carry "canonical").
  struct ReuseRow {
    std::int64_t config = 0;
    std::string procs;
    std::uint64_t expanded = 0;
    std::uint64_t reused = 0;
    std::uint64_t visited = 0;
    bool from_facts = false;
    bool replay_ok = true;
  };
  std::vector<ReuseRow> reuse_rows_;
  std::uint64_t reuse_records_ = 0;
  std::uint64_t reuse_expanded_ = 0;
  std::uint64_t reuse_reused_ = 0;
  std::uint64_t reuse_fact_answers_ = 0;
  std::uint64_t reuse_truncated_ = 0;
  std::uint64_t reuse_replay_failures_ = 0;
  std::int64_t reuse_graph_nodes_ = 0;  ///< last record wins (monotone)
  std::int64_t reuse_facts_ = 0;        ///< last record wins (monotone)
  std::uint64_t orbit_records_ = 0;
  std::uint64_t orbit_nonidentity_ = 0;
  bool have_pre_escape_ = false;
  std::vector<int> pre_escape_regs_;
  bool have_escape_ = false;
  int last_escape_reg_ = -1;

  // Chaos (fault-injection campaign).
  struct ChaosTargetAgg {
    std::uint64_t runs = 0;
    std::uint64_t violations = 0;
    std::uint64_t solo_fails = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t steps = 0;
  };
  std::map<std::string, ChaosTargetAgg> chaos_targets_;
  std::uint64_t chaos_runs_ = 0;
  std::uint64_t chaos_violations_ = 0;
  std::uint64_t chaos_solo_fails_ = 0;
  std::uint64_t chaos_timeouts_ = 0;
  std::uint64_t chaos_steps_ = 0;
  std::string chaos_first_bad_;  ///< seed + detail of first bad run
  bool have_chaos_campaign_ = false;
  std::string chaos_campaign_line_;  ///< campaign summary, re-rendered as-is
  bool budget_exhausted_ = false;
  std::string budget_detail_;

  // Checkpointing.
  std::uint64_t ckpt_writes_ = 0;
  std::uint64_t ckpt_bytes_ = 0;   ///< sum of per-write state bytes
  std::uint64_t ckpt_ms_ = 0;      ///< sum of per-write wall ms (overhead)
  std::int64_t ckpt_last_generation_ = 0;
  std::string ckpt_last_why_;
  /// Payload bytes per section of the last write, in write order.
  std::vector<std::pair<std::string, std::int64_t>> ckpt_last_sections_;
  bool ckpt_resumed_ = false;      ///< run restored a checkpoint first
  bool ckpt_stopped_ = false;      ///< run ended checkpointed-and-stopped

  // Introspection: memory ledger ("ledger"), flight recorder
  // ("flight.dump"/"flight.event").
  std::map<std::string, std::int64_t> ledger_accounts_;
  std::map<std::string, std::int64_t> ledger_peaks_;
  std::int64_t ledger_total_ = 0;
  std::int64_t ledger_peak_total_ = 0;
  struct FlightRow {
    std::int64_t tid = 0;
    std::int64_t seq = 0;
    std::int64_t ts_ns = 0;
    std::string ev;
    std::int64_t a = 0;
    std::int64_t b = 0;
  };
  std::vector<FlightRow> flight_rows_;
  std::string flight_reason_;
  std::int64_t flight_threads_ = 0;
  std::int64_t flight_total_events_ = 0;

  // Telemetry: the stream's heartbeat ticks, the index of each loaded
  // file's first tick, and finalize()'s alerts.
  std::vector<Tick> ticks_;
  std::vector<std::size_t> run_starts_;
  std::vector<Alert> alerts_;

  // Certificate (last one wins).
  bool have_cert_ = false;
  bool cert_verified_ = false;
  std::int64_t cert_distinct_ = 0;
  std::vector<int> cert_regs_;
  std::int64_t cert_clones_ = -1;
  std::int64_t cert_schedule_len_ = 0;
  std::string cert_error_;

  // finalize() results.
  bool consistent_ = true;
  std::vector<int> narrative_regs_;
};

/// Ingest `files`, render the report to `out`, and end it with the
/// "baseline: {...}" line. Returns a process exit code: 0 ok, 1 certificate
/// missing verification or inconsistent with the narrative, a chaos
/// violation or a witness replay failure, 2 a file could not be read.
int analyze_files(const std::vector<std::string>& files, std::ostream& out);

/// Fixed-width block-character trend of `xs` (min..max scaled to 8 levels),
/// downsampled by averaging when xs.size() > width. Empty input -> spaces.
std::string sparkline(const std::vector<double>& xs, std::size_t width);

/// `tsb report --compare A B` on two stats files: per-phase, per-metric
/// delta table of B's telemetry ticks against baseline A's. Wall time and
/// throughput are gated at kTolerancePct (B regressing past it fails);
/// memory and rss deltas are informational. Returns 0 within tolerance, 1
/// regression past tolerance, 2 a file could not be read or holds no ticks.
int compare_timelines(const std::string& path_a, const std::string& path_b,
                      std::ostream& out);

}  // namespace tsb::report

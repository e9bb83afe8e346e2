#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tsb::obs {

/// One-line JSON object builder for structured forensics records.
///
/// Every record the stats and chaos sinks carry is a flat-ish JSON object
/// built field by field; the builder owns escaping and comma placement so
/// emitters never hand-assemble JSON. Methods return *this for chaining:
///
///   audit_event("explore.level").num("frontier", 128).render()
///
/// num() takes std::int64_t (casts at call sites keep overload resolution
/// trivial); raw() splices a pre-rendered JSON value (arrays, nested
/// objects) verbatim.
class JsonObj {
 public:
  JsonObj() : s_("{") {}

  JsonObj& num(std::string_view key, std::int64_t v);
  JsonObj& numf(std::string_view key, double v);
  JsonObj& boolean(std::string_view key, bool v);
  JsonObj& str(std::string_view key, std::string_view v);
  JsonObj& raw(std::string_view key, std::string_view json);

  /// Finish the object. The builder is spent afterwards.
  std::string render();

 private:
  void key(std::string_view k);
  std::string s_;
  bool first_ = true;
};

/// "[1,2,3]" — the array form stats records use for register sets,
/// shard occupancies and input vectors.
std::string json_int_array(const std::vector<int>& xs);

namespace detail {
// Plain globals for the same reason as g_trace_enabled: the disabled check
// at an instrumentation site must be one relaxed load, nothing more.
extern std::atomic<bool> g_stats_enabled;
extern std::atomic<bool> g_chaos_enabled;
}  // namespace detail

/// True while the run record stream (--stats) is being recorded.
inline bool stats_enabled() {
  return detail::g_stats_enabled.load(std::memory_order_relaxed);
}
/// True while chaos-campaign per-run records are being recorded.
inline bool chaos_enabled() {
  return detail::g_chaos_enabled.load(std::memory_order_relaxed);
}

/// A line-oriented JSON sink streaming to a file.
///
/// Unlike the bounded in-memory TraceSink (built for events recorded inside
/// nanosecond-scale operations), a JsonlSink streams: records are rare —
/// one per BFS level, one per adversary decision — and are written through
/// a FILE* under a mutex, so nothing is lost on a crash mid-run and there
/// is no capacity to size. Emitters must gate on stats_enabled() /
/// chaos_enabled() before building a record; write() on a closed sink is a
/// no-op, never an error. A failed write, flush or close (a full disk) is
/// remembered, and close() reports it.
class JsonlSink {
 public:
  explicit JsonlSink(std::atomic<bool>& gate) : gate_(gate) {}
  ~JsonlSink() { close(); }

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  /// Truncate `path`, start the clock, raise the gate. Returns false (gate
  /// stays down) if the file cannot be opened.
  bool open(const std::string& path);
  /// Lower the gate, flush and close. False when any write, flush or the
  /// close itself failed since open(). Safe to call repeatedly.
  bool close();
  bool is_open() const { return gate_.load(std::memory_order_relaxed); }

  /// Nanoseconds since open(); 0 when closed.
  std::uint64_t now_ns() const;

  /// Append one record (a rendered JsonObj) as its own line.
  void write(const std::string& line);
  /// Push buffered records to the file (telemetry ticks call this, so a
  /// killed run loses at most one heartbeat interval).
  void flush();

  std::uint64_t lines() const { return lines_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool>& gate_;
  mutable std::mutex mu_;
  std::FILE* f_ = nullptr;
  bool failed_ = false;  ///< a write, flush or close failed since open()
  std::atomic<std::uint64_t> lines_{0};
  std::chrono::steady_clock::time_point epoch_{};
};

/// Process-wide sinks.
///
/// stats_sink() is the run's one typed record stream: per-BFS-level
/// records, one valency.pass per reachability pass, the adversary's Lemma
/// 1-4 decision trail, checkpoint writes, the memory ledger and heartbeat
/// telemetry ticks — measurements only, every one opened by audit_event().
/// `tsb report`, `tsb monitor` and `tsb report --compare` all read it
/// through the one reader, report::RunReport, which also derives the
/// watchdog alerts from the ticks.
///
/// chaos_sink() stays separate: chaos records must carry NO timestamps,
/// because the determinism tests byte-compare whole campaign files.
JsonlSink& stats_sink();
JsonlSink& chaos_sink();

/// Start a stats record: {"type":..., "ts_ns":...}. Every record the
/// stats sink carries opens with it, so each one has the sink's clock
/// (no tid: the stats records all come from the run's one engine thread).
/// Callers append their event's fields and write() the result to
/// stats_sink(); a tick passes the one `ts_ns` it also computes its rate
/// from. Only call when stats_enabled().
inline JsonObj audit_event(std::string_view type,
                           std::uint64_t ts_ns = stats_sink().now_ns()) {
  JsonObj o;
  o.str("type", type).num("ts_ns", static_cast<std::int64_t>(ts_ns));
  return o;
}

}  // namespace tsb::obs

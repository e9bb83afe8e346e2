#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace tsb::obs {

/// Trace event phases, named by their Chrome trace_event letters. kComplete
/// carries a duration (a span); kInstant marks a point; kCounter graphs a
/// named value over time — Perfetto renders counters as a track (export
/// with `tsb report --chrome`), which is how "covered registers over time"
/// becomes a picture of the n-1 bound being forced.
enum class Ph : char {
  kComplete = 'X',
  kInstant = 'i',
  kCounter = 'C',
};

struct TraceEvent {
  const char* name;  ///< static string; the sink never copies names
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
  std::int64_t value;
  std::int32_t tid;
  Ph ph;
};

namespace detail {
// A plain global, not a member behind TraceSink::global(): the disabled
// check must not pay the function-local-static guard on every access.
extern std::atomic<bool> g_trace_enabled;
}  // namespace detail

/// True while a trace is being recorded. The cheapest possible check — one
/// relaxed load of a namespace-scope atomic — so instrumentation sites can
/// gate out before even naming the sink.
inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}

/// Process-wide bounded event sink.
///
/// Disabled (the default) every record call is one relaxed load — cheap
/// enough to leave instrumentation in hot paths unconditionally. Enabled,
/// a record claims a distinct slot with one relaxed fetch_add and fills it;
/// no two threads ever write the same slot, so recording is TSan-clean.
/// When the buffer is full new events are counted as dropped rather than
/// wrapping: overwriting a slot another thread may still be filling would
/// be a race, and for our workloads the interesting prefix (construction
/// rounds, first contention) is worth more than the steady-state tail.
///
/// Exports happen after the run quiesces (threads joined / work done).
///
/// Kept apart from the stats stream on purpose: spans bracket nanosecond-
/// scale work, where a mutex-guarded FILE* append per event would swamp
/// what it measures, so events go to a bounded in-memory buffer and are
/// written out once at exit as JSONL (what `tsb report` and perfbench's
/// runner read).
class TraceSink {
 public:
  static TraceSink& global();

  /// Start recording into a fresh buffer of `capacity` events; the time
  /// origin is now. The buffer is left uninitialised, so its pages are
  /// committed only as events land. Not thread-safe against concurrent
  /// recording.
  void enable(std::size_t capacity = 1 << 20);
  void disable();
  bool enabled() const { return trace_enabled(); }

  /// Nanoseconds since enable(); 0 when disabled.
  std::uint64_t now_ns() const;

  // The record calls are inline so that when the sink is disabled an
  // instrumentation site compiles down to one relaxed load and a branch —
  // cheap enough to sit inside a register access.
  void complete(const char* name, std::uint64_t ts_ns, std::uint64_t dur_ns,
                std::int64_t value = 0) {
    if (!enabled()) return;
    record({name, ts_ns, dur_ns, value, thread_id(), Ph::kComplete});
  }
  void instant(const char* name, std::int64_t value = 0) {
    if (!enabled()) return;
    record({name, now_ns(), 0, value, thread_id(), Ph::kInstant});
  }
  /// Counter track: the named series takes `value` at the current time.
  void counter(const char* name, std::int64_t value) {
    if (!enabled()) return;
    record({name, now_ns(), 0, value, thread_id(), Ph::kCounter});
  }

  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Drops broken out by event category, so a full buffer's victims are
  /// attributable: losing counter samples thins a track, losing spans
  /// removes whole phases from the timeline. Exported as registry gauges
  /// by disable(), which puts them on the --metrics JSON line.
  std::uint64_t dropped(Ph ph) const {
    return dropped_by_[ph_index(ph)].load(std::memory_order_relaxed);
  }

  /// One JSON object per line, ts_ns/dur_ns in nanoseconds; a counter's
  /// value is keyed by its name in args, every other event's by "value".
  void write_jsonl(std::ostream& out) const;
  /// write_jsonl to `path`, whatever its suffix. False if the file can't be
  /// opened or written in full.
  bool write_file(const std::string& path) const;

  /// Events recorded so far, in claim order (quiescent callers only).
  std::vector<TraceEvent> snapshot() const;

 private:
  static int ph_index(Ph ph) {
    return ph == Ph::kComplete ? 0 : ph == Ph::kInstant ? 1 : 2;
  }

  void record(const TraceEvent& ev);

  std::atomic<std::size_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> dropped_by_[3] = {};  // span, instant, counter
  std::unique_ptr<TraceEvent[]> buf_;
  std::size_t capacity_ = 0;
  std::chrono::steady_clock::time_point epoch_{};
};

/// Free-function entry points for the hottest instrumentation sites: with
/// tracing disabled these are one relaxed load and a predicted branch —
/// the sink singleton (and its init guard) is never touched.
inline void trace_instant(const char* name, std::int64_t value = 0) {
  if (trace_enabled()) TraceSink::global().instant(name, value);
}
inline void trace_counter(const char* name, std::int64_t value) {
  if (trace_enabled()) TraceSink::global().counter(name, value);
}

}  // namespace tsb::obs

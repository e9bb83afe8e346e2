#include "obs/trace_sink.hpp"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"

namespace tsb::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

TraceSink& TraceSink::global() {
  // Leaked for the same reason as Registry::global(): instrumentation in
  // destructors must never observe a dead sink.
  static TraceSink* sink = new TraceSink;
  return *sink;
}

void TraceSink::enable(std::size_t capacity) {
  buf_.assign(capacity, TraceEvent{});
  head_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  for (auto& d : dropped_by_) d.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  detail::g_trace_enabled.store(true, std::memory_order_release);
}

void TraceSink::disable() {
  detail::g_trace_enabled.store(false, std::memory_order_release);
  // Surface the recording's fate where machines look for it: the metrics
  // JSON line (zero-valued gauges are elided by Registry::json, so a clean
  // run adds only the event count).
  Registry& reg = Registry::global();
  reg.gauge("obs.trace.events").set(static_cast<std::int64_t>(size()));
  reg.gauge("obs.trace.dropped.span")
      .set(static_cast<std::int64_t>(dropped(Ph::kComplete)));
  reg.gauge("obs.trace.dropped.instant")
      .set(static_cast<std::int64_t>(dropped(Ph::kInstant)));
  reg.gauge("obs.trace.dropped.counter")
      .set(static_cast<std::int64_t>(dropped(Ph::kCounter)));
}

std::uint64_t TraceSink::now_ns() const {
  if (!enabled()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void TraceSink::record(const TraceEvent& ev) {
  const std::size_t idx = head_.fetch_add(1, std::memory_order_relaxed);
  if (idx >= buf_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    dropped_by_[ph_index(ev.ph)].fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buf_[idx] = ev;
}

std::size_t TraceSink::size() const {
  return std::min(head_.load(std::memory_order_relaxed), buf_.size());
}

namespace {
// Event names are static identifiers (no quotes/backslashes), but escape
// defensively anyway so a stray name cannot corrupt the JSON.
void write_escaped(std::ostream& out, const char* s) {
  for (; *s; ++s) {
    if (*s == '"' || *s == '\\') out << '\\';
    out << *s;
  }
}

void write_event_fields(std::ostream& out, const TraceEvent& ev, double scale,
                        const char* ts_key, const char* dur_key) {
  out << "{\"name\":\"";
  write_escaped(out, ev.name ? ev.name : "?");
  out << "\",\"ph\":\"" << static_cast<char>(ev.ph) << "\",\"pid\":1,\"tid\":"
      << ev.tid << ",\"" << ts_key << "\":"
      << static_cast<std::uint64_t>(static_cast<double>(ev.ts_ns) * scale);
  if (ev.ph == Ph::kComplete) {
    out << ",\"" << dur_key << "\":"
        << static_cast<std::uint64_t>(static_cast<double>(ev.dur_ns) * scale);
  }
  if (ev.ph == Ph::kCounter) {
    // The counter's track value lives in args keyed by the event name.
    out << ",\"args\":{\"";
    write_escaped(out, ev.name ? ev.name : "?");
    out << "\":" << ev.value << '}';
  } else {
    out << ",\"args\":{\"value\":" << ev.value << '}';
  }
  if (ev.ph == Ph::kInstant) out << ",\"s\":\"t\"";
  out << '}';
}
}  // namespace

void TraceSink::write_chrome_trace(std::ostream& out) const {
  const std::size_t n = size();
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out << ",\n";
    write_event_fields(out, buf_[i], 1e-3, "ts", "dur");
  }
  out << "]}\n";
}

void TraceSink::write_jsonl(std::ostream& out) const {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    write_event_fields(out, buf_[i], 1.0, "ts_ns", "dur_ns");
    out << '\n';
  }
}

bool TraceSink::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0) {
    write_jsonl(out);
  } else {
    write_chrome_trace(out);
  }
  out.close();  // flushes: a full disk fails here, not silently
  return !out.fail();
}

std::vector<TraceEvent> TraceSink::snapshot() const {
  const std::size_t n = size();
  return std::vector<TraceEvent>(buf_.begin(),
                                 buf_.begin() + static_cast<std::ptrdiff_t>(n));
}

}  // namespace tsb::obs

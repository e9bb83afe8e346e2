#pragma once

#include <chrono>
#include <functional>
#include <cstdint>
#include <string>

namespace tsb::obs {

/// Fields a long-running engine contributes to each heartbeat sample (the
/// telemetry tick in the stats stream). Negative values mean "not
/// applicable" and are omitted from the record.
struct Sample {
  const char* phase = "";        ///< "explore", "valency.reach", ...
  std::int64_t level = -1;       ///< current BFS level
  std::int64_t frontier = -1;    ///< configurations awaiting expansion
  std::int64_t visited = -1;     ///< configurations/nodes so far
  std::int64_t cap = -1;         ///< configuration cap (drives ETA-to-cap)
};

/// Global switch for progress heartbeats (CLI --progress). Off by default:
/// library code calls Heartbeat::beat unconditionally and the disabled
/// check is a single relaxed load.
void set_progress(bool on);
bool progress_enabled();

/// Process-wide default Heartbeat interval (CLI --progress-interval-ms).
/// Heartbeats constructed without an explicit interval pick it up; 1000ms
/// until overridden.
void set_progress_interval(std::chrono::milliseconds interval);
std::chrono::milliseconds progress_interval();

/// Rate-limited progress line for long computations. A caller in a hot
/// loop calls beat() with a lambda that renders the line; the lambda runs
/// only when progress is enabled and at most once per interval, so the
/// rendering cost (string building) is never paid on the fast path.
///
///   obs::Heartbeat hb("model-check");
///   ... hb.beat([&] { return "configs=" + std::to_string(n); });
///
/// Lines go to stderr so they interleave with, but do not corrupt,
/// machine-readable stdout.
///
/// The beat is also the engine's slow-path tick: it samples peak RSS into
/// the "process.peak_rss_kb" gauge (so mid-level blowups are visible, not
/// just level boundaries), services pending SIGUSR1 flight-recorder dumps,
/// and — while the stats stream is open — appends a telemetry tick filled
/// by the caller's sample callback at the same cadence.
class Heartbeat {
 public:
  /// Uses the process-wide progress_interval().
  explicit Heartbeat(const char* what);
  Heartbeat(const char* what, std::chrono::milliseconds interval);

  using SampleFn = std::function<void(Sample&)>;

  void beat(const std::function<std::string()>& line);
  /// Same, and let `sample` fill the telemetry tick when the stats stream
  /// is open. The callback runs under the same rate limit as the line.
  void beat(const std::function<std::string()>& line, const SampleFn& sample);

  /// Emit unconditionally (end-of-phase summary), if progress is enabled.
  void flush(const std::string& line);

 private:
  const char* what_;
  std::chrono::milliseconds interval_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_;
};

}  // namespace tsb::obs

#pragma once

#include <chrono>
#include <functional>
#include <cstdint>

namespace tsb::obs {

/// Fields a long-running engine contributes to each heartbeat sample: the
/// one description of its progress, which becomes both the telemetry tick
/// in the stats stream and the --progress stderr line. Negative values mean
/// "not applicable" and are omitted from both.
struct Sample {
  const char* phase = "";        ///< "explore", "valency.reach", ...
  std::int64_t level = -1;       ///< BFS level / D_i stage / input vector
  std::int64_t frontier = -1;    ///< configurations awaiting expansion
  std::int64_t visited = -1;     ///< configurations/nodes so far
  std::int64_t cap = -1;         ///< configuration cap (drives ETA-to-cap)
  std::int64_t covered = -1;     ///< distinct covered registers (lemma4)
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

/// Rate-limited heartbeat for long computations. A caller in a hot loop
/// calls beat() with a callback that fills a Sample; the callback runs only
/// when progress or the stats stream is on, and at most once per interval,
/// so describing the progress is never paid on the fast path.
///
///   obs::Heartbeat hb("model-check");
///   ... hb.beat([&](obs::Sample& s) { s.visited = n; });
///
/// The filled sample is rendered as the --progress line on stderr (so it
/// interleaves with, but does not corrupt, machine-readable stdout) and,
/// while the stats stream is open, appended as a telemetry tick.
///
/// The beat is also the engine's slow-path tick: it samples peak RSS into
/// the "process.peak_rss_kb" gauge (so mid-level blowups are visible, not
/// just level boundaries) and services pending SIGUSR1 flight-recorder
/// dumps.
class Heartbeat {
 public:
  /// Uses the process-wide progress_interval().
  explicit Heartbeat(const char* what);
  Heartbeat(const char* what, std::chrono::milliseconds interval);

  using SampleFn = std::function<void(Sample&)>;

  void beat(const SampleFn& sample);

 private:
  const char* what_;
  std::chrono::milliseconds interval_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_;
};

}  // namespace tsb::obs

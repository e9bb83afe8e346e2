#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace tsb::obs {

/// Fields a long-running engine contributes to the --status-file snapshot.
/// Negative values mean "not applicable" and are omitted from the JSON.
struct StatusSnapshot {
  const char* phase = "";        ///< "explore", "valency.reach", ...
  std::int64_t level = -1;       ///< current BFS level
  std::int64_t frontier = -1;    ///< configurations awaiting expansion
  std::int64_t visited = -1;     ///< configurations/nodes so far
  std::int64_t cap = -1;         ///< configuration cap (drives ETA-to-cap)
};

namespace detail {
extern std::atomic<bool> g_status_enabled;
}  // namespace detail

/// True while a --status-file is configured. One relaxed load, so the
/// Heartbeat path can consult it unconditionally.
inline bool status_enabled() {
  return detail::g_status_enabled.load(std::memory_order_relaxed);
}

/// Configure (or, with "", disable) the live status file. The file is
/// atomically rewritten on every publish: the snapshot is written to
/// `path.tmp` and rename(2)d over `path`, so a reader (`tsb top`, a
/// dashboard poller) never sees a torn JSON document.
void set_status_file(const std::string& path);

/// Wall-clock deadline for the ETA-to-deadline projection (the CLI sets it
/// from --time-budget-ms). 0 clears it.
void set_status_deadline_ms(std::uint64_t ms_from_now);

/// Write one snapshot. Callers are expected to be rate-limited already
/// (Heartbeat::beat publishes at the progress interval); the JSON also
/// carries uptime, configs/sec (visited / uptime), ETA projections, the
/// memory-ledger breakdown and peak RSS. No-op when no file is set.
void publish_status(const StatusSnapshot& s);

}  // namespace tsb::obs

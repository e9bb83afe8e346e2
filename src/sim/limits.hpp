#pragma once

#include <chrono>
#include <cstddef>
#include <string>

namespace tsb::sim {

/// The stopping policy of one construction: built once from the
/// adversary's options (SpaceBoundAdversary::run_impl) and shared by both
/// valency engines, ReachGraph and Explorer, and by the telemetry ticks.
///
///  * max_configs caps one reachability pass. Hitting it truncates the
///    pass, whose negative answers are then unsound: the oracle reports it
///    as ever_truncated(), a failed construction rather than a budget stop.
///  * max_bytes (0 = uncapped) and deadline (time_point::max() = none) are
///    the graceful-degradation budget. check() turns an overrun into
///    util::BudgetExhausted, the clean exit 4, never an OOM, a hang or an
///    unsound negative. What the bytes are depends on the engine: the
///    shared graph counts its whole store, cumulatively across passes; a
///    fresh BFS counts its own pass's arena and frontier. Neither counts
///    the oracle's memo or root arena.
///  * spill is the out-of-core plan: past threshold_bytes (0 = never) of
///    resident bytes, cold full segments are compressed to unlinked files
///    under dir and read back through mmap. Spilled bytes leave the
///    tracked bytes, so max_bytes keeps capping RAM. seg_configs
///    (0 = default) shrinks segments so tests can force spilling on small
///    runs. An engine refuses an unusable dir with util::UsageError.
struct Limits {
  using Clock = std::chrono::steady_clock;

  struct Spill {
    std::string dir = ".";
    std::size_t threshold_bytes = 0;
    std::size_t seg_configs = 0;
    bool armed() const { return threshold_bytes != 0 && !dir.empty(); }
  };

  std::size_t max_configs = 2'000'000;
  std::size_t max_bytes = 0;
  Clock::time_point deadline = Clock::time_point::max();
  Spill spill{};

  /// The one memory/time budget check. Records a budget.check flight
  /// breadcrumb; past max_bytes or the deadline it records budget.trip and
  /// throws util::BudgetExhausted naming `engine` and carrying the memory
  /// ledger's attribution, so the caller refreshes its ledger accounts
  /// first.
  void check(std::size_t tracked_bytes, const char* engine) const;
};

}  // namespace tsb::sim

#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace tsb::obs {

/// Anomaly rules the telemetry watchdog evaluates over the last-k samples.
/// Each names a failure mode a multi-day campaign can silently slide into:
enum class WatchRule : int {
  kThroughputCollapse = 0,  ///< cps far below the trailing median
  kSpillThrash,             ///< mapped-byte churn with flat visited growth
  kLedgerRunaway,           ///< tracked bytes racing toward the mem budget
  kCheckpointStall,         ///< checkpoint age far past the configured cadence
  kCount
};

constexpr int kWatchRules = static_cast<int>(WatchRule::kCount);

/// Rule name as it appears in watch.* records, status files and stderr
/// lines ("throughput_collapse", "spill_thrash", ...).
const char* watch_rule_name(WatchRule r);

/// One telemetry sample, as the watchdog sees it. Negative values mean
/// "unknown this tick" and disable the rules that need them — a run
/// without --mem-budget never trips ledger runaway.
struct WatchSample {
  std::uint64_t tick = 0;
  double t_s = 0.0;               ///< seconds since telemetry open
  std::string phase;              ///< "explore", "valency.reach", ...
  std::int64_t visited = -1;      ///< cumulative configurations this phase
  std::int64_t frontier = -1;     ///< pending work items
  double cps = -1.0;              ///< interval configs/sec; < 0 = unknown
  std::uint64_t mapped_bytes = 0; ///< arena.mapped ledger account
  std::uint64_t spill_bytes = 0;  ///< arena.spill ledger account
  std::uint64_t ledger_total = 0; ///< tracked-heap total
  std::uint64_t mem_budget = 0;   ///< --mem-budget; 0 = none configured
  std::int64_t ckpt_age_s = -1;   ///< s since last checkpoint; -1 = off
  std::uint64_t ckpt_interval_ms = 0;  ///< cadence; 0 disables the rule
};

struct WatchAlert {
  WatchRule rule;
  std::uint64_t tick = 0;  ///< tick the episode started
  std::string detail;      ///< human-readable evidence for the fire
};

/// Rule-driven anomaly detector over a sliding window of telemetry samples.
///
/// Episode semantics: a rule fires on the rising edge of its condition and
/// then stays latched (active) until the condition clears, so a six-hour
/// throughput collapse produces one alert, not 21600 — and a second
/// collapse after recovery produces a second alert. The sample window is
/// scoped to the current phase (a phase change resets it): comparing
/// lemma4's rate against explore's median would alert on every handoff.
///
/// The class is deliberately pure — observe() in, alerts out — so synthetic
/// timelines unit-test every rule without a process or a clock; the global()
/// instance is the one the telemetry tick feeds and the status file reads.
/// Methods take an internal mutex: observe() runs on whichever engine
/// thread beats the heartbeat while the status publisher reads active().
class Watchdog {
 public:
  struct Options {
    int window = 16;            ///< samples retained (and thrash horizon)
    int min_samples = 5;        ///< same-phase history a rule needs to arm
    double collapse_frac = 0.30;    ///< fire below this fraction of median
    double thrash_churn_factor = 2.0;  ///< window churn vs peak mapped
    double flat_visited_frac = 0.01;   ///< "flat" = growth under this share
    double runaway_eta_s = 60.0;    ///< alert when exit-4 ETA dips below
    double ckpt_stall_factor = 3.0;  ///< fire past this multiple of cadence
    double ckpt_stall_min_s = 5.0;   ///< but never under this absolute age
  };

  Watchdog() : Watchdog(Options{}) {}
  explicit Watchdog(const Options& opts) : opts_(opts) {}

  /// Feed one sample; returns the rules whose episodes started this tick.
  /// Rules whose condition went false this tick are reported by
  /// cleared_last() until the next observe().
  std::vector<WatchAlert> observe(const WatchSample& s);

  bool active(WatchRule r) const;
  /// Currently-latched rules, for the status file and `tsb monitor`.
  std::vector<WatchRule> active_rules() const;
  /// Rules cleared by the most recent observe() (episode ended).
  std::vector<WatchRule> cleared_last() const;
  /// Episodes started so far for `r` (the "exactly once per episode" count).
  std::uint64_t fires(WatchRule r) const;

  void reset();

  /// The process-wide instance the telemetry tick feeds.
  static Watchdog& global();

 private:
  // Rule conditions over the current window (newest sample = back()).
  bool collapse_now(std::string* detail) const;
  bool thrash_now(std::string* detail) const;
  bool runaway_now(std::string* detail) const;
  bool ckpt_stall_now(std::string* detail) const;

  Options opts_;
  mutable std::mutex mu_;
  std::deque<WatchSample> win_;
  bool latched_[kWatchRules] = {};
  std::uint64_t episode_tick_[kWatchRules] = {};
  std::uint64_t fires_[kWatchRules] = {};
  std::vector<WatchRule> cleared_;
};

}  // namespace tsb::obs

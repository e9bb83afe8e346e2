#include "obs/watchdog.hpp"

#include <algorithm>
#include <cmath>

#include "obs/memledger.hpp"

namespace tsb::obs {

const char* watch_rule_name(WatchRule r) {
  switch (r) {
    case WatchRule::kThroughputCollapse: return "throughput_collapse";
    case WatchRule::kSpillThrash: return "spill_thrash";
    case WatchRule::kLedgerRunaway: return "ledger_runaway";
    case WatchRule::kCheckpointStall: return "checkpoint_stall";
    case WatchRule::kCount: break;
  }
  return "?";
}

Watchdog& Watchdog::global() {
  // Leaked for the same reason as Registry::global(): alerts can be read
  // from status publishes during arbitrary-lifetime teardown.
  static Watchdog* w = new Watchdog;
  return *w;
}

bool Watchdog::collapse_now(std::string* detail) const {
  const WatchSample& cur = win_.back();
  if (cur.cps < 0) return false;
  // Trailing median of the window's earlier rate samples; the current one
  // is the accused and does not vote.
  std::vector<double> hist;
  for (std::size_t i = 0; i + 1 < win_.size(); ++i) {
    if (win_[i].cps >= 0) hist.push_back(win_[i].cps);
  }
  if (static_cast<int>(hist.size()) < opts_.min_samples) return false;
  std::nth_element(hist.begin(), hist.begin() + hist.size() / 2, hist.end());
  const double median = hist[hist.size() / 2];
  if (median <= 0 || cur.cps >= opts_.collapse_frac * median) return false;
  *detail = "rate " + std::to_string(static_cast<std::int64_t>(cur.cps)) +
            " configs/s under " +
            std::to_string(static_cast<int>(opts_.collapse_frac * 100)) +
            "% of trailing median " +
            std::to_string(static_cast<std::int64_t>(median));
  return true;
}

bool Watchdog::thrash_now(std::string* detail) const {
  if (static_cast<int>(win_.size()) < opts_.min_samples) return false;
  std::uint64_t churn = 0;
  std::uint64_t peak_mapped = 0;
  for (std::size_t i = 0; i < win_.size(); ++i) {
    peak_mapped = std::max(peak_mapped, win_[i].mapped_bytes);
    if (i == 0) continue;
    const std::uint64_t a = win_[i - 1].mapped_bytes;
    const std::uint64_t b = win_[i].mapped_bytes;
    churn += b > a ? b - a : a - b;
  }
  if (peak_mapped == 0 ||
      static_cast<double>(churn) <
          opts_.thrash_churn_factor * static_cast<double>(peak_mapped)) {
    return false;
  }
  const std::int64_t v0 = win_.front().visited;
  const std::int64_t v1 = win_.back().visited;
  if (v0 < 0 || v1 < 0) return false;
  const double growth = static_cast<double>(v1 - v0);
  if (growth > opts_.flat_visited_frac *
                   static_cast<double>(std::max<std::int64_t>(v1, 1))) {
    return false;
  }
  *detail = "mapped-byte churn " + std::to_string(churn) + " B vs peak " +
            std::to_string(peak_mapped) + " B with visited growth " +
            std::to_string(v1 - v0) + " over the window";
  return true;
}

bool Watchdog::runaway_now(std::string* detail) const {
  const WatchSample& cur = win_.back();
  if (cur.mem_budget == 0 || win_.size() < 2) return false;
  if (cur.ledger_total >= cur.mem_budget) {
    *detail = "tracked " + std::to_string(cur.ledger_total) +
              " B at/over budget " + std::to_string(cur.mem_budget) + " B";
    return true;
  }
  const WatchSample& first = win_.front();
  const double dt = cur.t_s - first.t_s;
  if (dt <= 0 || cur.ledger_total <= first.ledger_total) return false;
  const double rate =
      static_cast<double>(cur.ledger_total - first.ledger_total) / dt;
  const double eta =
      static_cast<double>(cur.mem_budget - cur.ledger_total) / rate;
  if (eta >= opts_.runaway_eta_s) return false;
  *detail = "tracked bytes growing " +
            std::to_string(static_cast<std::int64_t>(rate)) +
            " B/s, projected exit-4 in " +
            std::to_string(static_cast<std::int64_t>(eta)) + " s (" +
            format_bytes(cur.mem_budget - cur.ledger_total) + " headroom)";
  return true;
}

bool Watchdog::ckpt_stall_now(std::string* detail) const {
  const WatchSample& cur = win_.back();
  // Only armed when a wall-clock cadence is configured and the probe is
  // live; an expansion-count-only cadence has no wall-clock expectation.
  if (cur.ckpt_interval_ms == 0 || cur.ckpt_age_s < 0) return false;
  const double age_s = static_cast<double>(cur.ckpt_age_s);
  const double expect_s =
      static_cast<double>(cur.ckpt_interval_ms) / 1000.0;
  if (age_s < opts_.ckpt_stall_min_s ||
      age_s < opts_.ckpt_stall_factor * expect_s) {
    return false;
  }
  *detail = "last checkpoint " + std::to_string(cur.ckpt_age_s) +
            " s ago vs configured interval " +
            std::to_string(static_cast<std::int64_t>(expect_s)) +
            " s (engine not reaching a quiescent point, or writes stuck)";
  return true;
}

std::vector<WatchAlert> Watchdog::observe(const WatchSample& s) {
  std::lock_guard<std::mutex> lock(mu_);
  // The window is per phase: median-rate and flat-growth comparisons are
  // meaningless across an engine handoff.
  if (!win_.empty() && win_.back().phase != s.phase) win_.clear();
  win_.push_back(s);
  while (static_cast<int>(win_.size()) > opts_.window) {
    win_.pop_front();
  }

  struct RuleEval {
    WatchRule rule;
    bool (Watchdog::*now)(std::string*) const;
  };
  static constexpr RuleEval kRules[] = {
      {WatchRule::kThroughputCollapse, &Watchdog::collapse_now},
      {WatchRule::kSpillThrash, &Watchdog::thrash_now},
      {WatchRule::kLedgerRunaway, &Watchdog::runaway_now},
      {WatchRule::kCheckpointStall, &Watchdog::ckpt_stall_now},
  };

  std::vector<WatchAlert> fired;
  cleared_.clear();
  for (const RuleEval& r : kRules) {
    const int idx = static_cast<int>(r.rule);
    std::string detail;
    const bool cond = (this->*r.now)(&detail);
    if (cond && !latched_[idx]) {
      latched_[idx] = true;
      episode_tick_[idx] = s.tick;
      ++fires_[idx];
      fired.push_back({r.rule, s.tick, std::move(detail)});
    } else if (!cond && latched_[idx]) {
      latched_[idx] = false;
      cleared_.push_back(r.rule);
    }
  }
  return fired;
}

bool Watchdog::active(WatchRule r) const {
  std::lock_guard<std::mutex> lock(mu_);
  return latched_[static_cast<int>(r)];
}

std::vector<WatchRule> Watchdog::active_rules() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WatchRule> out;
  for (int i = 0; i < kWatchRules; ++i) {
    if (latched_[i]) out.push_back(static_cast<WatchRule>(i));
  }
  return out;
}

std::vector<WatchRule> Watchdog::cleared_last() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cleared_;
}

std::uint64_t Watchdog::fires(WatchRule r) const {
  std::lock_guard<std::mutex> lock(mu_);
  return fires_[static_cast<int>(r)];
}

void Watchdog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  win_.clear();
  cleared_.clear();
  for (int i = 0; i < kWatchRules; ++i) {
    latched_[i] = false;
    episode_tick_[i] = 0;
    fires_[i] = 0;
  }
}

}  // namespace tsb::obs

#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "sim/limits.hpp"
#include "util/checkpoint.hpp"

namespace tsb::sim {

namespace detail {
// Explorer metrics. Looked up once, then relaxed sharded adds.
struct ExploreMetrics {
  obs::Counter& visited;
  obs::Counter& dedup_hits;
  obs::Gauge& frontier;
};
ExploreMetrics& explore_metrics();
}  // namespace detail

/// Outcome of a reachability enumeration.
struct ExploreResult {
  bool truncated = false;       ///< hit max_configs before exhausting
  bool aborted = false;         ///< visitor returned false
  std::size_t visited = 0;      ///< configurations enumerated
  std::optional<Config> abort_config;  ///< config the visitor stopped on
};

namespace detail {

/// Per-BFS-level forensics for one explore() call. Entirely observational:
/// enabling it changes nothing about discovery order, ids, or verdicts (the
/// determinism tests run with it on).
///
/// Level records are *buffered*, and flushed only if the exploration ends
/// up visiting at least kStatsMinVisited configurations: the
/// valency oracle runs thousands of small reachability passes per
/// adversary run, and per-level rows for a 40-config pass are noise that
/// would swamp the stats file. Every exploration still contributes one
/// "explore.done" summary record, so nothing is invisible — just folded.
///
/// When stats are disabled the constructor is one relaxed load and every
/// other method is behind active().
class LevelStatsTracker {
 public:
  static constexpr std::size_t kStatsMinVisited = 10'000;

  explicit LevelStatsTracker(const char* who);

  bool active() const { return active_; }

  /// Start the record for a completed level, preloaded with timing, rates,
  /// arena geometry and peak RSS, and stamped now: a buffered level keeps
  /// the time it completed, not the time done() flushes it. Callers append
  /// their own fields and hand it to commit_level().
  obs::JsonObj level_record(const ConfigArena& arena, std::uint64_t frontier,
                            std::uint64_t discovered, std::uint64_t dedup);
  void commit_level(obs::JsonObj&& record);

  /// Emit the always-written summary record and, if the run crossed the
  /// size threshold, the buffered level records before it.
  void done(const ConfigArena& arena, const ExploreResult& res,
            std::uint64_t dedup_total);

 private:
  const char* who_;
  bool active_;
  std::size_t levels_ = 0;
  std::vector<std::string> buffered_;
  std::chrono::steady_clock::time_point t_start_{};
  std::chrono::steady_clock::time_point t_level_{};
};

}  // namespace detail

/// Breadth-first enumeration of the configurations reachable from a root by
/// P-only executions.
///
/// This is the mechanical core behind valency queries ("does there exist a
/// P-only execution from C deciding v?") and the exhaustive model checker.
/// It assumes the P-only reachable space is finite — true for the finite-
/// state protocols the experiments target — and otherwise reports
/// truncation at a configurable cap rather than diverging.
///
/// Storage is a ConfigArena: configurations are interned as fixed-width
/// rows of 16-bit codes with dense 32-bit ids assigned in discovery
/// order, so the BFS frontier is simply the id sequence itself (level k is
/// a contiguous id range) and the visited set is the arena's open-addressing
/// table — no per-configuration allocation, no rehash on lookup.
///
/// The visitor is a template parameter, not a std::function: per-visit
/// checks (e.g. the valency oracle's some_decided scan) inline into the
/// BFS loop. Visitors receive a ConfigView valid only for the duration of
/// the call; call materialize() to retain one.
///
/// Steps by already-decided processes are no-ops in the model and are not
/// generated as edges (they would only add self-loops).
class Explorer {
 public:
  struct Options {
    /// The per-pass configuration cap, the memory/time budget and the
    /// spill plan (sim::Limits). The budget is checked on the first
    /// expansion and every 256th; a trip throws util::BudgetExhausted out
    /// of explore(). With the spill plan armed, cold arena segments
    /// compress to an unlinked backing file, so a memory budget caps RAM
    /// while the reachable set keeps growing on disk; an unusable spill
    /// directory throws util::UsageError from the constructor.
    Limits limits{};
  };

  using Result = ExploreResult;

  explicit Explorer(const Protocol& proto) : Explorer(proto, Options{}) {}
  Explorer(const Protocol& proto, Options opts);

  /// Heap bytes this exploration owns — the quantity the memory budget
  /// caps and the ledger's arena.words/arena.table/explore.frontier
  /// accounts sum to. RSS would count every subsystem at once and could
  /// not attribute an overrun.
  std::size_t tracked_bytes() const {
    return arena_.memory_bytes() + frontier_bytes();
  }

  /// Enumerate configurations reachable from `root` by P-only steps,
  /// calling `visit` on each (including the root). `visit` returning false
  /// aborts the search; the aborting configuration is reported in the
  /// result, and `witness()` can reconstruct the schedule that reached it.
  ///
  /// Discovery order: configurations are expanded in id order; each
  /// expansion generates successors in ascending process id; a
  /// configuration reachable along several edges is owned by the earliest
  /// discovery in that order.
  template <typename Visit>
  Result explore(const Config& root, ProcSet p, Visit&& visit) {
    arena_.clear();
    parent_.clear();

    Result res;
    detail::ExploreMetrics& metrics = detail::explore_metrics();
    detail::LevelStatsTracker stats("explore");
    obs::Heartbeat hb("explore");

    arena_.pack(root, pvals_.data());
    arena_.intern(pvals_.data());
    parent_.emplace_back(kNoConfig, -1);
    ++res.visited;
    metrics.visited.add();
    if (!visit(words_view(0))) {
      res.aborted = true;
      res.abort_config = words_view(0).materialize();
      if (stats.active()) stats.done(arena_, res, 0);
      return res;
    }

    ConfigId head = 0;
    std::size_t expanded = 0;
    // Ids are assigned in discovery order, so BFS level k is the contiguous
    // id range [level_start, level_end); the boundary bookkeeping below is
    // two compares per expansion and feeds the per-level stats records.
    ConfigId level_start = 0;
    ConfigId level_end = 1;
    std::size_t level_idx = 0;
    std::uint64_t level_dedup = 0;
    std::uint64_t dedup_total = 0;
    while (head < arena_.size()) {
      if (head == level_end) {
        if (stats.active()) {
          stats.commit_level(stats.level_record(
              arena_, level_end - level_start,
              static_cast<ConfigId>(arena_.size()) - level_end, level_dedup));
        }
        level_start = level_end;
        level_end = static_cast<ConfigId>(arena_.size());
        level_dedup = 0;
        ++level_idx;
        update_ledger();
        obs::flight::record(obs::flight::Ev::kLevel,
                            static_cast<std::int64_t>(level_idx),
                            static_cast<std::int64_t>(level_end - level_start));
      }
      if (arena_.size() >= opts_.limits.max_configs) {
        res.truncated = true;
        break;
      }
      // Checked on the first expansion and then every 256th: an
      // already-expired budget trips at once, even on graphs far smaller
      // than the check interval.
      if ((++expanded & 0xFF) == 1) {
        update_ledger();
        opts_.limits.check(tracked_bytes(), "explorer");
      }
      if ((expanded & 0xFFF) == 0) {
        // Quiescent point: per-pass BFS state is rebuilt by replay on
        // resume, so the checkpoint service may persist the session state
        // (and throw CheckpointStop on a requested stop) right here.
        util::ckpt::CheckpointService::global().poll(4096);
        metrics.frontier.set(static_cast<std::int64_t>(arena_.size() - head));
        if (arena_.spill_needed()) {
          // Pin the unexpanded frontier: ids >= head stay resident so the
          // expansion loop keeps its pointer-direct read path.
          const std::size_t released = arena_.maybe_spill(head);
          if (released != 0) {
            obs::flight::record(
                obs::flight::Ev::kSpill, static_cast<std::int64_t>(released),
                static_cast<std::int64_t>(arena_.spilled_bytes()));
          }
        }
        update_ledger();
        hb.beat([&](obs::Sample& s) {
          s.level = static_cast<std::int64_t>(level_idx);
          s.frontier = static_cast<std::int64_t>(arena_.size() - head);
          s.visited = static_cast<std::int64_t>(res.visited);
          s.cap = static_cast<std::int64_t>(opts_.limits.max_configs);
        });
      }
      const ConfigId cur = head++;
      // Arena insertions may grow the row store; expand from a copy of the
      // parent's codes and its words, decoded once for all its successors.
      arena_.load(cur, pcodes_.data(), pvals_.data());

      bool keep_going = true;
      p.for_each([&](int q) {
        if (!keep_going) return;
        const PendingOp op =
            proto_.poised(q, pvals_[static_cast<std::size_t>(q)]);
        if (op.is_decide()) return;  // terminated: no edge
        // pvals_ holds the successor's words until undo.apply().
        const ConfigArena::StepUndo undo = arena_.step(
            proto_, op, q, pvals_.data(), pcodes_.data(), scodes_.data());
        const auto [id, inserted] = arena_.intern_codes(scodes_.data());
        if (!inserted) {
          metrics.dedup_hits.add();
          ++level_dedup;
          ++dedup_total;
        } else {
          parent_.emplace_back(cur, q);
          ++res.visited;
          metrics.visited.add();
          if (!visit(words_view(id))) {
            res.aborted = true;
            res.abort_config = words_view(id).materialize();
            keep_going = false;
          }
        }
        undo.apply(pvals_.data());
      });
      if (!keep_going) break;
    }
    update_ledger();
    if (stats.active()) {
      // The level in progress when the loop ended (complete if the frontier
      // drained, partial on truncation/abort).
      stats.commit_level(stats.level_record(
          arena_, level_end - level_start,
          static_cast<ConfigId>(arena_.size()) - level_end, level_dedup));
      stats.done(arena_, res, dedup_total);
    }
    return res;
  }

  /// Schedule from the last explore()'s root to `target`; target must have
  /// been visited. Empty optional if it was not.
  std::optional<Schedule> witness(const Config& target) const;

  /// Same, by the id a visitor saw. id must be a valid id from the last
  /// explore().
  std::optional<Schedule> witness_by_id(ConfigId id) const;

  /// Number of configurations interned by the last explore().
  std::size_t size() const { return arena_.size(); }

  /// A configuration of the last explore(), by the id a visitor saw.
  Config materialize(ConfigId id) const { return arena_.materialize(id); }

 private:
  /// The visitor's view of configuration `id` over pvals_, which holds its
  /// words right after it was interned (the root, or a successor the
  /// expansion stepped into place): no decode of its codes.
  ConfigView words_view(ConfigId id) const {
    const int n = arena_.num_states();
    return ConfigView{id, pvals_.data(), pvals_.data() + n, n,
                      arena_.num_regs()};
  }
  std::size_t frontier_bytes() const {
    return parent_.capacity() * sizeof(std::pair<ConfigId, ProcId>) +
           pvals_.capacity() * sizeof(Value) +
           (pcodes_.capacity() + scodes_.capacity()) * sizeof(Code);
  }
  void update_ledger() const {
    obs::MemLedger& ledger = obs::MemLedger::global();
    ledger.set(obs::MemAccount::kArenaWords, arena_.words_bytes());
    ledger.set(obs::MemAccount::kArenaTable, arena_.table_bytes());
    ledger.set(obs::MemAccount::kExploreFrontier, frontier_bytes());
    if (arena_.spill_enabled() || arena_.spilled_bytes() != 0) {
      ledger.set(obs::MemAccount::kArenaSpill, arena_.spilled_bytes());
      ledger.set(obs::MemAccount::kArenaMapped, arena_.mapped_bytes());
    }
  }

  const Protocol& proto_;
  Options opts_;

  // BFS bookkeeping from the most recent explore() call, kept for witness
  // reconstruction.
  ConfigArena arena_;
  std::vector<Value> pvals_;  ///< words of the configuration being expanded
  std::vector<Code> pcodes_;  ///< codes of the configuration being expanded
  std::vector<Code> scodes_;  ///< codes of the successor being interned
  std::vector<std::pair<ConfigId, ProcId>> parent_;  // (parent id, step proc)
};

}  // namespace tsb::sim

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace tsb::obs {

/// Subsystem accounts of the memory ledger. Fixed at compile time so an
/// update is an array-indexed relaxed store — owners refresh their account
/// from already-rate-limited code (level boundaries, the every-256-steps
/// budget check), never per element.
enum class MemAccount : int {
  kArenaWords,       ///< BFS ConfigArena resident packed words + scratch
  kArenaTable,       ///< BFS ConfigArena open-addressing visited table
  kArenaSpill,       ///< compressed bytes in arena spill backing files
  kArenaMapped,      ///< mmap'd (clean, file-backed) spill block bytes
  kExploreFrontier,  ///< explorer parent edges + expansion buffers
  kReachNodes,       ///< shared reach graph: projected-config arena
  kReachEdges,       ///< shared reach graph: succ/perm edges + decide flags
  kGraphSpill,       ///< compressed bytes in edge-store spill backing files
  kGraphMapped,      ///< mmap'd (clean, file-backed) edge spill block bytes
  kReachFacts,       ///< shared reach graph: persisted fact map
  kReachQuery,       ///< shared reach graph: per-query entries, visit marks
                     ///< or map, drained-pass propagation scratch
  kValencyMemo,      ///< valency oracle: pair memo + root-id arena
  kCkptState,        ///< last checkpoint state file's on-disk bytes
  kCount
};

constexpr int kMemAccounts = static_cast<int>(MemAccount::kCount);

/// Name of an account as it appears in ledger records, telemetry ticks and
/// budget reports ("arena.words", "reach.edges", ...).
const char* mem_account_name(MemAccount a);

/// Process-wide registry of per-subsystem byte gauges.
///
/// The ledger answers "which subsystem is eating the budget" — a question
/// raw RSS cannot: it feeds heartbeat lines, telemetry ticks, the `ledger`
/// JSONL record, and the exit-4 budget report. Accounts hold
/// the owner's *current* heap bytes (capacities, the same arithmetic as
/// each subsystem's memory_bytes()) plus a high-water mark, so a report
/// rendered after shrink-on-truncation still shows where the peak went.
///
/// Concurrency: set() is a relaxed store plus a racy peak update — a peak
/// may be lost under a concurrent set of the same account, which never
/// happens in practice (each account has one owner) and would only shave
/// the watermark, never corrupt it. Readers see a consistent-enough
/// snapshot for forensics; nothing here is a synchronization point.
class MemLedger {
 public:
  static MemLedger& global();

  void set(MemAccount a, std::uint64_t bytes) {
    Cell& c = cells_[static_cast<int>(a)];
    c.cur.store(bytes, std::memory_order_relaxed);
    if (bytes > c.peak.load(std::memory_order_relaxed)) {
      c.peak.store(bytes, std::memory_order_relaxed);
    }
  }
  std::uint64_t get(MemAccount a) const {
    return cells_[static_cast<int>(a)].cur.load(std::memory_order_relaxed);
  }
  std::uint64_t peak(MemAccount a) const {
    return cells_[static_cast<int>(a)].peak.load(std::memory_order_relaxed);
  }
  /// Sum of current account values (the tracked-heap total heartbeats and
  /// telemetry ticks report next to peak RSS).
  std::uint64_t total() const;
  /// Sum of per-account peaks — an upper bound on the tracked peak.
  std::uint64_t peak_total() const;

  /// Zero every account (tests; benches isolating runs).
  void reset();

  struct Row {
    MemAccount account;
    std::uint64_t bytes;
    std::uint64_t peak;
  };
  /// Non-zero accounts, largest current first.
  std::vector<Row> snapshot() const;

  /// {"arena.words":123,...} of non-zero accounts, for telemetry ticks and
  /// the `ledger` stats record.
  std::string json() const;

  /// Short one-line attribution for BudgetExhausted messages:
  /// "reach.edges 412.0MiB (54%), reach.nodes 201.3MiB (26%), ...".
  std::string attribution(int top) const;

  /// The exit-4 budget report: one line per non-zero account with current
  /// and peak bytes and the share of the tracked total.
  void render(std::ostream& out) const;

  /// Write a {"type":"ledger",...} record to the stats sink (no-op when
  /// stats are disabled).
  void emit_record() const;

 private:
  struct Cell {
    std::atomic<std::uint64_t> cur{0};
    std::atomic<std::uint64_t> peak{0};
  };
  Cell cells_[kMemAccounts];
};

/// "412.0MiB" / "87.5KiB" / "640B" — shared by the budget report, heartbeat
/// lines and `tsb monitor`.
std::string format_bytes(std::uint64_t bytes);

/// Ledger estimate of a node-based hash map (std::unordered_map): one
/// pointer per bucket, and per entry its key and value plus two pointers
/// of node overhead.
template <class Map>
std::size_t node_map_bytes(const Map& m) {
  return m.bucket_count() * sizeof(void*) +
         m.size() * (sizeof(typename Map::key_type) +
                     sizeof(typename Map::mapped_type) + 2 * sizeof(void*));
}

}  // namespace tsb::obs

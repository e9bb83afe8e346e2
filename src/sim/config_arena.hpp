#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "util/spill_store.hpp"

namespace tsb::sim {

/// Dense identifier of a configuration interned in a ConfigArena. Ids are
/// assigned consecutively from 0 in insertion order, so the BFS explorers
/// use the id sequence itself as the frontier: level k is a contiguous id
/// range and no separate queue is needed.
using ConfigId = std::uint32_t;
inline constexpr ConfigId kNoConfig = 0xFFFFFFFFu;

/// Zero-copy read access to one interned configuration: `states` and `regs`
/// point directly into the arena's resident segment (or, for a spilled
/// segment, into a thread-local decode buffer that the next words()/view()
/// call on the same thread overwrites). Visitors that need to retain a
/// configuration call materialize().
struct ConfigView {
  ConfigId id = kNoConfig;
  const Value* states = nullptr;
  const Value* regs = nullptr;
  int num_states = 0;
  int num_regs = 0;

  Config materialize() const {
    Config c;
    c.states.assign(states, states + num_states);
    c.regs.assign(regs, regs + num_regs);
    return c;
  }
};

/// decision_of over a view, without materializing a Config.
inline std::optional<Value> decision_of(const Protocol& proto,
                                        const ConfigView& c, ProcId p) {
  const PendingOp op = proto.poised(p, c.states[p]);
  if (op.is_decide()) return op.value;
  return std::nullopt;
}

/// Packed, interned, out-of-core configuration storage.
///
/// A configuration of an (n, m) protocol is exactly n state words followed
/// by m register words. The arena keeps them as the records of one
/// util::spill::SpillStore<Value> (stride n + m): fixed-size segments of a
/// few MB allocated flat, no per-configuration allocation, no reallocation
/// copying, and word pointers stable for the lifetime of a segment's
/// residency. Deduplication goes through an open-addressing hash table of
/// 8-byte slots (a 32-bit hash tag plus the id), so a probe touches the
/// word data only on a tag match and the table stays half the size a
/// full-hash layout would need.
///
/// Out-of-core operation (set_spill): when resident word bytes exceed the
/// spill threshold, maybe_spill() hands the store's cold FULL segments
/// (lowest ids first — in BFS id order those are the oldest levels) to the
/// backing file; words() on a spilled id decodes into a thread-local
/// buffer. Spilling only happens inside maybe_spill(), which callers
/// invoke at quiescent points between expansions, so no word pointer
/// handed out by the current expansion is torn down under it.
///
/// Thread safety: single-threaded. Every engine that owns an arena runs
/// its whole reachability pass on one thread.
///
/// Usage: build the next configuration's words in scratch(), then
/// intern_scratch(). The id space is dense and insertion-ordered.
class ConfigArena {
 public:
  ConfigArena(int num_states, int num_regs);

  ConfigArena(const ConfigArena&) = delete;
  ConfigArena& operator=(const ConfigArena&) = delete;

  int num_states() const { return n_; }
  int num_regs() const { return m_; }
  std::size_t words_per_config() const { return words_; }
  std::size_t size() const { return store_.size(); }

  /// Drop all configurations but keep the allocations for reuse. Unmaps
  /// spilled blocks and truncates the backing file.
  void clear();

  /// Staging buffer for the configuration about to be interned
  /// (words_per_config() words: states then regs).
  Value* scratch() { return scratch_.data(); }

  /// Pack a Config's words into dst (words_per_config() words).
  void pack(const Config& c, Value* dst) const;

  /// Hash of a packed word sequence; the same function the dedup table
  /// stores, exposed for intern_prehashed().
  std::uint64_t hash_words(const Value* w) const;

  struct Interned {
    ConfigId id;
    bool inserted;  ///< false: already present, id is the prior copy's
  };
  /// Intern the scratch buffer's configuration.
  Interned intern_scratch() { return intern_words(scratch_.data()); }

  /// Intern an externally staged word sequence (words_per_config() words).
  /// `w` must not alias the arena's own word store.
  Interned intern_words(const Value* w);

  /// intern_words with the hash precomputed (must be hash_words(w)). Pair
  /// with prefetch(): callers that stage several configurations before
  /// interning any of them can overlap the table's cache misses, which
  /// dominate interning once the table outgrows the cache.
  Interned intern_prehashed(const Value* w, std::uint64_t h);

  /// Hint the CPU to pull the hash's home slot into cache ahead of
  /// intern_prehashed / find on the same hash. Never faults.
  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(table_.data() + (h >> shift_));
  }

  /// Lookup without insertion; kNoConfig if absent.
  ConfigId find(const Value* w) const;

  /// Append words as a new configuration WITHOUT consulting the dedup
  /// table (find() will not see it). Tests fill arenas with it directly.
  ConfigId append_words(const Value* w);

  /// Read access to one configuration's packed words. Resident segments
  /// return a direct pointer; spilled segments decode into a thread-local
  /// buffer valid until the next words() call on a spilled id.
  const Value* words(ConfigId id) const { return store_.read(id); }
  ConfigView view(ConfigId id) const {
    const Value* w = words(id);
    return ConfigView{id, w, w + n_, n_, m_};
  }
  Config materialize(ConfigId id) const { return view(id).materialize(); }

  /// Bulk read of ids [0, limit) in order as contiguous runs of packed
  /// words, fn(const Value* words, std::size_t nconfigs): whole resident
  /// segments by pointer, spilled ones decoded once (SpillStore's
  /// for_each_segment). The checkpoint save path.
  template <class Fn>
  void for_each_segment(std::size_t limit, Fn&& fn) const {
    store_.for_each_segment(limit, std::forward<Fn>(fn));
  }

  bool words_equal(const Value* a, const Value* b) const {
    return std::memcmp(a, b, words_ * sizeof(Value)) == 0;
  }

  // --- out-of-core ------------------------------------------------------

  /// Enable spilling: cold full segments move to an unlinked backing file
  /// under `dir` once resident word bytes exceed `threshold_bytes`.
  /// `seg_configs_hint` (power of two, 0 = default ~4 MB segments) is for
  /// tests that need multiple segments within tiny runs. Must be called
  /// before the first configuration is added. Returns false if the
  /// directory is unusable (spilling stays disabled).
  bool set_spill(const std::string& dir, std::size_t threshold_bytes,
                 std::size_t seg_configs_hint = 0);

  bool spill_enabled() const { return store_.spill_enabled(); }

  /// True when resident word bytes exceed the spill threshold and a full
  /// cold segment may be left to release. Cheap.
  bool spill_needed() const { return store_.spill_needed(spill_threshold_); }

  /// Spill cold full segments (lowest ids first) until resident word bytes
  /// drop to the threshold or only pinned/partial segments remain. Ids >=
  /// pin_floor are never spilled (callers pin the unexpanded frontier so
  /// the hot read path stays pointer-direct). Callers invoke it at
  /// quiescent points only. Returns bytes released. A write/mmap failure
  /// throws util::BudgetExhausted (see SpillStore::maybe_spill).
  std::size_t maybe_spill(ConfigId pin_floor) {
    return store_.maybe_spill(spill_threshold_, pin_floor);
  }

  std::size_t spilled_bytes() const { return store_.spilled_bytes(); }
  std::size_t mapped_bytes() const { return store_.mapped_bytes(); }
  std::size_t spilled_segments() const { return store_.spilled_segments(); }
  std::size_t spill_failures() const { return store_.spill_failures(); }

  /// Capacity of the dedup table (power of two; 0 before first insertion).
  /// Every interned configuration owns exactly one slot, so occupancy is
  /// size() / table_slots() — the load factor the stats records report.
  std::size_t table_slots() const { return table_.size(); }

  /// Resident heap bytes held by the arena (word segments + dedup table +
  /// scratch). Spilled bytes live in the (unlinked) backing file and
  /// mmap'd blocks are clean file-backed pages the kernel can drop, so
  /// neither counts against the RAM budget; they get their own ledger
  /// accounts (arena.spill / arena.mapped).
  std::size_t words_bytes() const {
    return store_.resident_bytes() + scratch_.capacity() * sizeof(Value);
  }
  std::size_t table_bytes() const { return table_.capacity() * sizeof(Slot); }
  std::size_t memory_bytes() const { return words_bytes() + table_bytes(); }

  std::size_t segment_configs() const { return store_.segment_records(); }

 private:
  /// Buckets are the hash's top log2(table size) bits — a prefix of the
  /// stored tag — so growth re-derives every bucket from tags alone: one
  /// sequential read pass, no rehashing of word data. (Holds while the
  /// table has <= 2^32 slots; the 32-bit id space runs out first.)
  struct Slot {
    std::uint32_t tag = 0;  ///< top 32 hash bits; full equality is by words
    ConfigId id = kNoConfig;
  };

  void grow_table();

  int n_;
  int m_;
  std::size_t words_;
  util::spill::SpillStore<Value> store_;  ///< the packed words, by id
  std::size_t spill_threshold_ = 0;

  std::vector<Value> scratch_;  ///< words_ staging words
  std::vector<Slot> table_;     ///< open addressing, power-of-two size
  std::size_t mask_ = 0;        ///< table size - 1 (probe wrap)
  int shift_ = 0;               ///< 64 - log2(table size) (bucket index)
};

}  // namespace tsb::sim

#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "util/spill_store.hpp"

namespace tsb::util::ckpt {
class SectionWriter;
class SectionReader;
}  // namespace tsb::util::ckpt

namespace tsb::sim {

/// Dense identifier of a configuration interned in a ConfigArena. Ids are
/// assigned consecutively from 0 in insertion order, so the BFS explorers
/// use the id sequence itself as the frontier: level k is a contiguous id
/// range and no separate queue is needed.
using ConfigId = std::uint32_t;
inline constexpr ConfigId kNoConfig = 0xFFFFFFFFu;

/// A configuration word as the arena stores it: an index into the arena's
/// value dictionary.
using Code = std::uint16_t;
/// Distinct values one arena's dictionary can name.
inline constexpr std::size_t kMaxCodes = std::size_t{1} << 16;

/// Read access to one configuration's decoded words: `states` and `regs`
/// point into a buffer the caller owns (the Explorer's expansion buffer).
/// Visitors that need to retain a configuration call materialize().
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

/// Compact, interned, out-of-core configuration storage.
///
/// A configuration of an (n, m) protocol is exactly n state words followed
/// by m register words. The values are sparse — an adversary 6 run
/// interns 13M configurations over fewer than 5,000 distinct words — so
/// the arena stores each word once, in a value dictionary it owns
/// (code -> value array plus a small open-addressing value -> code map),
/// and each configuration as a row of 16-bit codes: SPIN's COLLAPSE
/// compression (Holzmann, "State compression in SPIN", 1997). The rows are
/// the records of one util::spill::SpillStore<Code> (stride n + m), and
/// deduplication goes through an open-addressing hash table of 4-byte
/// slots. With 2^k slots, a slot's low k bits hold id + 1 (0 = empty) and
/// its high 32 - k bits hold hash bits k..31 as a tag, so a probe touches
/// row data only on a tag match; growth rehashes the rows in id order.
/// Because the dictionary is a bijection, two rows are equal exactly when
/// their configurations are; hashing and comparing touch 2 bytes per
/// word.
///
/// The engines work in code space: step() computes a successor from the
/// parent's codes and decoded words, re-encoding only the (at most two)
/// words the step changed. The 65,537th distinct value throws
/// util::BudgetExhausted; there is no wider fallback.
///
/// Out-of-core operation (set_spill): when resident row bytes exceed the
/// spill threshold, maybe_spill() hands the store's cold FULL segments
/// (lowest ids first — in BFS id order those are the oldest levels) to the
/// backing file. Spilling only happens inside maybe_spill(), which callers
/// invoke at quiescent points between expansions. The dictionary never
/// spills.
///
/// Thread safety: single-threaded. Every engine that owns an arena runs
/// its whole reachability pass on one thread.
class ConfigArena {
 public:
  /// `name` labels the arena in failure messages ("reach graph",
  /// "explorer", ...).
  ConfigArena(int num_states, int num_regs, std::string name);

  ConfigArena(const ConfigArena&) = delete;
  ConfigArena& operator=(const ConfigArena&) = delete;

  int num_states() const { return n_; }
  int num_regs() const { return m_; }
  std::size_t words_per_config() const { return words_; }
  std::size_t size() const { return store_.size(); }

  /// Drop all configurations and the dictionary. Costs time proportional
  /// to the configurations dropped, not to the largest size the arena ever
  /// reached: a dedup table grown past what the last fill needed is
  /// replaced by one that fits it. Unmaps spilled blocks and truncates the
  /// backing file.
  void clear();

  /// Pack a Config's words into dst (words_per_config() words).
  void pack(const Config& c, Value* dst) const;

  // --- value dictionary ---------------------------------------------------

  std::size_t dict_size() const { return dict_.size(); }
  Value value(Code c) const { return dict_[c]; }
  /// The code of `v`, adding it to the dictionary if it is new. Throws
  /// util::BudgetExhausted if the dictionary already names kMaxCodes
  /// values; the arena is left unchanged.
  Code encode(Value v) {
    const std::uint32_t slot = dict_find(v);
    if (slot != kNoSlot) return static_cast<Code>(slot);
    return dict_insert(v);
  }

  // --- rows -----------------------------------------------------------------

  /// One configuration's codes. Resident segments return a direct
  /// pointer; a spilled segment decodes into the row store's cursor buffer
  /// that the next codes() of a spilled id overwrites, so callers copy or
  /// use the row at once.
  const Code* codes(ConfigId id) const { return store_.read(id); }
  /// One configuration's decoded words (words_per_config() words).
  void decode(ConfigId id, Value* out) const {
    const Code* c = codes(id);
    for (std::size_t i = 0; i < words_; ++i) out[i] = value(c[i]);
  }
  /// One configuration's codes and decoded words, copied out together:
  /// the parent row an expansion steps from (see step()).
  void load(ConfigId id, Code* codes_out, Value* vals_out) const {
    std::memcpy(codes_out, codes(id), words_ * sizeof(Code));
    for (std::size_t i = 0; i < words_; ++i) vals_out[i] = value(codes_out[i]);
  }
  Config materialize(ConfigId id) const;

  /// The two words a step may change, as they were before it.
  struct StepUndo {
    std::size_t state_at;
    std::size_t reg_at;
    Value state;
    Value reg;
    /// Turn the successor's words back into the parent's.
    void apply(Value* vals) const {
      vals[reg_at] = reg;
      vals[state_at] = state;
    }
  };
  /// One protocol step in code space — the successor computation of both
  /// engines. `vals` holds the parent's decoded words and `codes` its
  /// codes. apply_op steps `vals` in place (and counts the step), so they
  /// are the successor's words until the returned undo is applied;
  /// `scodes` receives the successor's codes: the parent's, with only the
  /// words the step changed (p's state and, for a write or swap, the
  /// register) encoded again.
  StepUndo step(const Protocol& proto, const PendingOp& op, ProcId p,
                Value* vals, const Code* codes, Code* scodes);

  /// Hash of a code row (4 codes per 64-bit lane); the function the dedup
  /// table stores, exposed for intern_prehashed().
  std::uint64_t hash_codes(const Code* c) const;

  struct Interned {
    ConfigId id;
    bool inserted;  ///< false: already present, id is the prior copy's
  };
  /// Intern a code row (every code must name a dictionary value). `c`
  /// must not alias the arena's own row store.
  Interned intern_codes(const Code* c) {
    return intern_prehashed(c, hash_codes(c));
  }

  /// intern_codes with the hash precomputed (must be hash_codes(c)). Pair
  /// with prefetch(): callers that stage several configurations before
  /// interning any of them can overlap the table's cache misses, which
  /// dominate interning once the table outgrows the cache.
  Interned intern_prehashed(const Code* c, std::uint64_t h);

  /// Intern a configuration given as words (encoding each, which may grow
  /// the dictionary).
  Interned intern(const Value* w);
  Interned intern(const Config& c);

  /// Hint the CPU to pull the hash's home slot into cache ahead of
  /// intern_prehashed on the same hash. Never faults.
  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(table_.data() + (h >> shift_));
  }

  /// Lookup without insertion; kNoConfig if absent. Never grows the
  /// dictionary: a word it does not name cannot be in any row.
  ConfigId find(const Value* w) const;

  /// Append a code row as a new configuration WITHOUT consulting the
  /// dedup table (find() will not see it). Tests fill arenas with it; an
  /// arena filled this way is not interned into afterwards, since table
  /// growth re-inserts every row.
  ConfigId append_codes(const Code* c);

  // --- checkpoint -----------------------------------------------------------

  /// Write the dictionary (u32 count, then the values) and then every row
  /// (u64 count, then the rows as the spill codec's delta groups,
  /// SpillStore::save) into the open section. Spilled groups are copied
  /// as they are, resident ones encoded, and the bytes do not depend on
  /// where the rows live.
  void save(util::ckpt::SectionWriter& w) const;
  /// Inverse of save() into an empty arena; rows are re-interned in id
  /// order so the dedup table rebuilds and ids stay stable. The table is
  /// sized once for the saved row count, capped by the rows the section's
  /// remaining bytes can hold, so a hostile count allocates nothing. Throws
  /// util::CheckpointInvalid, naming `section`, for a dictionary of more
  /// than kMaxCodes values, a duplicate dictionary value, a malformed row
  /// group (util::spill::load_records), a code past the dictionary, or a
  /// row that does not re-intern to its own id.
  void restore(util::ckpt::SectionReader& r, const std::string& section);

  // --- out-of-core ------------------------------------------------------

  /// Enable spilling: cold full segments move to an unlinked backing file
  /// under `dir` once resident row bytes exceed `threshold_bytes`.
  /// `seg_configs_hint` (power of two, 0 = default ~4 MB segments) is for
  /// tests that need multiple segments within tiny runs. Must be called
  /// before the first configuration is added. Returns false if the
  /// directory is unusable (spilling stays disabled).
  bool set_spill(const std::string& dir, std::size_t threshold_bytes,
                 std::size_t seg_configs_hint = 0);

  bool spill_enabled() const { return store_.spill_enabled(); }

  /// True when resident row bytes exceed the spill threshold and a full
  /// cold segment may be left to release. Cheap.
  bool spill_needed() const { return store_.spill_needed(spill_threshold_); }

  /// Spill cold full segments (lowest ids first) until resident row bytes
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

  /// Capacity of the dedup table (power of two). Every interned
  /// configuration owns exactly one slot, so occupancy is size() /
  /// table_slots() — the load factor the stats records report.
  std::size_t table_slots() const { return table_.size(); }

  /// Resident heap bytes held by the arena: the row segments' admitted
  /// records (SpillStore::charged_bytes), staging and the value dictionary
  /// (words_bytes), plus the dedup table. Spilled bytes
  /// live in the (unlinked) backing file and mmap'd blocks are clean
  /// file-backed pages the kernel can drop, so neither counts against the
  /// RAM budget; they get their own ledger accounts (arena.spill /
  /// arena.mapped).
  std::size_t words_bytes() const {
    return store_.charged_bytes() + stage_.capacity() * sizeof(Code) +
           dict_.capacity() * sizeof(Value) +
           dict_slots_.capacity() * sizeof(std::uint32_t);
  }
  std::size_t table_bytes() const { return table_.capacity() * sizeof(Slot); }
  std::size_t memory_bytes() const { return words_bytes() + table_bytes(); }

  std::size_t segment_configs() const { return store_.segment_records(); }

 private:
  /// A dedup table entry. With 2^k slots, a bucket is the hash's top k
  /// bits and the low k bits of an entry hold id + 1 (0 = empty; the 0.7
  /// load bound keeps every id below 2^k). The high 32 - k bits hold hash
  /// bits k..31, disjoint from the bucket, as the tag. Growth cannot
  /// re-derive a bucket from the entry, so grow_table rehashes the rows.
  using Slot = std::uint32_t;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  bool codes_equal(const Code* a, const Code* b) const {
    return std::memcmp(a, b, words_ * sizeof(Code)) == 0;
  }
  /// The tag bits of hash `h` in an entry of the current table.
  Slot tag_of(std::uint64_t h) const {
    return static_cast<Slot>(h) & ~static_cast<Slot>(mask_);
  }
  /// The id an occupied entry names.
  ConfigId id_of(Slot s) const { return (s & static_cast<Slot>(mask_)) - 1; }
  /// Index of the slot holding code row `c` (hash h), or of the empty
  /// slot where it would go.
  std::size_t probe(const Code* c, std::uint64_t h) const;
  void grow_table();
  void reset_table(std::size_t slots);
  /// Code of `v`, or kNoSlot if the dictionary does not name it.
  std::uint32_t dict_find(Value v) const;
  Code dict_insert(Value v);

  std::string name_;
  int n_;
  int m_;
  std::size_t words_;
  util::spill::SpillStore<Code> store_;  ///< the code rows, by id
  std::size_t spill_threshold_ = 0;

  std::vector<Code> stage_;     ///< words_ codes: intern(Value*) staging
  std::vector<Slot> table_;     ///< open addressing, power-of-two size
  std::size_t mask_ = 0;        ///< table size - 1 (probe wrap, id bits)
  int shift_ = 0;               ///< 64 - log2(table size) (bucket index)

  std::vector<Value> dict_;  ///< code -> value
  /// value -> code, open addressing over a power-of-two table; a slot
  /// holds code + 1 (0 = empty).
  std::vector<std::uint32_t> dict_slots_;
  int dict_shift_ = 0;  ///< 64 - log2(dict_slots_.size())
};

}  // namespace tsb::sim

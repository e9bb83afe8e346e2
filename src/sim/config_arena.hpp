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
/// interns 13M configurations over fewer than 5,000 distinct words — and
/// the register tuples sparser still: those 13M configurations carry 4,070
/// distinct register vectors. So the arena applies SPIN's COLLAPSE
/// compression (Holzmann, "State compression in SPIN", 1997) at two levels.
/// A value dictionary (code -> value array plus a small open-addressing
/// value -> code map) stores each word once, and a register-vector
/// dictionary (vector code -> m value codes, same shape) stores each
/// register tuple once. A configuration is a row of 16-bit codes: the n
/// state codes, then one register-vector code (no vector code when
/// m = 0), so a row is n + 1 codes however many registers there are. The
/// rows are the records of one util::spill::SpillStore<Code> (stride
/// row_codes()), and deduplication goes through an open-addressing hash
/// table of 4-byte slots. With 2^k slots, a slot's low k bits hold id + 1
/// (0 = empty) and its high 32 - k bits hold hash bits k..31 as a tag, so
/// a probe touches row data only on a tag match; growth rehashes the rows
/// in id order. Because both dictionaries are bijections, two rows are
/// equal exactly when their configurations are; hashing and comparing
/// touch 2 bytes per state and 2 for all the registers.
///
/// The engines work in code space and treat rows as opaque beyond their
/// first n codes, which are the states (symmetric mode sorts them).
/// step() computes a successor from the parent's codes and decoded words
/// through two direct-mapped memos: (process, op kind, state code,
/// observed register code) -> (successor state code, register value code),
/// and (vector code, register, value code) -> vector code. A hit never
/// calls the protocol; a miss runs apply_op and fills the entry. The
/// 65,537th distinct value, and the 65,537th distinct register vector,
/// throw util::BudgetExhausted; there is no wider fallback.
///
/// Out-of-core operation (set_spill): when resident row bytes exceed the
/// spill threshold, maybe_spill() hands the store's cold FULL segments
/// (lowest ids first — in BFS id order those are the oldest levels) to the
/// backing file. Spilling only happens inside maybe_spill(), which callers
/// invoke at quiescent points between expansions. The dictionaries and
/// the memos never spill.
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
  /// Decoded words per configuration: n + m.
  std::size_t words_per_config() const { return words_; }
  /// Codes per stored row: n + 1 (n when m = 0), never more than
  /// words_per_config(), so a buffer of words_per_config() codes holds a
  /// row.
  std::size_t row_codes() const { return stride_; }
  std::size_t size() const { return store_.size(); }

  /// Drop all configurations, both dictionaries and the step memos. Costs
  /// time proportional to the configurations dropped, not to the largest
  /// size the arena ever reached: a dedup table grown past what the last
  /// fill needed is replaced by one that fits it. Unmaps spilled blocks
  /// and truncates the backing file.
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

  // --- register-vector dictionary ---------------------------------------

  std::size_t vec_dict_size() const { return m_ == 0 ? 0 : vecs_.size() / m_; }
  /// The m value codes of register vector `v`.
  const Code* reg_codes(Code v) const {
    return vecs_.data() + static_cast<std::size_t>(v) * m_;
  }

  // --- rows -----------------------------------------------------------------

  /// One configuration's row (row_codes() codes). Resident segments return
  /// a direct pointer; a spilled segment decodes into the row store's
  /// cursor buffer that the next codes() of a spilled id overwrites, so
  /// callers copy or use the row at once.
  const Code* codes(ConfigId id) const { return store_.read(id); }
  /// One configuration's decoded words (words_per_config() words).
  void decode(ConfigId id, Value* out) const { expand(codes(id), out); }
  /// One configuration's row and decoded words, copied out together: the
  /// parent an expansion steps from (see step()).
  void load(ConfigId id, Code* codes_out, Value* vals_out) const {
    std::memcpy(codes_out, codes(id), stride_ * sizeof(Code));
    expand(codes_out, vals_out);
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
  /// engines. `op` must be proto.poised(p, vals[p]) and not a decide;
  /// `vals` holds the parent's decoded words and `codes` its row. On
  /// return `vals` are the successor's words until the returned undo is
  /// applied, and `scodes` receives the successor's row: the parent's,
  /// with p's state code and, when a write or swap changed the register,
  /// the vector code replaced. The step memo answers a (p, op kind, state,
  /// observed register) already seen without calling the protocol (counted
  /// in sim.arena.step_memo_hits); a miss runs apply_op (counted in
  /// sim.steps.*). The memos are built on the first step() and keyed by
  /// codes, so they belong to one protocol and one dictionary: a step for
  /// another protocol, and clear(), empty them.
  StepUndo step(const Protocol& proto, const PendingOp& op, ProcId p,
                Value* vals, const Code* codes, Code* scodes);

  /// Hash of a code row (4 codes per 64-bit lane); the function the dedup
  /// table stores, exposed for intern_prehashed().
  std::uint64_t hash_codes(const Code* c) const;

  struct Interned {
    ConfigId id;
    bool inserted;  ///< false: already present, id is the prior copy's
  };
  /// Intern a code row (its state codes must name dictionary values and
  /// its vector code a register vector). `c` must not alias the arena's
  /// own row store.
  Interned intern_codes(const Code* c) {
    return intern_prehashed(c, hash_codes(c));
  }

  /// intern_codes with the hash precomputed (must be hash_codes(c)). Pair
  /// with prefetch(): callers that stage several configurations before
  /// interning any of them can overlap the table's cache misses, which
  /// dominate interning once the table outgrows the cache.
  Interned intern_prehashed(const Code* c, std::uint64_t h);

  /// Intern a configuration given as words (encoding each word and the
  /// register tuple, which may grow both dictionaries).
  Interned intern(const Value* w);
  Interned intern(const Config& c);

  /// Hint the CPU to pull the hash's home slot into cache ahead of
  /// intern_prehashed on the same hash. Never faults.
  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(table_.data() + (h >> shift_));
  }

  /// Lookup without insertion; kNoConfig if absent. Never grows either
  /// dictionary: a word or register vector it does not name cannot be in
  /// any row.
  ConfigId find(const Value* w) const;

  /// Append a code row as a new configuration WITHOUT consulting the
  /// dedup table (find() will not see it). Tests fill arenas with it; an
  /// arena filled this way is not interned into afterwards, since table
  /// growth re-inserts every row.
  ConfigId append_codes(const Code* c);

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
  /// records (SpillStore::charged_bytes), staging, both dictionaries and
  /// the step memos (words_bytes), plus the dedup table. Spilled bytes
  /// live in the (unlinked) backing file and mmap'd blocks are clean
  /// file-backed pages the kernel can drop, so neither counts against the
  /// RAM budget; they get their own ledger accounts (arena.spill /
  /// arena.mapped).
  std::size_t words_bytes() const {
    return store_.charged_bytes() +
           (stage_.capacity() + vstage_.capacity()) * sizeof(Code) +
           dict_.capacity() * sizeof(Value) +
           (dict_slots_.capacity() + vec_slots_.capacity()) *
               sizeof(std::uint32_t) +
           vecs_.capacity() * sizeof(Code) +
           (state_memo_.capacity() + vec_memo_.capacity()) *
               sizeof(std::uint64_t);
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
    return std::memcmp(a, b, stride_ * sizeof(Code)) == 0;
  }
  /// Decode a row into n + m words.
  void expand(const Code* row, Value* out) const {
    for (int i = 0; i < n_; ++i) out[i] = value(row[i]);
    if (m_ == 0) return;
    const Code* regs = reg_codes(row[n_]);
    for (int r = 0; r < m_; ++r) out[n_ + r] = value(regs[r]);
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
  /// Code of register vector `regs`, or kNoSlot if the dictionary does not
  /// name it.
  std::uint32_t vec_find(const Code* regs) const;
  Code vec_insert(const Code* regs);
  /// The code of the register vector `regs` (m value codes), adding it if
  /// it is new. Throws util::BudgetExhausted if the dictionary already
  /// names kMaxCodes vectors; the arena is left unchanged.
  Code encode_regs(const Code* regs) {
    const std::uint32_t slot = vec_find(regs);
    if (slot != kNoSlot) return static_cast<Code>(slot);
    return vec_insert(regs);
  }
  /// The vector code of `vec` with register `reg` set to value code
  /// `code`, through the register-vector memo.
  Code vec_step(Code vec, int reg, Code code);
  /// Empty (allocating on first use) both step memos for `proto`.
  void reset_memos(const Protocol& proto);

  std::string name_;
  int n_;
  int m_;
  std::size_t words_;   ///< n + m decoded words
  std::size_t stride_;  ///< codes per row: n states, then the vector code
  util::spill::SpillStore<Code> store_;  ///< the code rows, by id
  std::size_t spill_threshold_ = 0;

  std::vector<Code> stage_;     ///< stride_ codes: intern(Value*) staging
  std::vector<Code> vstage_;    ///< m codes: register-vector staging
  std::vector<Slot> table_;     ///< open addressing, power-of-two size
  std::size_t mask_ = 0;        ///< table size - 1 (probe wrap, id bits)
  int shift_ = 0;               ///< 64 - log2(table size) (bucket index)

  std::vector<Value> dict_;  ///< code -> value
  /// value -> code, open addressing over a power-of-two table; a slot
  /// holds code + 1 (0 = empty).
  std::vector<std::uint32_t> dict_slots_;
  int dict_shift_ = 0;  ///< 64 - log2(dict_slots_.size())

  std::vector<Code> vecs_;  ///< vector code -> its m value codes
  /// register vector -> code, open addressing; a slot holds code + 1.
  std::vector<std::uint32_t> vec_slots_;
  int vec_shift_ = 0;  ///< 64 - log2(vec_slots_.size())

  /// The step memos, direct-mapped; empty until the first step().
  /// (p, op kind, state code, observed register code) -> bits 0..28 the
  /// key's tag, bit 29 valid, bits 32..47 the successor state's code,
  /// bits 48..63 the register's value code after the step.
  std::vector<std::uint64_t> state_memo_;
  /// (vector, register, value code) -> vector code: bits 0..47 the key
  /// with its valid bit, bits 48..63 the vector code.
  std::vector<std::uint64_t> vec_memo_;
  const Protocol* memo_proto_ = nullptr;  ///< the protocol the memos hold
};

}  // namespace tsb::sim

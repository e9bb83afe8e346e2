#include "sim/config_arena.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/checkpoint.hpp"
#include "util/require.hpp"

namespace tsb::sim {

namespace {
constexpr std::size_t kInitialSlots = 1u << 10;
constexpr std::size_t kInitialDictSlots = 1u << 6;

// splitmix64 finalizer: one full-avalanche pass over the accumulated
// hash. The per-lane step is a single xor-multiply (FNV-ish) — one mul of
// latency per lane instead of three — and this finalizer restores
// avalanche in both the low bits (bucket index) and the high bits (slot
// tag). Interning is the engines' single hottest function; the hash runs
// once per protocol step ever taken.
inline std::uint64_t finalize(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// The table `rows` interned configurations need at the 0.7 load bound.
std::size_t slots_for(std::size_t rows) {
  std::size_t need = kInitialSlots;
  while (rows * 10 >= need * 7) need *= 2;
  return need;
}

// Cold: a tag match whose row differs. Rare while the tag is wide; the
// tag narrows by a bit per table doubling, which this counter shows.
[[gnu::noinline, gnu::cold]] void count_tag_false_match() {
  static obs::Counter& c =
      obs::Registry::global().counter("sim.arena.tag_false_matches");
  c.add();
}

int shift_for(std::size_t slots) {
  int shift = 64;
  for (std::size_t s = slots; s > 1; s >>= 1) --shift;
  return shift;
}

/// Fibonacci hashing of a dictionary value: the top bits of the product
/// index the value -> code table.
inline std::uint64_t value_hash(Value v) {
  return static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ull;
}

}  // namespace

ConfigArena::ConfigArena(int num_states, int num_regs, std::string name)
    : name_(std::move(name)),
      n_(num_states),
      m_(num_regs),
      words_(static_cast<std::size_t>(num_states) +
             static_cast<std::size_t>(num_regs)),
      stage_(words_, 0),
      dict_slots_(kInitialDictSlots, 0),
      dict_shift_(shift_for(kInitialDictSlots)) {
  assert(num_states > 0 && num_regs >= 0);
  reset_table(kInitialSlots);
  store_.init(name_ + " arena", words_, 0);
}

void ConfigArena::reset_table(std::size_t slots) {
  std::vector<Slot>(slots).swap(table_);
  mask_ = slots - 1;
  shift_ = shift_for(slots);
}

void ConfigArena::clear() {
  // `need` is the table the last fill needed at the 0.7 load bound. One
  // grown far past it by an earlier, larger fill is replaced rather than
  // swept, so a run of small passes after a large one never zeroes the
  // large table; within kShrinkFactor of it, zeroing in place is cheaper
  // than growing back through the doublings.
  constexpr std::size_t kShrinkFactor = 16;
  const std::size_t need = slots_for(size());
  if (need * kShrinkFactor < table_.size()) {
    reset_table(need);
  } else {
    std::fill(table_.begin(), table_.end(), Slot{});
  }
  store_.clear();
  dict_.clear();
  std::fill(dict_slots_.begin(), dict_slots_.end(), 0u);
}

void ConfigArena::pack(const Config& c, Value* dst) const {
  assert(static_cast<int>(c.states.size()) == n_);
  assert(static_cast<int>(c.regs.size()) == m_);
  std::memcpy(dst, c.states.data(),
              static_cast<std::size_t>(n_) * sizeof(Value));
  std::memcpy(dst + n_, c.regs.data(),
              static_cast<std::size_t>(m_) * sizeof(Value));
}

std::uint32_t ConfigArena::dict_find(Value v) const {
  const std::size_t mask = dict_slots_.size() - 1;
  std::size_t i = value_hash(v) >> dict_shift_;
  while (true) {
    const std::uint32_t s = dict_slots_[i];
    if (s == 0) return kNoSlot;
    if (dict_[s - 1] == v) return s - 1;
    i = (i + 1) & mask;
  }
}

Code ConfigArena::dict_insert(Value v) {
  if (dict_.size() == kMaxCodes) {
    throw util::BudgetExhausted(
        "value dictionary of the " + name_ + " arena is full: " +
        std::to_string(kMaxCodes) +
        " distinct configuration words, the most a 16-bit code names; "
        "ledger: " +
        obs::MemLedger::global().attribution(3));
  }
  if ((dict_.size() + 1) * 2 > dict_slots_.size()) {
    // Keep the value -> code table at most half full; rebuilt from dict_.
    dict_slots_.assign(dict_slots_.size() * 2, 0u);
    --dict_shift_;
    const std::size_t mask = dict_slots_.size() - 1;
    for (std::size_t c = 0; c < dict_.size(); ++c) {
      std::size_t i = value_hash(dict_[c]) >> dict_shift_;
      while (dict_slots_[i] != 0) i = (i + 1) & mask;
      dict_slots_[i] = static_cast<std::uint32_t>(c + 1);
    }
  }
  const std::size_t mask = dict_slots_.size() - 1;
  std::size_t i = value_hash(v) >> dict_shift_;
  while (dict_slots_[i] != 0) i = (i + 1) & mask;
  dict_.push_back(v);
  dict_slots_[i] = static_cast<std::uint32_t>(dict_.size());
  return static_cast<Code>(dict_.size() - 1);
}

Config ConfigArena::materialize(ConfigId id) const {
  std::vector<Value> w(words_);
  decode(id, w.data());
  Config c;
  c.states.assign(w.begin(), w.begin() + n_);
  c.regs.assign(w.begin() + n_, w.end());
  return c;
}

ConfigArena::StepUndo ConfigArena::step(const Protocol& proto,
                                        const PendingOp& op, ProcId p,
                                        Value* vals, const Code* codes,
                                        Code* scodes) {
  const std::size_t s = static_cast<std::size_t>(p);
  const std::size_t r = static_cast<std::size_t>(n_ + op.reg);
  const StepUndo undo{s, r, vals[s], vals[r]};
  std::memcpy(scodes, codes, words_ * sizeof(Code));
  apply_op(proto, op, p, vals, vals + n_);
  if (vals[s] != undo.state) scodes[s] = encode(vals[s]);
  if (vals[r] != undo.reg) scodes[r] = encode(vals[r]);
  return undo;
}

std::uint64_t ConfigArena::hash_codes(const Code* c) const {
  std::uint64_t h = 0x5bd1e995u;
  std::size_t i = 0;
  for (; i + 4 <= words_; i += 4) {
    std::uint64_t lane;
    std::memcpy(&lane, c + i, sizeof(lane));
    h = (h ^ lane) * 0x100000001b3ull;
  }
  if (i < words_) {
    // The last 1-3 codes, assembled in registers: a variable-length memcpy
    // here is a libc call per hash, which measured as several percent of
    // a fresh-BFS pass.
    std::uint64_t lane = 0;
    for (int shift = 0; i < words_; ++i, shift += 16) {
      lane |= static_cast<std::uint64_t>(c[i]) << shift;
    }
    h = (h ^ lane) * 0x100000001b3ull;
  }
  return finalize(h);
}

void ConfigArena::grow_table() {
  // An entry keeps only the hash bits below its bucket, so growth rehashes
  // every row, in id order: resident rows by pointer, spilled ones through
  // the row store's forward cursor. Hashing runs kAhead rows ahead of the
  // insertions so each destination slot's cache miss is prefetched.
  // Nothing is read from the old table, so it is freed before the doubled
  // one is allocated.
  const std::size_t slots = table_.size() * 2;
  std::vector<Slot>().swap(table_);
  reset_table(slots);
  const std::size_t n = size();
  constexpr std::size_t kAhead = 8;
  std::uint64_t ring[kAhead] = {};
  const auto hash_ahead = [&](std::size_t id) {
    const std::uint64_t h = hash_codes(codes(static_cast<ConfigId>(id)));
    ring[id % kAhead] = h;
    __builtin_prefetch(table_.data() + (h >> shift_), 1);
  };
  for (std::size_t id = 0; id < std::min(kAhead, n); ++id) hash_ahead(id);
  for (std::size_t id = 0; id < n; ++id) {
    const std::uint64_t h = ring[id % kAhead];
    if (id + kAhead < n) hash_ahead(id + kAhead);
    std::size_t i = h >> shift_;
    while (table_[i] != 0) i = (i + 1) & mask_;
    table_[i] = tag_of(h) | static_cast<Slot>(id + 1);
  }
}

ConfigId ConfigArena::append_codes(const Code* c) {
  assert(size() < kNoConfig);
  return static_cast<ConfigId>(store_.append(c));
}

std::size_t ConfigArena::probe(const Code* c, std::uint64_t h) const {
  const Slot tag = tag_of(h);
  std::size_t i = h >> shift_;
  while (true) {
    const Slot s = table_[i];
    if (s == 0) return i;
    if (tag_of(s) == tag) {
      if (codes_equal(codes(id_of(s)), c)) return i;
      count_tag_false_match();
    }
    i = (i + 1) & mask_;
  }
}

ConfigArena::Interned ConfigArena::intern_prehashed(const Code* c,
                                                    std::uint64_t h) {
  // Keep the load factor below 0.7 (growth check before the probe so the
  // slot index stays valid through the insertion). The bound also keeps
  // id + 1 inside an entry's id bits.
  if ((size() + 1) * 10 >= table_.size() * 7) grow_table();
  const std::size_t i = probe(c, h);
  if (table_[i] != 0) return {id_of(table_[i]), false};
  const ConfigId id = append_codes(c);
  table_[i] = tag_of(h) | static_cast<Slot>(id + 1);
  return {id, true};
}

ConfigArena::Interned ConfigArena::intern(const Value* w) {
  for (std::size_t i = 0; i < words_; ++i) stage_[i] = encode(w[i]);
  return intern_codes(stage_.data());
}

ConfigArena::Interned ConfigArena::intern(const Config& c) {
  std::vector<Value> w(words_);
  pack(c, w.data());
  return intern(w.data());
}

ConfigId ConfigArena::find(const Value* w) const {
  std::vector<Code> row(words_);
  for (std::size_t i = 0; i < words_; ++i) {
    const std::uint32_t c = dict_find(w[i]);
    if (c == kNoSlot) return kNoConfig;
    row[i] = static_cast<Code>(c);
  }
  const Slot s = table_[probe(row.data(), hash_codes(row.data()))];
  return s == 0 ? kNoConfig : id_of(s);
}

void ConfigArena::save(util::ckpt::SectionWriter& w) const {
  w.put_u32(static_cast<std::uint32_t>(dict_.size()));
  for (const Value v : dict_) w.put_i64(v);
  const std::size_t count = size();
  w.put_u64(count);
  store_.save(w, count);
}

void ConfigArena::restore(util::ckpt::SectionReader& r,
                          const std::string& section) {
  TSB_REQUIRE(size() == 0 && dict_.empty(),
              "ConfigArena::restore requires an empty arena");
  const std::string where = "checkpoint " + section + " section";
  const std::uint32_t nd = r.get_u32();
  if (nd > kMaxCodes) {
    throw util::CheckpointInvalid(
        where + " claims a value dictionary of " + std::to_string(nd) +
        " words; a 16-bit code names at most " + std::to_string(kMaxCodes));
  }
  for (std::uint32_t c = 0; c < nd; ++c) {
    const Value v = r.get_i64();
    if (dict_find(v) != kNoSlot) {
      throw util::CheckpointInvalid(where + " names dictionary value " +
                                    std::to_string(v) + " twice");
    }
    dict_insert(v);
  }
  const std::uint64_t count = r.get_u64();
  // Size the table once instead of growing through every doubling. Each
  // group of kGroupRecords rows takes at least its raw first row and a u32
  // byte count, which caps the rows a hostile count can make us size for.
  const std::uint64_t group_bytes = words_ * sizeof(Code) + 4;
  const std::uint64_t fit = std::min<std::uint64_t>(
      count, r.remaining() / group_bytes * util::spill::kGroupRecords);
  const std::size_t need = slots_for(static_cast<std::size_t>(fit));
  if (need > table_.size()) reset_table(need);
  util::spill::load_records<Code>(
      r, count, words_, where,
      [&](const Code* rows, std::size_t k, std::uint64_t first) {
        for (std::size_t j = 0; j < k * words_; ++j) {
          if (rows[j] >= nd) {
            throw util::CheckpointInvalid(
                where + " carries code " + std::to_string(rows[j]) +
                " in configuration " + std::to_string(first + j / words_) +
                " but its dictionary holds " + std::to_string(nd) +
                " values");
          }
        }
        for (std::size_t i = 0; i < k; ++i) {
          const auto [id, inserted] = intern_codes(rows + i * words_);
          if (!inserted || static_cast<std::uint64_t>(id) != first + i) {
            throw util::CheckpointInvalid(
                where + " re-interned to a different id (configuration " +
                std::to_string(first + i) + " -> " + std::to_string(id) +
                "): duplicate or reordered rows");
          }
        }
      });
}

bool ConfigArena::set_spill(const std::string& dir,
                            std::size_t threshold_bytes,
                            std::size_t seg_configs_hint) {
  if (!store_.set_spill(dir, seg_configs_hint)) return false;
  spill_threshold_ = threshold_bytes;
  return true;
}

}  // namespace tsb::sim

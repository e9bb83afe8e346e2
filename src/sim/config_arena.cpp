#include "sim/config_arena.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "util/require.hpp"

namespace tsb::sim {

namespace {
constexpr std::size_t kInitialSlots = 1u << 10;
constexpr std::size_t kInitialDictSlots = 1u << 6;
/// log2 of each step memo's 8-byte entries: at 2^13, 128 KiB per stepping
/// arena, adversary 5's graph misses 2,802 times in 753,357 steps and
/// adversary 6's all but 0.7% of its steps hit.
constexpr int kMemoBits = 13;
/// A state-memo key is 42 bits: state code, observed register code, op
/// kind, p (below 64, given 8 bits). Multiplying by an odd constant mod
/// 2^42 permutes the keys, so the product's top kMemoBits bits pick the
/// slot and its other 29 bits, the tag, identify the key within it.
constexpr int kStateKeyBits = 42;
constexpr int kStateTagBits = kStateKeyBits - kMemoBits;
constexpr std::uint64_t kStateTag = (std::uint64_t{1} << kStateTagBits) - 1;
constexpr std::uint64_t kStateValid = std::uint64_t{1} << kStateTagBits;
/// The register-vector memo's key bits and valid bit (bits 48..63 hold the
/// answer).
constexpr std::uint64_t kVecMemoKey = (std::uint64_t{1} << 48) - 1;
constexpr std::uint64_t kVecMemoValid = std::uint64_t{1} << 47;

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

/// Hash of `len` codes (4 codes per 64-bit lane), finalized.
inline std::uint64_t hash_row(const Code* c, std::size_t len) {
  std::uint64_t h = 0x5bd1e995u;
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    std::uint64_t lane;
    std::memcpy(&lane, c + i, sizeof(lane));
    h = (h ^ lane) * 0x100000001b3ull;
  }
  if (i < len) {
    // The last 1-3 codes, assembled in registers: a variable-length memcpy
    // here is a libc call per hash, which measured as several percent of
    // a fresh-BFS pass.
    std::uint64_t lane = 0;
    for (int shift = 0; i < len; ++i, shift += 16) {
      lane |= static_cast<std::uint64_t>(c[i]) << shift;
    }
    h = (h ^ lane) * 0x100000001b3ull;
  }
  return finalize(h);
}

/// Direct-mapped memo slot of a key: Fibonacci hashing, top kMemoBits.
inline std::size_t memo_slot(std::uint64_t key) {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                  (64 - kMemoBits));
}

// Cold: a tag match whose row differs. Rare while the tag is wide; the
// tag narrows by a bit per table doubling, which this counter shows.
[[gnu::noinline, gnu::cold]] void count_tag_false_match() {
  static obs::Counter& c =
      obs::Registry::global().counter("sim.arena.tag_false_matches");
  c.add();
}

// Steps step() answered from its memo, without calling the protocol; the
// steps that did call it are sim.steps.*.
obs::Counter& step_memo_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("sim.arena.step_memo_hits");
  return c;
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
      stride_(static_cast<std::size_t>(num_states) + (num_regs > 0 ? 1 : 0)),
      stage_(stride_, 0),
      vstage_(static_cast<std::size_t>(num_regs), 0),
      dict_slots_(kInitialDictSlots, 0),
      dict_shift_(shift_for(kInitialDictSlots)),
      vec_slots_(kInitialDictSlots, 0),
      vec_shift_(shift_for(kInitialDictSlots)) {
  // The register-vector memo key holds a register id in 15 bits.
  assert(num_states > 0 && num_regs >= 0 && num_regs < (1 << 15));
  reset_table(kInitialSlots);
  store_.init(name_ + " arena", stride_, 0);
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
  vecs_.clear();
  std::fill(vec_slots_.begin(), vec_slots_.end(), 0u);
  if (memo_proto_ != nullptr) reset_memos(*memo_proto_);
}

void ConfigArena::pack(const Config& c, Value* dst) const {
  assert(static_cast<int>(c.states.size()) == n_);
  assert(static_cast<int>(c.regs.size()) == m_);
  // std::copy, not memcpy: a protocol without registers has an empty
  // regs vector, whose data() may be null.
  std::copy(c.states.begin(), c.states.end(), dst);
  std::copy(c.regs.begin(), c.regs.end(), dst + n_);
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

std::uint32_t ConfigArena::vec_find(const Code* regs) const {
  const std::size_t m = static_cast<std::size_t>(m_);
  const std::size_t mask = vec_slots_.size() - 1;
  std::size_t i = hash_row(regs, m) >> vec_shift_;
  while (true) {
    const std::uint32_t s = vec_slots_[i];
    if (s == 0) return kNoSlot;
    if (std::memcmp(reg_codes(static_cast<Code>(s - 1)), regs,
                    m * sizeof(Code)) == 0) {
      return s - 1;
    }
    i = (i + 1) & mask;
  }
}

Code ConfigArena::vec_insert(const Code* regs) {
  const std::size_t m = static_cast<std::size_t>(m_);
  const std::size_t count = vec_dict_size();
  if (count == kMaxCodes) {
    throw util::BudgetExhausted(
        "register-vector dictionary of the " + name_ + " arena is full: " +
        std::to_string(kMaxCodes) +
        " distinct register vectors, the most a 16-bit code names; "
        "ledger: " +
        obs::MemLedger::global().attribution(3));
  }
  if ((count + 1) * 2 > vec_slots_.size()) {
    // Keep the vector -> code table at most half full; rebuilt from vecs_.
    vec_slots_.assign(vec_slots_.size() * 2, 0u);
    --vec_shift_;
    const std::size_t mask = vec_slots_.size() - 1;
    for (std::size_t c = 0; c < count; ++c) {
      std::size_t i = hash_row(vecs_.data() + c * m, m) >> vec_shift_;
      while (vec_slots_[i] != 0) i = (i + 1) & mask;
      vec_slots_[i] = static_cast<std::uint32_t>(c + 1);
    }
  }
  const std::size_t mask = vec_slots_.size() - 1;
  std::size_t i = hash_row(regs, m) >> vec_shift_;
  while (vec_slots_[i] != 0) i = (i + 1) & mask;
  vecs_.insert(vecs_.end(), regs, regs + m);
  vec_slots_[i] = static_cast<std::uint32_t>(count + 1);
  return static_cast<Code>(count);
}

Config ConfigArena::materialize(ConfigId id) const {
  std::vector<Value> w(words_);
  decode(id, w.data());
  Config c;
  c.states.assign(w.begin(), w.begin() + n_);
  c.regs.assign(w.begin() + n_, w.end());
  return c;
}

void ConfigArena::reset_memos(const Protocol& proto) {
  memo_proto_ = &proto;
  state_memo_.assign(std::size_t{1} << kMemoBits, 0);
  vec_memo_.assign(std::size_t{1} << kMemoBits, 0);
}

ConfigArena::StepUndo ConfigArena::step(const Protocol& proto,
                                        const PendingOp& op, ProcId p,
                                        Value* vals, const Code* codes,
                                        Code* scodes) {
  assert(m_ > 0 && !op.is_decide() && p >= 0 && p < 256);
  if (memo_proto_ != &proto) reset_memos(proto);
  const std::size_t s = static_cast<std::size_t>(p);
  const std::size_t r = static_cast<std::size_t>(n_ + op.reg);
  const StepUndo undo{s, r, vals[s], vals[r]};
  std::memcpy(scodes, codes, stride_ * sizeof(Code));
  const Code vec = codes[n_];
  const Code old_reg = reg_codes(vec)[op.reg];
  // A write's successor does not depend on what it overwrites.
  const Code observed = op.is_write() ? Code{0} : old_reg;
  const std::uint64_t key = static_cast<std::uint64_t>(p) << 34 |
                            static_cast<std::uint64_t>(op.kind) << 32 |
                            static_cast<std::uint64_t>(observed) << 16 |
                            codes[s];
  const std::uint64_t mixed =
      (key * 0x9e3779b97f4a7c15ull) & ((std::uint64_t{1} << kStateKeyBits) - 1);
  const std::uint64_t tag = (mixed & kStateTag) | kStateValid;
  std::uint64_t& e = state_memo_[mixed >> kStateTagBits];
  if ((e & (kStateTag | kStateValid)) == tag) {
    step_memo_hits().add();
    vals[s] = value(static_cast<Code>(e >> 32));
    vals[r] = value(static_cast<Code>(e >> 48));
  } else {
    apply_op(proto, op, p, vals, vals + n_);
    e = tag | static_cast<std::uint64_t>(encode(vals[s])) << 32 |
        static_cast<std::uint64_t>(encode(vals[r])) << 48;
  }
  scodes[s] = static_cast<Code>(e >> 32);
  const Code reg = static_cast<Code>(e >> 48);
  if (reg != old_reg) scodes[n_] = vec_step(vec, op.reg, reg);
  return undo;
}

Code ConfigArena::vec_step(Code vec, int reg, Code code) {
  const std::uint64_t key = kVecMemoValid |
                            static_cast<std::uint64_t>(reg) << 32 |
                            static_cast<std::uint64_t>(code) << 16 | vec;
  std::uint64_t& e = vec_memo_[memo_slot(key)];
  if ((e & kVecMemoKey) == key) return static_cast<Code>(e >> 48);
  std::memcpy(vstage_.data(), reg_codes(vec),
              static_cast<std::size_t>(m_) * sizeof(Code));
  vstage_[static_cast<std::size_t>(reg)] = code;
  const Code next = encode_regs(vstage_.data());
  e = key | static_cast<std::uint64_t>(next) << 48;
  return next;
}

std::uint64_t ConfigArena::hash_codes(const Code* c) const {
  return hash_row(c, stride_);
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
  for (int i = 0; i < n_; ++i) stage_[i] = encode(w[i]);
  if (m_ > 0) {
    for (int r = 0; r < m_; ++r) vstage_[r] = encode(w[n_ + r]);
    stage_[n_] = encode_regs(vstage_.data());
  }
  return intern_codes(stage_.data());
}

ConfigArena::Interned ConfigArena::intern(const Config& c) {
  std::vector<Value> w(words_);
  pack(c, w.data());
  return intern(w.data());
}

ConfigId ConfigArena::find(const Value* w) const {
  // row[0..words_) are the words' codes; the vector code of row[n..n+m)
  // then takes row[n], which leaves the stored row in row[0..stride_).
  std::vector<Code> row(words_ + 1);
  for (std::size_t i = 0; i < words_; ++i) {
    const std::uint32_t c = dict_find(w[i]);
    if (c == kNoSlot) return kNoConfig;
    row[i] = static_cast<Code>(c);
  }
  if (m_ > 0) {
    const std::uint32_t v = vec_find(row.data() + n_);
    if (v == kNoSlot) return kNoConfig;
    row[n_] = static_cast<Code>(v);
  }
  const Slot s = table_[probe(row.data(), hash_codes(row.data()))];
  return s == 0 ? kNoConfig : id_of(s);
}

bool ConfigArena::set_spill(const std::string& dir,
                            std::size_t threshold_bytes,
                            std::size_t seg_configs_hint) {
  if (!store_.set_spill(dir, seg_configs_hint)) return false;
  spill_threshold_ = threshold_bytes;
  return true;
}

}  // namespace tsb::sim

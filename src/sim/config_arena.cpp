#include "sim/config_arena.hpp"

#include <cassert>
#include <cstring>


namespace tsb::sim {

namespace {
constexpr std::size_t kInitialSlots = 1u << 10;

// splitmix64 finalizer: one full-avalanche pass over the accumulated
// hash. The per-word step is a single xor-multiply (FNV-ish) — one mul of
// latency per word instead of three — and this finalizer restores
// avalanche in both the low bits (bucket index) and the high bits (slot
// tag). Interning is the engines' single hottest function; the hash runs
// once per protocol step ever taken.
inline std::uint64_t finalize(std::uint64_t h) {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

ConfigArena::ConfigArena(int num_states, int num_regs)
    : n_(num_states),
      m_(num_regs),
      words_(static_cast<std::size_t>(num_states) +
             static_cast<std::size_t>(num_regs)),
      scratch_(words_, 0),
      table_(kInitialSlots),
      mask_(kInitialSlots - 1) {
  assert(num_states > 0 && num_regs >= 0);
  shift_ = 64;
  for (std::size_t s = kInitialSlots; s > 1; s >>= 1) --shift_;
  store_.init("arena", words_, 0);
}

void ConfigArena::clear() {
  for (Slot& s : table_) s = Slot{};
  store_.clear();
}

void ConfigArena::pack(const Config& c, Value* dst) const {
  assert(static_cast<int>(c.states.size()) == n_);
  assert(static_cast<int>(c.regs.size()) == m_);
  std::memcpy(dst, c.states.data(),
              static_cast<std::size_t>(n_) * sizeof(Value));
  std::memcpy(dst + n_, c.regs.data(),
              static_cast<std::size_t>(m_) * sizeof(Value));
}

std::uint64_t ConfigArena::hash_words(const Value* w) const {
  std::uint64_t h = 0x5bd1e995u;
  for (std::size_t i = 0; i < words_; ++i) {
    h = (h ^ static_cast<std::uint64_t>(w[i])) * 0x100000001b3ull;
  }
  return finalize(h);
}

void ConfigArena::grow_table() {
  // High-bit bucket indexing makes growth a single sequential pass: each
  // entry's new bucket is a prefix of its stored tag, so nothing is
  // rehashed and the word store is never touched. The only random access
  // is the destination write, which the lookahead prefetch below covers.
  std::vector<Slot> bigger(table_.size() * 2);
  const std::size_t mask = bigger.size() - 1;
  const int shift = shift_ - 1;
  const int tag_shift = shift - 32;  // >= 0 while the table has < 2^32 slots
  const std::size_t nslots = table_.size();
  constexpr std::size_t kAhead = 8;
  for (std::size_t j = 0; j < nslots; ++j) {
    if (j + kAhead < nslots) {
      const Slot& a = table_[j + kAhead];
      if (a.id != kNoConfig) {
        __builtin_prefetch(
            bigger.data() + (static_cast<std::size_t>(a.tag) >> tag_shift), 1);
      }
    }
    const Slot& s = table_[j];
    if (s.id == kNoConfig) continue;
    std::size_t i = static_cast<std::size_t>(s.tag) >> tag_shift;
    while (bigger[i].id != kNoConfig) i = (i + 1) & mask;
    bigger[i] = s;
  }
  table_ = std::move(bigger);
  mask_ = mask;
  shift_ = shift;
}

ConfigId ConfigArena::append_words(const Value* w) {
  assert(size() < kNoConfig);
  return static_cast<ConfigId>(store_.append(w));
}

ConfigArena::Interned ConfigArena::intern_words(const Value* w) {
  return intern_prehashed(w, hash_words(w));
}

ConfigArena::Interned ConfigArena::intern_prehashed(const Value* w,
                                                    std::uint64_t h) {
  // Keep the load factor below 0.7 (growth check before the probe so slot
  // references stay valid through the insertion).
  if ((size() + 1) * 10 >= table_.size() * 7) grow_table();
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = h >> shift_;
  while (true) {
    Slot& s = table_[i];
    if (s.id == kNoConfig) {
      const ConfigId id = append_words(w);
      s.tag = tag;
      s.id = id;
      return {id, true};
    }
    if (s.tag == tag && words_equal(words(s.id), w)) return {s.id, false};
    i = (i + 1) & mask_;
  }
}

ConfigId ConfigArena::find(const Value* w) const {
  const std::uint64_t h = hash_words(w);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  std::size_t i = h >> shift_;
  while (true) {
    const Slot& s = table_[i];
    if (s.id == kNoConfig) return kNoConfig;
    if (s.tag == tag && words_equal(words(s.id), w)) return s.id;
    i = (i + 1) & mask_;
  }
}

bool ConfigArena::set_spill(const std::string& dir,
                            std::size_t threshold_bytes,
                            std::size_t seg_configs_hint) {
  if (!store_.set_spill(dir, seg_configs_hint)) return false;
  spill_threshold_ = threshold_bytes;
  return true;
}

}  // namespace tsb::sim

#include "sim/config_arena.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>

#include "obs/flight.hpp"
#include "obs/memledger.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"

namespace tsb::sim {

namespace {
constexpr std::size_t kInitialSlots = 1u << 10;

/// Configurations per delta group in a spilled block (the shared codec's
/// group size — see util/spill_store.hpp for the format).
constexpr std::size_t kGroup = util::spill::kGroupRecords;

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
  // Segments target ~4 MB of words each: big enough that the directory
  // stays tiny and spill blocks amortize their syscalls, small enough
  // that one segment is a meaningful spill quantum for CI-sized budgets.
  seg_configs_ = kGroup;
  while (seg_configs_ * words_ * sizeof(Value) < (4u << 20) &&
         seg_configs_ < (1u << 20)) {
    seg_configs_ <<= 1;
  }
  seg_mask_ = seg_configs_ - 1;
  seg_shift_ = 0;
  for (std::size_t s = seg_configs_; s > 1; s >>= 1) ++seg_shift_;
}

ConfigArena::~ConfigArena() {
  for (Seg& s : segs_) {
    release_map(s);
    delete[] s.data;
  }
}

void ConfigArena::alloc_seg_data(Seg& s) {
  // Flat, uninitialized block (geas Vec idiom).
  s.data = new Value[seg_configs_ * words_];
  resident_words_bytes_ += seg_configs_ * words_ * sizeof(Value);
}

void ConfigArena::add_segment() {
  Seg seg;
  alloc_seg_data(seg);
  segs_.push_back(seg);
}

void ConfigArena::clear() {
  count_ = 0;
  for (Slot& s : table_) s = Slot{};
  if (spilled_segments_ != 0 || spill_file_.end_offset() != 0) {
    for (Seg& s : segs_) {
      release_map(s);
      if (s.data == nullptr) alloc_seg_data(s);  // was spilled; re-arm
    }
    spill_file_.truncate();
    first_resident_seg_ = 0;
    spilled_segments_ = 0;
    spilled_bytes_ = 0;
  }
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
  assert(count_ < kNoConfig);
  const ConfigId id = static_cast<ConfigId>(count_);
  if (count_ == segs_.size() * seg_configs_) add_segment();
  std::memcpy(segs_[id >> seg_shift_].data +
                  (static_cast<std::size_t>(id) & seg_mask_) * words_,
              w, words_ * sizeof(Value));
  ++count_;
  return id;
}

ConfigArena::Interned ConfigArena::intern_words(const Value* w) {
  return intern_prehashed(w, hash_words(w));
}

ConfigArena::Interned ConfigArena::intern_prehashed(const Value* w,
                                                    std::uint64_t h) {
  // Keep the load factor below 0.7 (growth check before the probe so slot
  // references stay valid through the insertion).
  if ((count_ + 1) * 10 >= table_.size() * 7) grow_table();
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

// --- out-of-core --------------------------------------------------------

bool ConfigArena::set_spill(const std::string& dir,
                            std::size_t threshold_bytes,
                            std::size_t seg_configs_hint) {
  TSB_REQUIRE(count_ == 0,
              "ConfigArena::set_spill requires an empty arena");
  TSB_REQUIRE(words_ <= 255,
              "spill delta encoding stores slot counts in one byte");
  spill_file_.close();
  // Segment geometry may change below; drop any allocations from a prior
  // run (set_spill is a per-run reconfiguration, not a hot path).
  for (Seg& s : segs_) {
    release_map(s);
    delete[] s.data;
  }
  segs_.clear();
  resident_words_bytes_ = 0;
  spilled_bytes_ = 0;
  first_resident_seg_ = 0;
  spilled_segments_ = 0;
  if (seg_configs_hint != 0) {
    std::size_t sc = kGroup;
    while (sc < seg_configs_hint) sc <<= 1;
    seg_configs_ = sc;
    seg_mask_ = sc - 1;
    seg_shift_ = 0;
    for (std::size_t s = sc; s > 1; s >>= 1) ++seg_shift_;
  }
  if (!spill_file_.open(dir)) return false;
  spill_threshold_ = threshold_bytes;
  return true;
}

void ConfigArena::release_map(Seg& s) {
  if (s.blk.valid()) {
    mapped_bytes_ -= s.blk.map_len;
    spill_file_.release(s.blk);
  }
}

bool ConfigArena::spill_segment(Seg& s) {
  // Encode through the shared codec (see util/spill_store.hpp for the
  // block format), then append at a page-aligned offset so the block can
  // be mapped directly. The write goes through the iofault wrapper (so the
  // CI fault matrix can inject ENOSPC/short-write/EINTR here); pwrite_full
  // owns the EINTR and short-write retry loop.
  std::vector<std::uint8_t> block;
  util::spill::encode_block<Value>(s.data, seg_configs_, words_, block);
  util::spill::BackingFile::Block blk;
  if (!spill_file_.append(block.data(), block.size(), blk)) {
    ++spill_failures_;
    return false;
  }
  s.blk = blk;
  delete[] s.data;
  s.data = nullptr;
  resident_words_bytes_ -= seg_configs_ * words_ * sizeof(Value);
  spilled_bytes_ += blk.bytes;
  mapped_bytes_ += blk.map_len;
  ++spilled_segments_;
  return true;
}

std::size_t ConfigArena::maybe_spill(ConfigId pin_floor) {
  if (!spill_file_.valid()) return 0;
  const std::size_t seg_bytes = seg_configs_ * words_ * sizeof(Value);
  // Only FULL segments spill (the partial tail is still being appended
  // to), and never one at or above the pin floor: callers pin the
  // unexpanded frontier so its reads stay pointer-direct.
  const std::size_t full = count_ >> seg_shift_;
  const std::size_t pinned = static_cast<std::size_t>(pin_floor) >> seg_shift_;
  const std::size_t limit = full < pinned ? full : pinned;
  std::size_t released = 0;
  for (std::size_t i = first_resident_seg_; i < limit; ++i) {
    if (resident_words_bytes_ <= spill_threshold_) break;
    Seg& s = segs_[i];
    if (s.data == nullptr) continue;
    if (!spill_segment(s)) {
      const int err = errno;
      spill_file_.close();
      util::spill::throw_spill_failure("arena", err, resident_words_bytes_,
                                       spill_threshold_);
    }
    first_resident_seg_ = i + 1;
    released += seg_bytes;
  }
  return released;
}

const Value* ConfigArena::decode_spilled(const Seg& s,
                                         std::size_t local) const {
  static thread_local std::vector<Value> buf;
  if (buf.size() < words_) buf.resize(words_);
  util::spill::decode_record<Value>(s.blk.map + s.blk.skip, local, words_,
                                    buf.data());
  return buf.data();
}

}  // namespace tsb::sim

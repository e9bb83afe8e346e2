#pragma once

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace tsb::util::spill {

/// Records per delta group in a spilled block: the first is stored raw (a
/// random-access checkpoint), the rest as deltas against their predecessor.
/// 64 keeps worst-case decode at 63 delta applications while amortizing the
/// raw checkpoint to under an eighth of the group.
inline constexpr std::size_t kGroupRecords = 64;

inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t unzigzag(std::uint64_t u) {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Write `v` as a varint at `out`; returns the byte past it.
inline std::uint8_t* put_varint(std::uint8_t* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
  return out;
}

/// Read one varint from [p, end). A varint that runs past `end` or past
/// ten bytes is refused: spilled blocks are read back from disk, so their
/// bytes are hostile input.
inline std::uint64_t get_varint(const std::uint8_t*& p,
                                const std::uint8_t* end) {
  std::uint64_t v = 0;
  for (int shift = 0;; shift += 7) {
    TSB_REQUIRE(p < end, "spill codec: varint runs past the block");
    TSB_REQUIRE(shift < 70, "spill codec: varint longer than ten bytes");
    const std::uint8_t b = *p++;
    if (shift < 64) v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
  }
}

inline void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::size_t page_size();

inline std::size_t round_up(std::size_t v, std::size_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// Delta/varint/zigzag block codec shared by ConfigArena (u16 codes) and
/// the reach graph's edge stores (u8 / u32 / u64 words). A group holds up
/// to kGroupRecords fixed-stride records: the first is raw, the rest are
/// delta records against their predecessor: a changed-word mask of
/// mask_bytes(stride) bytes (word i is bit i % 8 of byte i / 8, set iff
/// the word changed), then one zigzag-varint value delta per set bit, in
/// ascending word order. Deltas are computed mod 2^64, so the encoding is
/// bit-exact for any unsigned or two's-complement word width.
inline constexpr std::size_t mask_bytes(std::size_t stride) {
  return (stride + 7) / 8;
}

/// The most bytes one changed word's value delta can take: for a W
/// narrower than 64 bits the delta is under 2^(8 sizeof W) in magnitude,
/// so its zigzag form needs 8 sizeof W + 1 bits.
template <class W>
constexpr std::size_t max_word_delta_bytes() {
  return sizeof(W) == 8 ? 10 : (8 * sizeof(W) + 1 + 6) / 7;
}

/// The most bytes encode_group writes for `nrecs` records.
template <class W>
constexpr std::size_t group_bound(std::size_t nrecs, std::size_t stride) {
  return stride * sizeof(W) +
         (nrecs - 1) *
             (mask_bytes(stride) + stride * max_word_delta_bytes<W>());
}

/// Encode records [0, nrecs) at `recs` (1 <= nrecs <= kGroupRecords) as
/// one group at `out`, which must have group_bound(nrecs, stride) bytes.
/// Returns the bytes written. The spill blocks are made of these groups,
/// so the encoding must not drift (tests pin its bytes).
template <class W>
std::size_t encode_group(const W* recs, std::size_t nrecs, std::size_t stride,
                         std::uint8_t* out) {
  const std::size_t nmask = mask_bytes(stride);
  std::uint8_t* at = out;
  std::memcpy(at, recs, stride * sizeof(W));
  at += stride * sizeof(W);
  for (std::size_t c = 1; c < nrecs; ++c) {
    const W* cur = recs + c * stride;
    const W* prev = cur - stride;
    std::uint8_t* mask = at;
    at += nmask;
    // Mask the changed words first, without a branch per word, then visit
    // only those: a record usually changes two or three words at positions
    // a per-word branch cannot predict.
    for (std::size_t lo = 0; lo < stride; lo += 64) {
      const std::size_t hi = std::min(stride, lo + 64);
      std::uint64_t changed = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        changed |= static_cast<std::uint64_t>(cur[i] != prev[i]) << (i - lo);
      }
      for (std::size_t b = lo / 8; b < (hi + 7) / 8; ++b) {
        mask[b] = static_cast<std::uint8_t>(changed >> (8 * (b - lo / 8)));
      }
      for (; changed != 0; changed &= changed - 1) {
        const std::size_t i =
            lo + static_cast<std::size_t>(__builtin_ctzll(changed));
        at = put_varint(at, zigzag(static_cast<std::int64_t>(
                                static_cast<std::uint64_t>(cur[i]) -
                                static_cast<std::uint64_t>(prev[i]))));
      }
    }
  }
  return static_cast<std::size_t>(at - out);
}

/// A spill block: `nrecs` records (a multiple of kGroupRecords) as groups
/// behind a u32 group count and a per-group u32 offset table, which gives
/// random access at group granularity. The block is sized for the worst
/// case one group at a time and written through a pointer.
template <class W>
void encode_block(const W* recs, std::size_t nrecs, std::size_t stride,
                  std::vector<std::uint8_t>& block) {
  const std::size_t ngroups = nrecs / kGroupRecords;
  const std::size_t base = 4 + 4 * ngroups;
  const std::size_t bound = group_bound<W>(kGroupRecords, stride);
  block.resize(base + nrecs * stride * sizeof(W) / 2 + bound);
  put_u32(block.data(), static_cast<std::uint32_t>(ngroups));
  std::size_t at = base;
  for (std::size_t g = 0; g < ngroups; ++g) {
    if (block.size() - at < bound) block.resize(at + at / 2 + bound);
    put_u32(block.data() + 4 + 4 * g, static_cast<std::uint32_t>(at - base));
    at += encode_group<W>(recs + g * kGroupRecords * stride, kGroupRecords,
                          stride, block.data() + at);
  }
  block.resize(at);
}

/// Start of group `g`'s raw record in a `len`-byte block, with every
/// header word the lookup reads checked against `len`.
template <class W>
const std::uint8_t* group_start(const std::uint8_t* block, std::size_t len,
                                std::size_t g, std::size_t stride) {
  TSB_REQUIRE(len >= 4, "spill codec: block shorter than its header");
  const std::size_t ngroups = get_u32(block);
  TSB_REQUIRE(g < ngroups, "spill codec: group index out of block range");
  TSB_REQUIRE(ngroups <= (len - 4) / 4,
              "spill codec: group table runs past the block");
  const std::size_t base = 4 + 4 * ngroups;
  const std::size_t off = get_u32(block + 4 + 4 * g);
  TSB_REQUIRE(off <= len - base && stride * sizeof(W) <= len - base - off,
              "spill codec: group offset runs past the block");
  return block + base + off;
}

/// Apply one delta record at p (bounded by `end`) to `rec`. A mask that
/// runs past `end`, or that marks a word at or past `stride`, is refused,
/// never applied.
template <class W>
void apply_delta(const std::uint8_t*& p, const std::uint8_t* end,
                 std::size_t stride, W* rec) {
  const std::size_t nmask = mask_bytes(stride);
  TSB_REQUIRE(static_cast<std::size_t>(end - p) >= nmask,
              "spill codec: changed-word mask runs past the block");
  const std::uint8_t* mask = p;
  p += nmask;
  TSB_REQUIRE(stride % 8 == 0 || mask[nmask - 1] >> (stride % 8) == 0,
              "spill codec: mask marks a word past the record");
  for (std::size_t lo = 0; lo < stride; lo += 64) {
    std::uint64_t changed = 0;
    for (std::size_t b = lo / 8; b < std::min(nmask, lo / 8 + 8); ++b) {
      changed |= static_cast<std::uint64_t>(mask[b]) << (8 * (b - lo / 8));
    }
    for (; changed != 0; changed &= changed - 1) {
      W& word = rec[lo + static_cast<std::size_t>(__builtin_ctzll(changed))];
      word = static_cast<W>(static_cast<std::uint64_t>(word) +
                            static_cast<std::uint64_t>(
                                unzigzag(get_varint(p, end))));
    }
  }
}

/// Decode group `g` of the `len`-byte block (kGroupRecords records) into
/// `out` (`kGroupRecords * stride` words): one raw copy, then each delta
/// applied once against its decoded predecessor.
template <class W>
void decode_group(const std::uint8_t* block, std::size_t len, std::size_t g,
                  std::size_t stride, W* out) {
  const std::uint8_t* p = group_start<W>(block, len, g, stride);
  const std::uint8_t* end = block + len;
  std::memcpy(out, p, stride * sizeof(W));
  p += stride * sizeof(W);
  for (std::size_t c = 1; c < kGroupRecords; ++c) {
    W* cur = out + c * stride;
    std::memcpy(cur, cur - stride, stride * sizeof(W));
    apply_delta<W>(p, end, stride, cur);
  }
}

/// Decode every record of the `len`-byte block into `out` (`nrecs * stride`
/// words): the fault-in path when a spilled segment must become writable
/// again.
template <class W>
void decode_all(const std::uint8_t* block, std::size_t len, std::size_t nrecs,
                std::size_t stride, W* out) {
  TSB_REQUIRE(len >= 4 && get_u32(block) == nrecs / kGroupRecords,
              "spill codec: block group count mismatch");
  for (std::size_t g = 0; g < nrecs / kGroupRecords; ++g) {
    decode_group<W>(block, len, g, stride, out + g * kGroupRecords * stride);
  }
}

/// The unlinked backing file behind every spill consumer. The file is
/// unlinked the moment it exists: the fd keeps the space alive, the name
/// never leaks past a crash, and the memory ledger (not the filesystem) is
/// the interface for "how much is spilled". Blocks append at page-aligned
/// offsets so they can be mapped read-only directly; release() unmaps and
/// (best effort) punches a hole so a re-spilled segment's superseded block
/// returns its disk space. Writes go through the iofault wrapper, so the
/// CI fault matrix can inject ENOSPC/short-write/EINTR on any spill write.
class BackingFile {
 public:
  struct Block {
    std::uint8_t* map = nullptr;  ///< mmap'd compressed block (read-only)
    std::size_t map_len = 0;      ///< mapped length (page-aligned)
    std::size_t bytes = 0;        ///< compressed payload bytes
    std::uint64_t file_off = 0;   ///< block start within the backing file
    bool valid() const { return map != nullptr; }
  };

  BackingFile() = default;
  ~BackingFile() { close(); }
  BackingFile(const BackingFile&) = delete;
  BackingFile& operator=(const BackingFile&) = delete;

  /// Create the unlinked O_EXCL backing file under `dir`. Returns false
  /// (and leaves the object invalid) if the directory is unusable.
  bool open(const std::string& dir);
  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Append `len` bytes at the next page-aligned offset and map them
  /// read-only. Returns false with errno set on write/mmap failure; the
  /// caller owns the consequence (the spill consumers treat it as a budget
  /// failure, not a shrug).
  bool append(const std::uint8_t* data, std::size_t len, Block& out);

  /// Unmap a block and, best effort, punch a hole over its file range so a
  /// superseded block's disk space returns to the filesystem.
  void release(Block& b);

  /// Back to an empty file (all blocks must be released first).
  void truncate();
  void close();

  std::uint64_t end_offset() const { return end_; }

 private:
  int fd_ = -1;
  std::uint64_t end_ = 0;
};

/// The one segmented, spillable array of fixed-stride records: ConfigArena
/// keeps its configurations' code rows in one, the reach graph its per-node
/// edge data (successor ids, per-edge renamings, decide flags) in three
/// more. Records are `stride` words of W in power-of-two segments allocated
/// flat with new[] and written only as ensure() or append() admits
/// records, so pages past the last record are never touched. Cold full
/// segments compress into the BackingFile at quiescent points and decode
/// on demand.
///
/// Arena records never change once written, but edge records MUTATE (a
/// later query with a different ProcSet expands a previously unexpanded
/// edge at an old node), so write_ptr() on a spilled record faults the
/// whole segment back to resident — decoding it, releasing the stale disk
/// block (hole-punched), and letting the next quiescent spill re-encode it.
/// read() on a spilled record decodes through a per-store forward cursor
/// and never faults anything in. No checkpoint holds a store's records.
///
/// Thread safety: none — every owner runs its whole reachability pass on
/// one thread.
template <class W>
class SpillStore {
 public:
  SpillStore() = default;
  ~SpillStore() { release_maps(); }
  SpillStore(const SpillStore&) = delete;
  SpillStore& operator=(const SpillStore&) = delete;

  /// `name` labels failure messages; `fill` is the value admitted records
  /// are initialized to (kUnexpanded for successor ids).
  void init(std::string name, std::size_t stride, W fill) {
    TSB_REQUIRE(segs_.empty(), "SpillStore::init on a non-empty store");
    TSB_REQUIRE(stride >= 1, "SpillStore records need at least one word");
    name_ = std::move(name);
    stride_ = stride;
    fill_ = fill;
    // Segments target ~4 MB each: big enough to amortize the spill
    // syscalls, small enough to be a meaningful spill quantum.
    seg_recs_ = kGroupRecords;
    while (seg_recs_ * stride_ * sizeof(W) < (4u << 20) &&
           seg_recs_ < (1u << 22)) {
      seg_recs_ <<= 1;
    }
    recompute_geometry();
  }

  /// Enable spilling to an unlinked backing file under `dir`.
  /// `seg_recs_hint` (0 = keep the ~4 MB default) shrinks segments so tiny
  /// test runs still cross segment boundaries. Must be called before the
  /// first ensure(). Returns false if the directory is unusable.
  bool set_spill(const std::string& dir, std::size_t seg_recs_hint) {
    TSB_REQUIRE(segs_.empty(), "SpillStore::set_spill after first ensure()");
    if (seg_recs_hint != 0) {
      std::size_t sr = kGroupRecords;
      while (sr < seg_recs_hint) sr <<= 1;
      seg_recs_ = sr;
      recompute_geometry();
    }
    return file_.open(dir);
  }

  bool spill_enabled() const { return file_.valid(); }
  std::size_t size() const { return size_; }
  std::size_t stride() const { return stride_; }
  std::size_t segment_records() const { return seg_recs_; }

  /// Grow to at least `nrecs` records; newly admitted records read as fill.
  void ensure(std::size_t nrecs) {
    if (nrecs <= size_) return;
    while (cap_ < nrecs) {
      segs_.emplace_back();
      alloc_seg(segs_.back());
      cap_ += seg_recs_;
    }
    // Records past size() live in resident segments: only full segments
    // spill, and clear() re-arms every spilled one.
    for (; size_ < nrecs; ++size_) {
      std::fill_n(segs_[size_ >> shift_].data.get() + (size_ & mask_) * stride_,
                  stride_, fill_);
    }
  }

  /// Append a copy of the `stride` words at `rec` and return its index.
  /// The tail segment is always resident (only full segments spill, and
  /// clear() re-arms every spilled one), so this is one copy: no fill and
  /// no spill check. Stores that need the fill value use ensure().
  std::size_t append(const W* rec) {
    if (size_ == cap_) {
      segs_.emplace_back();
      alloc_seg(segs_.back());
      cap_ += seg_recs_;
    }
    std::copy_n(rec, stride_,
                segs_[size_ >> shift_].data.get() + (size_ & mask_) * stride_);
    return size_++;
  }

  /// Drop every record but keep the segments allocated for reuse: spilled
  /// segments are re-armed, their blocks unmapped and the backing file
  /// truncated.
  void clear() {
    admitted_ = std::max(admitted_, size_);
    size_ = 0;
    if (spilled_segments_ == 0 && file_.end_offset() == 0) return;
    for (Seg& s : segs_) {
      release(s);
      if (s.data == nullptr) alloc_seg(s);
    }
    file_.truncate();
    first_resident_ = 0;
    spilled_segments_ = 0;
    spilled_bytes_ = 0;
  }

  /// Read access to one record. Resident segments return a direct pointer.
  /// A spilled record decodes into this store's cursor buffer, valid until
  /// the next read() of a spilled record in this store or the next call
  /// that changes the store; reads of other stores leave it alone. The
  /// cursor keeps the last record it decoded and where its delta ended, so
  /// an ascending read in the same delta group applies only the deltas in
  /// between; any other read restarts from the group's raw record.
  const W* read(std::size_t idx) const {
    const Seg& s = segs_[idx >> shift_];
    if (s.data != nullptr) return s.data.get() + (idx & mask_) * stride_;
    return read_spilled(s, idx);
  }

  /// Writable pointer to a record. Faults the segment back to resident if
  /// it was spilled (the record is about to change, so the on-disk copy is
  /// stale either way).
  W* write_ptr(std::size_t idx) {
    Seg& s = segs_[idx >> shift_];
    if (s.data == nullptr) fault_in(idx >> shift_);
    return s.data.get() + (idx & mask_) * stride_;
  }

  /// True when resident bytes exceed `resident_target` and a cold full
  /// segment may be left to release. Cheap.
  bool spill_needed(std::size_t resident_target) const {
    return file_.valid() && resident_bytes_ > resident_target &&
           first_resident_ < size_ >> shift_;
  }

  /// Spill cold full segments (lowest record ids first) until resident
  /// bytes drop to `resident_target` or only pinned/partial/spilled
  /// segments remain. Records >= pin_floor never spill (callers pin the
  /// hot frontier). Caller guarantees quiescence. Returns bytes released.
  /// A write/mmap failure throws util::BudgetExhausted after recording a
  /// flight event — the operator's memory plan can no longer be kept, and
  /// pretending otherwise would trade a clean exit 4 for an OOM-kill later.
  std::size_t maybe_spill(std::size_t resident_target, std::size_t pin_floor);

  /// Heap bytes of the allocated segment arrays: what the spill trigger
  /// compares against its target.
  std::size_t resident_bytes() const { return resident_bytes_; }
  /// The part of resident_bytes() the store can have touched: segments
  /// are allocated uninitialized and written only as records are admitted,
  /// so the pages past the most records ever admitted are untouched. The
  /// memory ledger and the budget charge this. The one-record cursor
  /// buffer is not charged.
  std::size_t charged_bytes() const {
    return resident_bytes_ -
           (cap_ - std::max(admitted_, size_)) * stride_ * sizeof(W);
  }
  std::size_t spilled_bytes() const { return spilled_bytes_; }
  std::size_t mapped_bytes() const { return mapped_bytes_; }
  std::size_t spilled_segments() const { return spilled_segments_; }
  std::size_t faulted_in() const { return faulted_in_; }
  std::size_t spill_failures() const { return spill_failures_; }

 private:
  struct Seg {
    std::unique_ptr<W[]> data;  ///< flat resident array (null once spilled)
    BackingFile::Block blk;     ///< compressed block once spilled
  };

  void recompute_geometry() {
    mask_ = seg_recs_ - 1;
    shift_ = 0;
    for (std::size_t s = seg_recs_; s > 1; s >>= 1) ++shift_;
  }

  void alloc_seg(Seg& s) {
    // Uninitialized: ensure() fills records as it admits them, and
    // append() copies them in.
    s.data.reset(new W[seg_recs_ * stride_]);
    resident_bytes_ += seg_recs_ * stride_ * sizeof(W);
  }

  void release(Seg& s) {
    if (!s.blk.valid()) return;
    cur_idx_ = kNoCursor;
    mapped_bytes_ -= s.blk.map_len;
    file_.release(s.blk);
  }

  void release_maps() {
    for (Seg& s : segs_) release(s);
  }

  void fault_in(std::size_t seg) {
    Seg& s = segs_[seg];
    const std::size_t n = seg_recs_ * stride_;
    std::unique_ptr<W[]> fresh(new W[n]);
    decode_all<W>(s.blk.map, s.blk.bytes, seg_recs_, stride_,
                  fresh.get());
    spilled_bytes_ -= s.blk.bytes;
    release(s);
    s.data = std::move(fresh);
    resident_bytes_ += n * sizeof(W);
    if (seg < first_resident_) first_resident_ = seg;
    ++faulted_in_;
  }

  // Out of line: read() is inlined into the engines' hot loops, where
  // almost every record is resident; inlining this decode there measured
  // about 2% more CPU on a resident n = 5 construction.
  [[gnu::noinline]] const W* read_spilled(const Seg& s,
                                          std::size_t idx) const {
    const std::uint8_t* block = s.blk.map;
    const std::uint8_t* end = block + s.blk.bytes;
    // Segments hold whole groups, so one group index names the block too.
    std::size_t at = cur_idx_;
    cur_idx_ = kNoCursor;  // until the decode below succeeds
    if (at == kNoCursor || idx < at ||
        idx / kGroupRecords != at / kGroupRecords) {
      cur_rec_.resize(stride_);  // allocated by a store's first spilled read
      cur_p_ = group_start<W>(block, s.blk.bytes,
                              (idx & mask_) / kGroupRecords, stride_);
      std::memcpy(cur_rec_.data(), cur_p_, stride_ * sizeof(W));
      cur_p_ += stride_ * sizeof(W);
      at = idx - idx % kGroupRecords;
    }
    for (; at < idx; ++at) {
      apply_delta<W>(cur_p_, end, stride_, cur_rec_.data());
    }
    cur_idx_ = idx;
    return cur_rec_.data();
  }

  std::string name_;
  std::size_t stride_ = 0;
  W fill_{};
  std::size_t seg_recs_ = 0;
  std::size_t mask_ = 0;
  int shift_ = 0;
  std::size_t size_ = 0;
  std::size_t cap_ = 0;
  std::vector<Seg> segs_;
  /// Every segment below this index is spilled; the spill loop starts here.
  std::size_t first_resident_ = 0;
  BackingFile file_;
  std::size_t resident_bytes_ = 0;
  std::size_t spilled_bytes_ = 0;
  std::size_t mapped_bytes_ = 0;
  std::size_t spilled_segments_ = 0;
  std::size_t faulted_in_ = 0;
  std::size_t spill_failures_ = 0;
  /// The spilled-read cursor: record cur_idx_ decoded into cur_rec_, and
  /// cur_p_ just past its delta in its block. release() drops it.
  static constexpr std::size_t kNoCursor = ~std::size_t{0};
  mutable std::size_t cur_idx_ = kNoCursor;
  mutable const std::uint8_t* cur_p_ = nullptr;
  mutable std::vector<W> cur_rec_;
  /// The most records admitted before the last clear(): their pages stay
  /// touched in the segments clear() keeps.
  std::size_t admitted_ = 0;
};

/// Out-of-line spill failure path shared by every SpillStore instantiation.
[[noreturn]] void throw_spill_failure(const std::string& name, int err,
                                      std::size_t resident_bytes,
                                      std::size_t resident_target);

/// Refuse a run whose spill directory cannot hold a backing file (errno
/// `err` from the failed open): throws util::UsageError naming `dir`.
[[noreturn]] void throw_unusable_dir(const std::string& dir, int err);

/// Probe `dir` with a backing file (unlinked at once, closed on return),
/// so a run refuses an unusable spill directory before doing any work.
void require_usable_dir(const std::string& dir);

template <class W>
std::size_t SpillStore<W>::maybe_spill(std::size_t resident_target,
                                       std::size_t pin_floor) {
  if (!file_.valid()) return 0;
  const std::size_t seg_bytes = seg_recs_ * stride_ * sizeof(W);
  // Only FULL segments spill (the partial tail is still being appended
  // to), and never one at or above the pin floor.
  const std::size_t full = size_ >> shift_;
  const std::size_t pinned = pin_floor >> shift_;
  const std::size_t limit = full < pinned ? full : pinned;
  std::size_t released = 0;
  std::vector<std::uint8_t> block;
  for (std::size_t i = first_resident_; i < limit; ++i) {
    if (resident_bytes_ <= resident_target) break;
    Seg& s = segs_[i];
    if (s.data != nullptr) {
      encode_block<W>(s.data.get(), seg_recs_, stride_, block);
      BackingFile::Block blk;
      if (!file_.append(block.data(), block.size(), blk)) {
        ++spill_failures_;
        const int err = errno;
        file_.close();
        throw_spill_failure(name_, err, resident_bytes_, resident_target);
      }
      s.blk = blk;
      s.data.reset();
      resident_bytes_ -= seg_bytes;
      spilled_bytes_ += blk.bytes;
      mapped_bytes_ += blk.map_len;
      ++spilled_segments_;
      released += seg_bytes;
    }
    first_resident_ = i + 1;
  }
  return released;
}

}  // namespace tsb::util::spill

// Out-of-core edge arrays: the reach graph's per-node successor ids,
// renamings, and decide flags spill to unlinked backing files alongside the
// node arena. The contract mirrors the arena's: spilling is a memory plan,
// not a semantics change —
//
//   * a forced-spill campaign produces the IDENTICAL verdict, certificate,
//     and expansion count as the fully-resident run (test_backend_matrix);
//   * a checkpoint taken while edge segments are on disk restores into a
//     warm oracle that answers without re-exploration;
//   * a write failure on an edge-segment append degrades to
//     util::BudgetExhausted (the CLI's exit-4 path) and leaves no debris —
//     backing files are unlinked at creation, so a fault can strand nothing;
//   * a spill directory that cannot hold a backing file is refused with
//     util::UsageError (the CLI's exit-2 path) before any valency query.
//
// The store under every one of them, util::spill::SpillStore, is tested
// directly too: admitted records read as the fill value whatever happened
// to their segment before, and clear() re-arms spilled segments.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "sim/reach_graph.hpp"
#include "util/checkpoint.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"
#include "util/spill_store.hpp"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using util::ckpt::SectionReader;
using util::ckpt::SectionWriter;

/// Fresh per-test scratch directory under gtest's temp root.
std::string tdir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "tsb_gspill_" + name;
  std::error_code ec;
  fs::remove_all(d, ec);
  fs::create_directories(d);
  return d;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::size_t dir_entries(const std::string& d) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(d)) {
    (void)e;
    ++n;
  }
  return n;
}

// --- SpillStore ---------------------------------------------------------------

constexpr std::uint64_t kFill = 0xF111F111F111F111ull;
constexpr std::size_t kNoPin = std::numeric_limits<std::size_t>::max();

/// Overwrite records [from, to) with values that are never kFill.
void scribble(util::spill::SpillStore<std::uint64_t>& store, std::size_t from,
              std::size_t to, std::uint64_t salt) {
  for (std::size_t i = from; i < to; ++i) {
    std::uint64_t* row = store.write_ptr(i);
    for (std::size_t w = 0; w < store.stride(); ++w) row[w] = salt + i * 4 + w;
  }
}

void expect_fill(const util::spill::SpillStore<std::uint64_t>& store,
                 std::size_t from, std::size_t to, const char* when) {
  for (std::size_t i = from; i < to; ++i) {
    const std::uint64_t* row = store.read(i);
    for (std::size_t w = 0; w < store.stride(); ++w) {
      ASSERT_EQ(row[w], kFill) << when << ": record " << i << " word " << w;
    }
  }
}

TEST(SpillStore, AdmittedRecordsReadAsFillAfterAllocationFaultInAndClear) {
  util::spill::SpillStore<std::uint64_t> store;
  store.init("test", 3, kFill);
  ASSERT_TRUE(store.set_spill(tdir("store_fill"), 64));
  ASSERT_EQ(store.segment_records(), 64u);

  // A fresh segment: the admitted records read as fill.
  store.ensure(10);
  expect_fill(store, 0, 10, "fresh segment");

  // Two full segments, even records written, odd ones left as admitted.
  store.ensure(128);
  for (std::size_t i = 0; i < 128; i += 2) scribble(store, i, i + 1, 1000);
  ASSERT_GT(store.maybe_spill(0, kNoPin), 0u);
  ASSERT_EQ(store.spilled_segments(), 2u);
  for (std::size_t i = 1; i < 128; i += 2) {
    expect_fill(store, i, i + 1, "spilled (decoded) segment");
  }
  // A third segment allocated after the spill.
  store.ensure(150);
  expect_fill(store, 128, 150, "segment allocated after a spill");

  // Fault segment 0 back in through a write: its untouched records still
  // read as fill.
  store.write_ptr(0)[0] = 7;
  ASSERT_EQ(store.faulted_in(), 1u);
  for (std::size_t i = 1; i < 64; i += 2) {
    expect_fill(store, i, i + 1, "faulted-in segment");
  }

  // Dirty every record (resident, faulted-in and spilled segments alike),
  // then clear and regrow past the old size: nothing stale may show.
  scribble(store, 0, 150, 5000);
  ASSERT_GT(store.maybe_spill(0, kNoPin), 0u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  store.ensure(200);
  expect_fill(store, 0, 200, "regrowth after clear");
}

TEST(SpillStore, ClearWithoutSpillingRefillsRegrownRecords) {
  util::spill::SpillStore<std::uint64_t> store;
  store.init("test", 2, kFill);
  store.ensure(100);
  scribble(store, 0, 100, 9000);
  store.clear();
  store.ensure(100);
  expect_fill(store, 0, 100, "regrowth after a resident clear");
}

TEST(SpillStore, ClearRearmsSpilledSegmentsForReuse) {
  util::spill::SpillStore<std::uint64_t> store;
  store.init("test", 4, 0);
  ASSERT_TRUE(store.set_spill(tdir("store_rearm"), 64));
  store.ensure(300);
  scribble(store, 0, 300, 0);
  ASSERT_GT(store.maybe_spill(0, kNoPin), 0u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.spilled_bytes(), 0u);
  EXPECT_EQ(store.mapped_bytes(), 0u);

  // Second generation with different contents: the re-armed segments must
  // hold and spill the new records correctly.
  store.ensure(300);
  scribble(store, 0, 300, 70'000);
  ASSERT_GT(store.maybe_spill(0, kNoPin), 0u);
  for (std::size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(store.read(i)[3], 70'000 + i * 4 + 3) << "record " << i;
  }
}

TEST(SpillStore, AppendCrossesSegmentsSpillsAndReusesAfterClear) {
  util::spill::SpillStore<std::uint64_t> store;
  store.init("test", 3, kFill);
  ASSERT_TRUE(store.set_spill(tdir("store_append"), 64));
  const auto row = [](std::size_t i, std::uint64_t salt) {
    return std::vector<std::uint64_t>{salt + i, salt + 2 * i, salt + 3 * i};
  };
  for (const std::uint64_t salt : {100u, 50'000u}) {
    // Appends interleave with spills, so the tail segment keeps moving
    // past spilled ones; the second round reuses the re-armed segments.
    for (std::size_t i = 0; i < 200; ++i) {
      ASSERT_EQ(store.append(row(i, salt).data()), i);
      if (i % 64 == 63) store.maybe_spill(0, kNoPin);
    }
    ASSERT_EQ(store.size(), 200u);
    ASSERT_EQ(store.spilled_segments(), 3u);
    for (std::size_t i = 0; i < 200; ++i) {
      const std::uint64_t* r = store.read(i);
      ASSERT_EQ(std::vector<std::uint64_t>(r, r + 3), row(i, salt))
          << "record " << i;
    }
    store.clear();
  }
}

// --- Hostile spilled blocks -------------------------------------------------

/// A mapping whose last page is inaccessible. at_end(bytes) copies a block
/// so that it ends exactly where that page begins: a decoder that reads
/// one byte past the block faults in every build, optimized or sanitized.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(std::size_t max_bytes) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    len_ = (max_bytes + page_ - 1) / page_ * page_ + page_;
    void* m = mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(m, MAP_FAILED);
    base_ = static_cast<std::uint8_t*>(m);
    EXPECT_EQ(mprotect(base_ + len_ - page_, page_, PROT_NONE), 0);
  }
  ~GuardedBuffer() { munmap(base_, len_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  const std::uint8_t* at_end(const std::vector<std::uint8_t>& bytes) {
    std::uint8_t* at = base_ + len_ - page_ - bytes.size();
    std::copy(bytes.begin(), bytes.end(), at);
    return at;
  }

 private:
  std::uint8_t* base_ = nullptr;
  std::size_t len_ = 0;
  std::size_t page_ = 0;
};

/// Every byte of a spilled segment comes back from disk. Seeded mutants of
/// encode_block output — byte flips and truncations — must either decode
/// or be refused through TSB_REQUIRE (util::RequirementFailed); none may
/// read past the block (each mutant ends at a guard page) or write past
/// the record (the ASan+UBSan build runs this).
template <class W>
void check_hostile_blocks(std::uint64_t seed) {
  namespace sp = util::spill;
  constexpr std::size_t kStride = 6;
  constexpr std::size_t kGroups = 4;
  constexpr std::size_t kRecs = kGroups * sp::kGroupRecords;
  std::mt19937_64 rng(seed);
  // Successor-shaped records: each changes one or two words of the last,
  // now and then by a delta as wide as W.
  std::vector<W> recs(kRecs * kStride);
  for (std::size_t i = 0; i < kRecs; ++i) {
    W* rec = recs.data() + i * kStride;
    if (i != 0) std::copy_n(rec - kStride, kStride, rec);
    for (std::size_t k = 0; k < (i == 0 ? kStride : 1 + i % 2); ++k) {
      rec[rng() % kStride] = static_cast<W>(i % 7 == 0 ? rng() : rng() % 64);
    }
  }
  std::vector<std::uint8_t> pristine;
  sp::encode_block<W>(recs.data(), kRecs, kStride, pristine);
  std::vector<W> out(kRecs * kStride);
  sp::decode_all<W>(pristine.data(), pristine.size(), kRecs, kStride,
                    out.data());
  ASSERT_EQ(out, recs);

  GuardedBuffer guarded(pristine.size());
  int refused = 0;
  int decoded = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<std::uint8_t> m = pristine;
    if (i % 4 == 3) {
      m.resize(rng() % m.size());  // a torn block
    } else {
      for (int f = 0; f < 1 + i % 3; ++f) {
        m[rng() % m.size()] ^= static_cast<std::uint8_t>(1 + rng() % 255);
      }
    }
    const std::uint8_t* block = guarded.at_end(m);
    try {
      if (i % 2 == 0) {
        sp::decode_all<W>(block, m.size(), kRecs, kStride, out.data());
      } else {
        sp::decode_group<W>(block, m.size(), rng() % kGroups, kStride,
                            out.data());
      }
      ++decoded;
    } catch (const util::RequirementFailed&) {
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(decoded, 0);
}

TEST(SpillCodec, HostileBlocksAreRefusedOrDecode) {
  check_hostile_blocks<std::uint16_t>(0x5eed16);
  check_hostile_blocks<std::uint32_t>(0x5eed32);
  check_hostile_blocks<std::uint64_t>(0x5eed64);
}

// --- The codec's pinned bytes ------------------------------------------------

/// Three-word records: word 0 steps every fourth record, word 1 flips
/// between 5 and a wrapped negative, and word 2 jumps by a 64-bit constant
/// every sixteenth — small, wrapped and word-wide deltas.
template <class W>
std::vector<W> golden_records(std::size_t n) {
  std::vector<W> v(n * 3);
  for (std::size_t r = 0; r < n; ++r) {
    v[r * 3] = static_cast<W>(r / 4);
    v[r * 3 + 1] = r % 3 == 0 ? static_cast<W>(0 - r) : static_cast<W>(5);
    v[r * 3 + 2] = static_cast<W>(0x9E3779B97F4A7C15ull * (r / 16));
  }
  return v;
}

/// encode_group's bytes for the first four golden records must be
/// `group4`, and encode_block's two-group block of 128 records must have
/// `block_bytes` bytes with CRC-32 `block_crc`.
template <class W>
void expect_golden(const std::vector<std::uint8_t>& group4,
                   std::size_t block_bytes, std::uint32_t block_crc) {
  namespace sp = util::spill;
  const std::vector<W> recs = golden_records<W>(128);
  std::vector<std::uint8_t> group(sp::group_bound<W>(4, 3));
  group.resize(sp::encode_group<W>(recs.data(), 4, 3, group.data()));
  EXPECT_EQ(group, group4) << sizeof(W) << "-byte words";
  std::vector<std::uint8_t> block;
  sp::encode_block<W>(recs.data(), 128, 3, block);
  EXPECT_EQ(block.size(), block_bytes) << sizeof(W) << "-byte words";
  EXPECT_EQ(util::ckpt::crc32(block.data(), block.size()), block_crc)
      << sizeof(W) << "-byte words";
  // The block's first group (after the group count and two offsets) opens
  // with the same bytes.
  ASSERT_GE(block.size(), 12 + group.size());
  EXPECT_TRUE(std::equal(group.begin(), group.end(), block.begin() + 12));
}

TEST(SpillCodec, EncoderBytesArePinned) {
  // Spill blocks and the checkpoint's coded record arrays share these
  // bytes, and a checkpoint copies spilled groups verbatim: an encoder
  // change must show here, not as a checkpoint that differs by where its
  // records lived. Four records: the first raw (all zero), then "mask
  // 0b010, word 1 by +5", "mask 0, nothing changed", and "mask 0b010, word
  // 1 by 5 - (2^w - 3)" — zigzag 2(2^w - 8) for w-bit words, but -8
  // (zigzag 15) for 64-bit words, whose difference wraps. The blocks are
  // 120 bytes shorter than the count-and-index encoding's (467, 568, 758
  // and 525 bytes): their 126 delta records change 120 words, and each
  // change dropped its one-byte index while the one mask byte replaced
  // the one count byte.
  const auto with_raw = [](std::size_t zeros,
                           std::vector<std::uint8_t> deltas) {
    std::vector<std::uint8_t> out(zeros, 0);
    out.insert(out.end(), deltas.begin(), deltas.end());
    return out;
  };
  expect_golden<std::uint8_t>(
      with_raw(3, {0x02, 0x0A, 0x00, 0x02, 0xF0, 0x03}), 347, 0x3D2D2703u);
  expect_golden<std::uint16_t>(
      with_raw(6, {0x02, 0x0A, 0x00, 0x02, 0xF0, 0xFF, 0x07}), 448,
      0xF5D0C408u);
  expect_golden<std::uint32_t>(
      with_raw(12, {0x02, 0x0A, 0x00, 0x02, 0xF0, 0xFF, 0xFF, 0xFF, 0x1F}),
      638, 0xFD3FE431u);
  expect_golden<std::uint64_t>(
      with_raw(24, {0x02, 0x0A, 0x00, 0x02, 0x0F}), 405, 0x1FCEE80Bu);
}

TEST(SpillCodec, GroupBoundCoversTheWidestDeltas) {
  // Every word of every record changes by the widest delta its type has:
  // the encoder must stay inside group_bound (ASan checks the write).
  namespace sp = util::spill;
  const auto widest = [](auto zero) {
    using W = decltype(zero);
    constexpr std::size_t kStride = 255;
    std::vector<W> recs(sp::kGroupRecords * kStride);
    for (std::size_t r = 0; r < sp::kGroupRecords; ++r) {
      for (std::size_t w = 0; w < kStride; ++w) {
        recs[r * kStride + w] = r % 2 == 0 ? W{0} : static_cast<W>(~W{0});
      }
    }
    const std::size_t bound = sp::group_bound<W>(sp::kGroupRecords, kStride);
    std::vector<std::uint8_t> out(bound);
    const std::size_t used =
        sp::encode_group<W>(recs.data(), sp::kGroupRecords, kStride,
                            out.data());
    EXPECT_LE(used, bound) << sizeof(W) << "-byte words";
    std::vector<W> back(recs.size());
    std::vector<std::uint8_t> block(8);
    sp::put_u32(block.data(), 1);
    sp::put_u32(block.data() + 4, 0);
    block.insert(block.end(), out.begin(), out.begin() + used);
    sp::decode_group<W>(block.data(), block.size(), 0, kStride, back.data());
    EXPECT_EQ(back, recs) << sizeof(W) << "-byte words";
  };
  widest(std::uint8_t{});
  widest(std::uint16_t{});
  widest(std::uint32_t{});
  widest(std::uint64_t{});
}

/// Seeded records of `stride` words: a quarter repeat their predecessor
/// (delta records with an all-zero mask), an eighth change every word, and
/// the rest change one to four words, each by a small step or to a value
/// as wide as W.
template <class W>
std::vector<W> random_records(std::size_t nrecs, std::size_t stride,
                              std::mt19937_64& rng) {
  std::vector<W> v(nrecs * stride);
  for (W& w : v) w = static_cast<W>(rng());
  for (std::size_t r = 1; r < nrecs; ++r) {
    W* rec = v.data() + r * stride;
    std::copy_n(rec - stride, stride, rec);
    const std::uint64_t kind = rng() % 8;
    if (kind < 2) continue;
    const std::size_t changes =
        kind == 2 ? stride : 1 + static_cast<std::size_t>(rng() % 4);
    for (std::size_t k = 0; k < changes; ++k) {
      W& w = rec[kind == 2 ? k : rng() % stride];
      w = static_cast<W>(rng() % 2 == 0 ? rng() : w + 1 + rng() % 3);
    }
  }
  return v;
}

/// Round trips through the codec at `stride`: groups of 1 to
/// kGroupRecords records are encoded into exactly group_bound bytes (the
/// ASan+UBSan build catches a write past them) and decoded record by
/// record from a copy that ends at a guard page, consuming every byte;
/// a two-group block decodes through decode_all.
template <class W>
void check_round_trip(std::size_t stride, std::uint64_t seed) {
  namespace sp = util::spill;
  std::mt19937_64 rng(seed);
  const std::vector<W> recs =
      random_records<W>(2 * sp::kGroupRecords, stride, rng);
  GuardedBuffer guarded(sp::group_bound<W>(sp::kGroupRecords, stride));
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{17}, sp::kGroupRecords}) {
    for (const std::size_t first : {std::size_t{0}, sp::kGroupRecords}) {
      const W* in = recs.data() + first * stride;
      std::vector<std::uint8_t> out(sp::group_bound<W>(n, stride));
      const std::size_t used = sp::encode_group<W>(in, n, stride, out.data());
      ASSERT_LE(used, out.size());
      out.resize(used);
      const std::uint8_t* p = guarded.at_end(out);
      const std::uint8_t* end = p + used;
      std::vector<W> back(n * stride);
      std::memcpy(back.data(), p, stride * sizeof(W));
      p += stride * sizeof(W);
      for (std::size_t c = 1; c < n; ++c) {
        std::copy_n(back.data() + (c - 1) * stride, stride,
                    back.data() + c * stride);
        sp::apply_delta<W>(p, end, stride, back.data() + c * stride);
      }
      EXPECT_EQ(p, end) << n << " records from " << first;
      EXPECT_TRUE(std::equal(back.begin(), back.end(), in))
          << n << " records from " << first;
    }
  }
  std::vector<std::uint8_t> block;
  sp::encode_block<W>(recs.data(), recs.size() / stride, stride, block);
  std::vector<W> all(recs.size());
  sp::decode_all<W>(block.data(), block.size(), recs.size() / stride, stride,
                    all.data());
  EXPECT_EQ(all, recs);
}

TEST(SpillCodec, RandomRecordsRoundTripWithinTheGroupBound) {
  for (const std::size_t stride : {1, 5, 8, 9, 10, 16, 64, 65, 255}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    check_round_trip<std::uint8_t>(stride, 0x8000 + stride);
    check_round_trip<std::uint16_t>(stride, 0x16000 + stride);
    check_round_trip<std::uint32_t>(stride, 0x32000 + stride);
    check_round_trip<std::uint64_t>(stride, 0x64000 + stride);
  }
}

// --- The spilled-read cursor -------------------------------------------------

TEST(SpillStore, CursorReadsMatchAnAllResidentCopy) {
  // Two spilled stores of one word type, read interleaved: ascending runs
  // (the cursor's fast path), repeats, backward steps and jumps across
  // groups and segments. Every read must return the all-resident copy's
  // record, and a pointer one store returned must survive reads of the
  // other store.
  namespace sp = util::spill;
  constexpr std::size_t kStride = 5;
  constexpr std::size_t kRecs = 700;
  const std::string dir = tdir("cursor");
  sp::SpillStore<std::uint32_t> spilled[2];
  sp::SpillStore<std::uint32_t> resident[2];
  for (int k = 0; k < 2; ++k) {
    spilled[k].init("cursor", kStride, 0);
    resident[k].init("cursor.resident", kStride, 0);
    ASSERT_TRUE(spilled[k].set_spill(dir, k == 0 ? 128 : 64));
    for (std::size_t i = 0; i < kRecs; ++i) {
      std::uint32_t rec[kStride];
      for (std::size_t w = 0; w < kStride; ++w) {
        rec[w] = static_cast<std::uint32_t>((i * 7 + w * 13 + k) % 50) +
                 (i % 9 == 0 ? 1u << 30 : 0u);
      }
      spilled[k].append(rec);
      resident[k].append(rec);
    }
    ASSERT_GT(spilled[k].maybe_spill(0, kNoPin), 0u);
  }
  const auto same = [&](int k, std::size_t i, const std::uint32_t* got) {
    return std::equal(got, got + kStride, resident[k].read(i));
  };
  std::mt19937_64 rng(0xC0850);
  std::size_t at[2] = {0, 0};
  for (int step = 0; step < 20'000; ++step) {
    const int k = static_cast<int>(rng() % 2);
    switch (rng() % 5) {
      case 0: at[k] = rng() % kRecs; break;                 // jump
      case 1: at[k] = at[k] >= 3 ? at[k] - rng() % 4 : 0; break;  // back
      case 2: break;                                         // repeat
      default: at[k] = std::min(kRecs - 1, at[k] + 1 + rng() % 3);  // ahead
    }
    const std::uint32_t* got = spilled[k].read(at[k]);
    ASSERT_TRUE(same(k, at[k], got)) << "store " << k << " record " << at[k];
    const int o = 1 - k;
    (void)spilled[o].read(rng() % kRecs);
    ASSERT_TRUE(same(k, at[k], got))
        << "store " << k << " record " << at[k]
        << " changed under a read of the other store";
  }
  for (int k = 0; k < 2; ++k) EXPECT_EQ(spilled[k].faulted_in(), 0u);

  // A write faults the cursor's segment back in and a later spill
  // re-encodes it into a new block, with an earlier record of the
  // cursor's group changed: the next ascending read in that group must
  // decode the new block from its start, not resume at the old offset.
  sp::SpillStore<std::uint32_t>& s = spilled[0];
  (void)s.read(5);
  s.write_ptr(3)[2] = 0xABCDu;
  resident[0].write_ptr(3)[2] = 0xABCDu;
  ASSERT_EQ(s.faulted_in(), 1u);
  ASSERT_GT(s.maybe_spill(0, kNoPin), 0u);
  EXPECT_TRUE(same(0, 7, s.read(7)));
  EXPECT_TRUE(same(0, 9, s.read(9)));
}

// --- Charged bytes -----------------------------------------------------------

TEST(SpillStore, ChargedBytesFollowAdmittedRecords) {
  // Segments are allocated whole but written only as records are admitted:
  // the ledger charges the admitted records, the spill trigger keeps
  // seeing the allocated segments.
  util::spill::SpillStore<std::uint64_t> store;
  store.init("charge", 4, 0);
  const std::size_t rec = 4 * sizeof(std::uint64_t);
  const std::size_t seg = store.segment_records() * rec;
  ASSERT_GT(store.segment_records(), 1000u);
  store.ensure(10);
  EXPECT_EQ(store.resident_bytes(), seg);
  EXPECT_EQ(store.charged_bytes(), 10 * rec);
  store.append(store.read(0));
  EXPECT_EQ(store.charged_bytes(), 11 * rec);
  // clear() keeps the segments and the pages the records touched.
  store.clear();
  EXPECT_EQ(store.charged_bytes(), 11 * rec);
  store.ensure(5);
  EXPECT_EQ(store.charged_bytes(), 11 * rec);
  store.ensure(store.segment_records() + 1);
  EXPECT_EQ(store.resident_bytes(), 2 * seg);
  EXPECT_EQ(store.charged_bytes(), (store.segment_records() + 1) * rec);

  // A spilled segment leaves both counts.
  util::spill::SpillStore<std::uint64_t> small;
  small.init("charge.spill", 4, 0);
  ASSERT_TRUE(small.set_spill(tdir("charge"), 64));
  small.ensure(100);
  EXPECT_EQ(small.charged_bytes(), 100 * rec);
  ASSERT_GT(small.maybe_spill(0, kNoPin), 0u);
  EXPECT_EQ(small.resident_bytes(), 64 * rec);
  EXPECT_EQ(small.charged_bytes(), 36 * rec);
}

// --- An unusable spill directory ----------------------------------------------

TEST(SpillDir, UnusableDirectoryIsRefusedBeforeAnyQuery) {
  const std::string bad = tdir("unusable") + "/missing/dir";
  consensus::BallotConsensus proto(3, 6);

  const sim::Limits limits{
      .spill = {.dir = bad, .threshold_bytes = 64 << 10}};
  const bound::ValencyOracle::Options oo{.limits = limits};
  try {
    bound::ValencyOracle oracle(proto, oo);
    FAIL() << "an unusable spill directory was accepted";
  } catch (const util::UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
  }
  // The engine refuses on its own too, rather than running resident.
  EXPECT_THROW(sim::ReachGraph(proto, {.limits = limits}), util::UsageError);
  EXPECT_THROW(sim::Explorer(proto, {.limits = limits}), util::UsageError);

  // Both adversary backends refuse the run outright: no verdict, no
  // budget outcome, just the refusal.
  for (const bool reuse : {true, false}) {
    bound::SpaceBoundAdversary::Options ao;
    ao.reuse = reuse;
    ao.spill_dir = bad;
    ao.spill_threshold_bytes = 64 << 10;
    EXPECT_THROW(bound::SpaceBoundAdversary(proto, ao).run(), util::UsageError)
        << "reuse=" << reuse;
  }
}

// --- Checkpoint while edges are on disk -------------------------------------

bound::ValencyOracle::Options spill_opts(const std::string& dir) {
  return {.limits = {.spill = {
              .dir = dir, .threshold_bytes = 1, .seg_configs = 64}}};
}

TEST(GraphSpillCheckpoint, SaveWithEdgesOnDiskRestoresWarmAndSpilled) {
  consensus::BallotConsensus proto(4, 8);
  const sim::Config init = sim::initial_config(proto, {0, 1, 1, 1});
  const sim::ProcSet everyone = sim::ProcSet::first_n(4);

  bound::ValencyOracle a(proto, spill_opts(tdir("ckpt_a")));
  const bool biv = a.bivalent(init, everyone);
  const bool can0 = a.can_decide(init, everyone, 0);
  // The save runs while edge rows live on disk — that is the case under
  // test, not an incidental detail.
  ASSERT_GT(a.graph_spilled_bytes(), 0u)
      << "forced spill never engaged; the roundtrip would be vacuous";

  const std::string path = tdir("ckpt_state") + "/state.bin";
  {
    SectionWriter w(path);
    a.save_state(w);
    w.finish();
  }

  bound::ValencyOracle b(proto, spill_opts(tdir("ckpt_b")));
  {
    SectionReader r(path);
    b.restore_state(r);
    r.expect_end();
  }
  EXPECT_EQ(b.memo_entries(), a.memo_entries());
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  EXPECT_EQ(b.bivalent(init, everyone), biv);
  EXPECT_EQ(b.can_decide(init, everyone, 0), can0);
  EXPECT_EQ(b.explorations(), 0u)
      << "restored spilled state missed the memo and re-explored";
  // The restored oracle keeps the memory plan: the first pass the memo
  // cannot answer spills its edges like the original's did.
  (void)b.bivalent(init, sim::ProcSet::first_n(3));
  EXPECT_EQ(b.explorations(), 1u);
  EXPECT_GT(b.graph_spilled_bytes(), 0u);
}

TEST(GraphSpillCheckpoint, SaveIsByteIdenticalResidentAndSpilled) {
  // A checkpoint holds the memo, not the stores, so where the records
  // happen to live must not change a single byte of it.
  consensus::BallotConsensus proto(4, 8);
  const sim::Config init = sim::initial_config(proto, {0, 1, 1, 1});
  const sim::ProcSet everyone = sim::ProcSet::first_n(4);
  const auto save = [&](const bound::ValencyOracle::Options& o,
                        const std::string& name, std::size_t* spilled) {
    bound::ValencyOracle oracle(proto, o);
    (void)oracle.bivalent(init, everyone);
    (void)oracle.can_decide(init, everyone, 0);
    *spilled = oracle.graph_spilled_bytes();
    const std::string path = tdir(name) + "/state.bin";
    SectionWriter w(path);
    oracle.save_state(w);
    w.finish();
    return slurp(path);
  };
  std::size_t resident_spilled = 0;
  std::size_t spilled = 0;
  const auto resident = save(bound::ValencyOracle::Options{}, "ident_res",
                             &resident_spilled);
  bound::ValencyOracle::Options tiny = spill_opts(tdir("ident_dir"));
  tiny.limits.spill.seg_configs = 256;
  const auto on_disk = save(tiny, "ident_spill", &spilled);
  EXPECT_EQ(resident_spilled, 0u);
  ASSERT_GT(spilled, 0u)
      << "forced spill never engaged; the comparison would be vacuous";
  ASSERT_GT(resident.size(), 0u);
  EXPECT_TRUE(resident == on_disk)
      << "resident " << resident.size() << " bytes, spilled "
      << on_disk.size() << " bytes";
}

// --- Hostile I/O ------------------------------------------------------------

class GraphSpillFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::iofault::disarm(); }
};

TEST_F(GraphSpillFaultTest, EnospcOnEdgeSegmentWriteThrowsBudgetExhausted) {
  // Unit-level: the fault lands on the edge store's own segment append,
  // not on a neighbouring arena write.
  const std::string dir = tdir("enospc_unit");
  util::spill::SpillStore<std::uint64_t> store;
  store.init("graph.test", 4, 0);
  ASSERT_TRUE(store.set_spill(dir, 64));
  store.ensure(512);
  for (std::size_t i = 0; i < 512; ++i) {
    std::uint64_t* row = store.write_ptr(i);
    for (std::size_t w = 0; w < 4; ++w) row[w] = i * 4 + w;
  }
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW(
      store.maybe_spill(0, std::numeric_limits<std::size_t>::max()),
      util::BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_EQ(store.spill_failures(), 1u);
  // The failed store keeps serving resident reads — the caller decides to
  // abort (exit 4), the data is never torn.
  EXPECT_EQ(store.read(100)[2], 100u * 4 + 2);
  // No .tmp (or any other) debris: backing files are unlinked at creation.
  EXPECT_EQ(dir_entries(dir), 0u);
}

TEST_F(GraphSpillFaultTest, WriteFaultDuringForcedSpillRunExitsViaBudget) {
  // Integration-level: any spill-write failure inside a forced-spill
  // campaign surfaces as BudgetExhausted (exit 4), never a crash or a
  // wrong verdict, and the spill directory ends empty.
  const std::string dir = tdir("enospc_run");
  consensus::BallotConsensus proto(4, 8);
  bound::ValencyOracle oracle(proto, spill_opts(dir));
  const sim::Config init = sim::initial_config(proto, {0, 1, 1, 1});
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW((void)oracle.bivalent(init, sim::ProcSet::first_n(4)),
               util::BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_EQ(dir_entries(dir), 0u);
}

}  // namespace
}  // namespace tsb

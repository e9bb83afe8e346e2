// Out-of-core arena spilling: cold segments are delta/varint-compressed to
// an unlinked backing file and read back through mmap on demand. Nothing
// about the enumeration may change — the spilled explorer must produce the
// same visited set, the same verdicts, and witnesses that replay, while
// the memory ledger attributes the bytes that left RAM. Tiny segment
// hints force multi-segment spilling on test-sized runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "consensus/ballot.hpp"
#include "obs/obs.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "sim/explorer.hpp"

namespace tsb::sim {
namespace {

// Deterministic synthetic word patterns (valid for the arena regardless of
// protocol meaning: the dictionary and the spill layer store opaque words).
std::vector<Value> synth_words(std::size_t words, std::uint64_t seed) {
  std::vector<Value> w(words);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (std::size_t i = 0; i < words; ++i) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    // Small magnitudes dominate real configurations; mix in a few wild
    // values so the zigzag/varint paths see long deltas too.
    w[i] = (x & 0xF) == 0 ? static_cast<Value>(x >> 20)
                          : static_cast<Value>(x & 0x3F);
  }
  return w;
}

TEST(ArenaSpill, SpilledSegmentsDecodeBitExact) {
  ConfigArena arena(4, 4, "test");
  ASSERT_TRUE(arena.set_spill(::testing::TempDir(), 0, 64));
  const std::size_t W = arena.words_per_config();

  // Rows the way a BFS interns them: each configuration is an earlier one
  // after one step, which changes a state and at most one register. Codes
  // are first-appearance indices, so independent random rows would carry
  // no delta structure at all; successor rows do.
  std::vector<std::vector<Value>> expect;
  std::vector<Value> w = synth_words(W, 0);
  for (std::uint64_t i = 0; expect.size() < 1000; ++i) {
    const std::vector<Value> r = synth_words(2, i);
    w[i % 4] = r[0];
    if (i % 3 == 0) w[4 + (i / 3) % 4] = r[1];
    const auto [id, inserted] = arena.intern(w.data());
    if (!inserted) continue;
    ASSERT_EQ(id, static_cast<ConfigId>(expect.size()));
    expect.push_back(w);
  }
  ASSERT_TRUE(arena.spill_needed());
  const std::size_t released = arena.maybe_spill(kNoConfig);
  EXPECT_GT(released, 0u);
  EXPECT_GT(arena.spilled_segments(), 0u);
  EXPECT_GT(arena.spilled_bytes(), 0u);
  EXPECT_EQ(arena.spill_failures(), 0u);
  // Compression must beat the raw code rows on successor-shaped data.
  EXPECT_LT(arena.spilled_bytes(),
            arena.spilled_segments() * arena.segment_configs() *
                arena.row_codes() * sizeof(Code));

  std::vector<Value> got(W);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    arena.decode(static_cast<ConfigId>(i), got.data());
    ASSERT_EQ(got, expect[i]) << "id " << i
                              << " decoded differently after spilling";
  }
}

TEST(ArenaSpill, DedupProbesCompareThroughSpilledSegments) {
  ConfigArena arena(4, 4, "test");
  ASSERT_TRUE(arena.set_spill(::testing::TempDir(), 0, 64));
  const std::size_t W = arena.words_per_config();

  std::vector<ConfigId> ids;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto w = synth_words(W, i);
    const auto [id, inserted] = arena.intern(w.data());
    ASSERT_TRUE(inserted);
    ids.push_back(id);
  }
  ASSERT_GT(arena.maybe_spill(kNoConfig), 0u);

  // Re-interning every configuration must dedup against spilled words.
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto w = synth_words(W, i);
    const auto [id, inserted] = arena.intern(w.data());
    EXPECT_FALSE(inserted) << "seed " << i;
    EXPECT_EQ(id, ids[i]);
  }
}

TEST(ArenaSpill, ClearRearmsSpilledSegmentsForReuse) {
  ConfigArena arena(4, 4, "test");
  ASSERT_TRUE(arena.set_spill(::testing::TempDir(), 0, 64));
  const std::size_t W = arena.words_per_config();

  for (std::uint64_t i = 0; i < 300; ++i) {
    arena.intern(synth_words(W, i).data());
  }
  ASSERT_GT(arena.maybe_spill(kNoConfig), 0u);
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.dict_size(), 0u);
  EXPECT_EQ(arena.spilled_bytes(), 0u);

  // Second generation with different contents: the re-armed segments must
  // hold and spill the new words correctly.
  std::vector<std::vector<Value>> expect;
  for (std::uint64_t i = 0; i < 300; ++i) {
    expect.push_back(synth_words(W, 7'000 + i));
    arena.intern(expect.back().data());
  }
  ASSERT_GT(arena.maybe_spill(kNoConfig), 0u);
  std::vector<Value> got(W);
  for (std::uint64_t i = 0; i < 300; ++i) {
    arena.decode(static_cast<ConfigId>(i), got.data());
    ASSERT_EQ(got, expect[i]) << "id " << i;
  }
}

struct SetSnapshot {
  std::vector<std::vector<Value>> packed;
  ExploreResult result;
};

SetSnapshot set_snapshot(const Protocol& proto, Explorer& explorer,
                         const Config& root, ProcSet p) {
  ConfigArena packer(proto.num_processes(), proto.num_registers(), "packer");
  SetSnapshot s;
  s.result = explorer.explore(root, p, [&](const ConfigView& c) {
    std::vector<Value> w(packer.words_per_config());
    packer.pack(c.materialize(), w.data());
    s.packed.push_back(std::move(w));
    return true;
  });
  std::sort(s.packed.begin(), s.packed.end());
  return s;
}

TEST(ExplorerSpill, SequentialSpillRunMatchesAllInRam) {
  consensus::BallotConsensus proto(3, 6);
  const Config root = initial_config(proto, {0, 1, 1});
  const ProcSet everyone = ProcSet::first_n(3);

  Explorer plain(proto);
  const SetSnapshot expected = set_snapshot(proto, plain, root, everyone);
  ASSERT_FALSE(expected.result.truncated);

  obs::MemLedger::global().reset();
  // Threshold well below the space's footprint + tiny segments: the run
  // must spill repeatedly and still enumerate the identical set.
  Explorer spilly(proto, {.limits = {.spill = {.dir = ::testing::TempDir(),
                                               .threshold_bytes = 1 << 14,
                                               .seg_configs = 256}}});
  const SetSnapshot got = set_snapshot(proto, spilly, root, everyone);

  EXPECT_EQ(expected.result.visited, got.result.visited);
  EXPECT_EQ(expected.result.truncated, got.result.truncated);
  EXPECT_EQ(expected.packed, got.packed);
  EXPECT_GT(obs::MemLedger::global().peak(obs::MemAccount::kArenaSpill), 0u)
      << "run never spilled: the threshold/segment hint is miscalibrated";
}

TEST(ExplorerSpill, WitnessesReplayThroughSpilledSegments) {
  consensus::BallotConsensus proto(3, 6);
  const Config root = initial_config(proto, {0, 1, 0});
  const ProcSet everyone = ProcSet::first_n(3);

  Explorer explorer(proto, {.limits = {.spill = {.dir = ::testing::TempDir(),
                                                 .threshold_bytes = 1 << 14,
                                                 .seg_configs = 256}}});
  std::vector<ConfigId> seen;
  auto result = explorer.explore(root, everyone, [&](const ConfigView& c) {
    seen.push_back(c.id);
    return true;
  });
  ASSERT_FALSE(result.aborted);
  ASSERT_GT(seen.size(), 100u);

  // Witness reconstruction and materialize() must decode through spilled
  // segments.
  for (std::size_t i = 0; i < seen.size(); i += seen.size() / 32 + 1) {
    const ConfigId id = seen[i];
    const auto w = explorer.witness_by_id(id);
    ASSERT_TRUE(w.has_value()) << "id " << id;
    EXPECT_EQ(run(proto, root, *w), explorer.materialize(id))
        << "witness for id " << id;
  }
}

TEST(ExplorerSpill, CappedSpillRunStaysSoundUnderTruncation) {
  // Budget-style truncation with spilling active: never more than the
  // cap, no duplicate visits, truncated verdict set — exit-4 semantics
  // (prove positives, never negatives) survive going out of core.
  consensus::BallotConsensus proto(4, 8);
  const Config root = initial_config(proto, {0, 1, 1, 0});
  const ProcSet everyone = ProcSet::first_n(4);
  const std::size_t cap = 20'000;

  Explorer explorer(proto, {.limits = {.max_configs = cap,
                                       .spill = {.dir = ::testing::TempDir(),
                                                 .threshold_bytes = 1 << 15,
                                                 .seg_configs = 512}}});
  const SetSnapshot got = set_snapshot(proto, explorer, root, everyone);
  EXPECT_TRUE(got.result.truncated);
  EXPECT_LE(got.result.visited, cap);
  EXPECT_EQ(got.packed.size(), got.result.visited);
  EXPECT_EQ(std::adjacent_find(got.packed.begin(), got.packed.end()),
            got.packed.end())
      << "a configuration was visited twice";
}

}  // namespace
}  // namespace tsb::sim

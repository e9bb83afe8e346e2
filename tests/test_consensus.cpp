#include <gtest/gtest.h>

#include <set>

#include "consensus/ballot.hpp"
#include "consensus/kset.hpp"
#include "consensus/racing.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace tsb::consensus {
namespace {

TEST(Ballot, RegisterPackingRoundTrips) {
  for (int mb : {0, 1, 17, 255}) {
    for (int ab : {0, 3, 255}) {
      for (int av : {-1, 0, 1}) {
        int mb2, ab2, av2;
        BallotConsensus::unpack_reg(BallotConsensus::pack_reg(mb, ab, av),
                                    mb2, ab2, av2);
        EXPECT_EQ(mb2, mb);
        EXPECT_EQ(ab2, ab);
        EXPECT_EQ(av2, av);
      }
    }
  }
}

TEST(Ballot, SoloRunDecidesOwnInput) {
  for (int n : {2, 3, 5}) {
    BallotConsensus proto(n, 3 * n);
    for (sim::Value v : {0, 1}) {
      std::vector<sim::Value> inputs(static_cast<std::size_t>(n), 1 - v);
      inputs[0] = v;
      const sim::Config init = sim::initial_config(proto, inputs);
      const auto solo = sim::run_solo(proto, init, 0, 10'000);
      ASSERT_TRUE(solo.decided) << proto.name();
      EXPECT_EQ(solo.decision, v) << "a solo run must decide its own input";
      // Solo cost: one prepare write + n reads + one accept write + n reads.
      EXPECT_EQ(solo.schedule.size(), static_cast<std::size_t>(2 * n + 2));
    }
  }
}

TEST(Ballot, SoloRunFromContendedConfigurationsDecides) {
  BallotConsensus proto(3, 9);
  util::Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<sim::Value> inputs{0, 1, static_cast<sim::Value>(trial & 1)};
    sim::Config c = sim::initial_config(proto, inputs);
    // Random contention prefix (short enough to stay below the cap).
    for (int i = 0; i < 10; ++i) c = sim::step(proto, c, static_cast<int>(rng.below(3)));
    for (int p = 0; p < 3; ++p) {
      if (sim::decision_of(proto, c, p)) continue;
      const auto solo = sim::run_solo(proto, c, p, 10'000);
      EXPECT_TRUE(solo.decided)
          << "obstruction-freedom below the cap: solo runs decide";
    }
  }
}

TEST(Ballot, RandomSchedulesAlwaysAgree) {
  BallotConsensus proto(3, 9);
  util::Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<sim::Value> inputs{
        static_cast<sim::Value>(rng.coin()),
        static_cast<sim::Value>(rng.coin()),
        static_cast<sim::Value>(rng.coin())};
    sim::Config c = sim::initial_config(proto, inputs);
    // Interleave randomly; finish each process solo.
    for (int i = 0; i < 40; ++i) c = sim::step(proto, c, static_cast<int>(rng.below(3)));
    std::set<sim::Value> decided;
    for (int p = 0; p < 3; ++p) {
      auto solo = sim::run_solo(proto, c, p, 10'000);
      if (solo.decided) {
        decided.insert(solo.decision);
        c = solo.final;
      }
    }
    EXPECT_LE(decided.size(), 1u) << "agreement violated";
    for (sim::Value v : decided) {
      EXPECT_TRUE(v == inputs[0] || v == inputs[1] || v == inputs[2]);
    }
  }
}

TEST(Ballot, StuckStatesOnlyAtCap) {
  BallotConsensus proto(2, 2);  // tightest possible cap
  sim::Config c = sim::initial_config(proto, {0, 1});
  // Drive a ballot race: alternate prepare writes so ballots climb.
  util::Rng rng(3);
  bool saw_stuck = false;
  for (int i = 0; i < 2000; ++i) {
    c = sim::step(proto, c, static_cast<int>(rng.below(2)));
    for (int p = 0; p < 2; ++p) {
      if (proto.is_stuck_state(c.states[static_cast<std::size_t>(p)])) {
        saw_stuck = true;
        // A stuck process self-loops: one more step changes nothing.
        const sim::Config before = c;
        const sim::Config after = sim::step(proto, c, p);
        EXPECT_TRUE(
            sim::indistinguishable(before, after, sim::ProcSet::first_n(2)));
      }
    }
  }
  EXPECT_TRUE(saw_stuck) << "cap 2 should be reachable under contention";
}

TEST(Racing, SoloRunDecidesOwnInput) {
  // The deliberately-unsafe study protocol still satisfies solo
  // termination and validity in solo runs.
  for (auto rule : {RacingConsensus::AdoptRule::kStrictMajority,
                    RacingConsensus::AdoptRule::kAtLeast}) {
    RacingConsensus proto(3, rule);
    const sim::Config init = sim::initial_config(proto, {1, 0, 0});
    const auto solo = sim::run_solo(proto, init, 0, 1000);
    ASSERT_TRUE(solo.decided);
    EXPECT_EQ(solo.decision, 1);
  }
}

TEST(Racing, KnownObliterationTraceViolatesAgreement) {
  // The exact covered-write obliteration interleaving (found by the model
  // checker) replayed as a regression test: p1's stale write lands after
  // p0 decided from an all-0 view, and p1 then drives the registers to
  // all-1 and decides 1.
  RacingConsensus proto(2, RacingConsensus::AdoptRule::kStrictMajority);
  sim::Config c = sim::initial_config(proto, {0, 1});
  const sim::Schedule bad{0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1};
  c = sim::run(proto, c, bad);
  const auto d0 = sim::decision_of(proto, c, 0);
  const auto d1 = sim::decision_of(proto, c, 1);
  ASSERT_TRUE(d0.has_value());
  ASSERT_TRUE(d1.has_value());
  EXPECT_NE(*d0, *d1) << "the study protocol's known agreement violation";
}

struct KSetCase {
  int n;
  int k;
};

class KSetTest : public ::testing::TestWithParam<KSetCase> {};

TEST_P(KSetTest, GroupStructureIsSound) {
  const auto [n, k] = GetParam();
  PartitionedKSet proto(n, k, 3 * n);
  EXPECT_EQ(proto.num_processes(), n);
  EXPECT_EQ(proto.num_registers(), n);
  int total = 0;
  for (int g = 0; g < k; ++g) {
    EXPECT_GE(proto.group_size(g), 2);
    total += proto.group_size(g);
  }
  EXPECT_EQ(total, n);
}

TEST_P(KSetTest, RandomRunsDecideAtMostKValues) {
  const auto [n, k] = GetParam();
  PartitionedKSet proto(n, k, 3 * n);
  util::Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<sim::Value> inputs;
    for (int p = 0; p < n; ++p) {
      inputs.push_back(static_cast<sim::Value>(rng.coin()));
    }
    sim::Config c = sim::initial_config(proto, inputs);
    for (int i = 0; i < 5 * n; ++i) {
      c = sim::step(proto, c, static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(n))));
    }
    std::set<sim::Value> decided;
    for (int p = 0; p < n; ++p) {
      auto solo = sim::run_solo(proto, c, p, 10'000);
      if (solo.decided) {
        decided.insert(solo.decision);
        c = solo.final;
      }
    }
    EXPECT_LE(static_cast<int>(decided.size()), k);
  }
}

TEST_P(KSetTest, GroupMembersAgreeWithinGroup) {
  const auto [n, k] = GetParam();
  PartitionedKSet proto(n, k, 3 * n);
  std::vector<sim::Value> inputs;
  for (int p = 0; p < n; ++p) inputs.push_back(p % 2);
  sim::Config c = sim::initial_config(proto, inputs);
  std::vector<sim::Value> decision(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    auto solo = sim::run_solo(proto, c, p, 10'000);
    ASSERT_TRUE(solo.decided);
    decision[static_cast<std::size_t>(p)] = solo.decision;
    c = solo.final;
  }
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < n; ++q) {
      if (proto.group_of(p) == proto.group_of(q)) {
        EXPECT_EQ(decision[static_cast<std::size_t>(p)],
                  decision[static_cast<std::size_t>(q)]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, KSetTest,
                         ::testing::Values(KSetCase{4, 2}, KSetCase{6, 2},
                                           KSetCase{6, 3}),
                         [](const auto& info) {
                           return 'n' + std::to_string(info.param.n) + "k" +
                                  std::to_string(info.param.k);
                         });

}  // namespace
}  // namespace tsb::consensus

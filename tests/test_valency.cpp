#include <gtest/gtest.h>

#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "util/rng.hpp"

namespace tsb::bound {
namespace {

using consensus::BallotConsensus;

class ValencyTest : public ::testing::TestWithParam<int> {
 protected:
  int n() const { return GetParam(); }
};

TEST_P(ValencyTest, Proposition2HoldsAtInitialConfiguration) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle oracle(proto);
  std::vector<sim::Value> inputs(static_cast<std::size_t>(n()), 0);
  inputs[1] = 1;
  const Config init = sim::initial_config(proto, inputs);

  EXPECT_TRUE(oracle.univalent_on(init, ProcSet::single(0), 0));
  EXPECT_TRUE(oracle.univalent_on(init, ProcSet::single(1), 1));
  EXPECT_TRUE(oracle.bivalent(init, ProcSet::single(0).with(1)));
  EXPECT_TRUE(oracle.bivalent(init, ProcSet::first_n(n())));
  EXPECT_FALSE(oracle.ever_truncated());
}

TEST_P(ValencyTest, UniformInputsAreUnivalent) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle oracle(proto);
  for (sim::Value v : {0, 1}) {
    const std::vector<sim::Value> inputs(static_cast<std::size_t>(n()), v);
    const Config init = sim::initial_config(proto, inputs);
    // Validity: only v can ever be decided.
    EXPECT_TRUE(oracle.univalent_on(init, ProcSet::first_n(n()), v));
  }
}

TEST_P(ValencyTest, SupersetsInheritDecidability) {
  // Proposition 1(ii)/(iii) checked on configurations sampled along random
  // executions.
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle oracle(proto);
  std::vector<sim::Value> inputs(static_cast<std::size_t>(n()), 0);
  inputs[1] = 1;
  Config c = sim::initial_config(proto, inputs);
  util::Rng rng(17);

  for (int step_count = 0; step_count < 12; ++step_count) {
    const ProcSet everyone = ProcSet::first_n(n());
    for (int p = 0; p < n(); ++p) {
      const ProcSet sub = ProcSet::first_n(n()).without(p);
      for (sim::Value v : {0, 1}) {
        if (oracle.can_decide(c, sub, v)) {
          EXPECT_TRUE(oracle.can_decide(c, everyone, v))
              << "superset lost a decidable value";
        }
        if (oracle.univalent_on(c, everyone, v)) {
          EXPECT_TRUE(oracle.univalent_on(c, sub, v))
              << "subset of univalent set not univalent";
        }
      }
    }
    c = sim::step(proto, c, static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(n()))));
  }
}

TEST_P(ValencyTest, DecidingScheduleWitnessesReplay) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle oracle(proto);
  std::vector<sim::Value> inputs(static_cast<std::size_t>(n()), 0);
  inputs[1] = 1;
  const Config init = sim::initial_config(proto, inputs);
  const ProcSet everyone = ProcSet::first_n(n());

  for (sim::Value v : {0, 1}) {
    const auto witness = oracle.deciding_schedule(init, everyone, v);
    ASSERT_TRUE(witness.has_value());
    EXPECT_TRUE(witness->only(everyone));
    const Config end = sim::run(proto, init, *witness);
    EXPECT_TRUE(sim::some_decided(proto, end, v));
  }
}

TEST_P(ValencyTest, SomeDecidableAgreesWithCanDecide) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle oracle(proto);
  std::vector<sim::Value> inputs(static_cast<std::size_t>(n()), 1);
  const Config init = sim::initial_config(proto, inputs);
  const sim::Value v = oracle.some_decidable(init, ProcSet::single(0));
  EXPECT_TRUE(oracle.can_decide(init, ProcSet::single(0), v));
  EXPECT_EQ(v, 1);  // validity: all inputs are 1
}

TEST_P(ValencyTest, MemoizationIsConsistent) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle oracle(proto);
  std::vector<sim::Value> inputs(static_cast<std::size_t>(n()), 0);
  inputs[1] = 1;
  const Config init = sim::initial_config(proto, inputs);
  const ProcSet everyone = ProcSet::first_n(n());

  const bool first = oracle.can_decide(init, everyone, 1);
  const std::size_t misses_before = oracle.queries() - oracle.cache_hits();
  const bool second = oracle.can_decide(init, everyone, 1);
  EXPECT_EQ(first, second);
  EXPECT_EQ(oracle.queries() - oracle.cache_hits(), misses_before)
      << "second identical query should be a cache hit";
}

INSTANTIATE_TEST_SUITE_P(SmallSystems, ValencyTest, ::testing::Values(2, 3));

TEST(Valency, SingletonValencyTracksSoloRun) {
  BallotConsensus proto(2, 6);
  ValencyOracle oracle(proto);
  const Config init = sim::initial_config(proto, {0, 1});
  // A singleton's decidable value from the initial configuration is its
  // solo-run decision.
  for (int p = 0; p < 2; ++p) {
    const auto solo = sim::run_solo(proto, init, p, 10'000);
    ASSERT_TRUE(solo.decided);
    EXPECT_TRUE(oracle.can_decide(init, ProcSet::single(p), solo.decision));
  }
}

TEST(Valency, SharedEngineRefusesProcessIdsThatAliasTheAmbientBits) {
  // The shared engine's memo key carries the ambient decide bits in bits
  // 60..61 of the P mask. At n = 60 the P bits end at 59 and the engine
  // answers; at n = 61 process 60 would alias ambient bit 0, so the
  // oracle is refused unless it runs the fresh-BFS backend.
  BallotConsensus at60(60, 60);
  ValencyOracle oracle(at60);
  const Config init =
      sim::initial_config(at60, std::vector<Value>(60, Value{1}));
  EXPECT_TRUE(oracle.can_decide(init, ProcSet::single(59), 1));
  EXPECT_FALSE(oracle.can_decide(init, ProcSet::single(59), 0));

  BallotConsensus at61(61, 61);
  EXPECT_THROW(ValencyOracle{at61}, util::UsageError);
  EXPECT_NO_THROW((ValencyOracle{at61, {.reuse = false}}));
}

}  // namespace
}  // namespace tsb::bound

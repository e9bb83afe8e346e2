#include <gtest/gtest.h>

#include "consensus/ballot.hpp"
#include "consensus/kset.hpp"
#include "consensus/racing.hpp"
#include "sim/model_checker.hpp"

namespace tsb::sim {
namespace {

using consensus::BallotConsensus;
using consensus::PartitionedKSet;
using consensus::RacingConsensus;

TEST(AllBinaryInputs, EnumeratesLexicographically) {
  const auto inputs = all_binary_inputs(2);
  ASSERT_EQ(inputs.size(), 4u);
  EXPECT_EQ(inputs[0], (std::vector<Value>{0, 0}));
  EXPECT_EQ(inputs[1], (std::vector<Value>{1, 0}));
  EXPECT_EQ(inputs[2], (std::vector<Value>{0, 1}));
  EXPECT_EQ(inputs[3], (std::vector<Value>{1, 1}));
}

TEST(ModelChecker, RacingStrictMajorityIsUnsafe) {
  // The plausible-looking memoryless racing protocol falls to covered-write
  // obliteration — the checker finds the agreement violation at n = 2.
  RacingConsensus proto(2, RacingConsensus::AdoptRule::kStrictMajority);
  ModelChecker::Options opts;
  opts.check_solo_termination = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("distinct values decided"),
            std::string::npos)
      << report.summary();
  ASSERT_TRUE(report.schedule_to_bad.has_value());
  ASSERT_TRUE(report.bad_inputs.has_value());

  // The witness must replay to a genuinely disagreeing configuration.
  const Config init = initial_config(proto, *report.bad_inputs);
  const Config bad = run(proto, init, *report.schedule_to_bad);
  EXPECT_TRUE(some_decided(proto, bad, 0));
  EXPECT_TRUE(some_decided(proto, bad, 1));
}

TEST(ModelChecker, RacingAtLeastRuleIsCorrectForTwoProcesses) {
  // A striking checker find: with the "adopt on >=" rule the memoryless
  // racing protocol IS a correct obstruction-free consensus protocol for
  // n = 2 — finite-state, anonymous, multi-writer, 2 = n registers
  // (consistent with the paper's conjecture that n are necessary).
  // Verified exhaustively, including solo termination from every one of
  // the reachable configurations.
  RacingConsensus proto(2, RacingConsensus::AdoptRule::kAtLeast);
  ModelChecker::Options opts;
  opts.solo_step_cap = 1000;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.solo_failures, 0u);
}

TEST(ModelChecker, RacingAtLeastRuleFailsAtThreeProcesses) {
  // ... but the same rule falls to a deeper obliteration at n = 3.
  RacingConsensus proto(3, RacingConsensus::AdoptRule::kAtLeast);
  ModelChecker::Options opts;
  opts.check_solo_termination = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_FALSE(report.ok);
  ASSERT_TRUE(report.schedule_to_bad.has_value());
  const Config init = initial_config(proto, *report.bad_inputs);
  const Config bad = run(proto, init, *report.schedule_to_bad);
  EXPECT_TRUE(some_decided(proto, bad, 0));
  EXPECT_TRUE(some_decided(proto, bad, 1));
}

class BallotSafetyTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BallotSafetyTest, ExhaustiveAgreementAndValidity) {
  const auto [n, cap] = GetParam();
  BallotConsensus proto(n, cap);
  ModelChecker::Options opts;
  opts.max_configs = 10'000'000;
  opts.check_solo_termination = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_FALSE(report.truncated);
  EXPECT_GT(report.total_configs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Caps, BallotSafetyTest,
    ::testing::Values(std::pair{2, 2}, std::pair{2, 4}, std::pair{2, 6},
                      std::pair{3, 3}, std::pair{3, 6}),
    [](const auto& info) {
      return 'n' + std::to_string(info.param.first) + "cap" +
             std::to_string(info.param.second);
    });

TEST(ModelChecker, BallotSoloFailuresOnlyAtStuckConfigurations) {
  BallotConsensus proto(2, 4);
  ModelChecker::Options opts;
  opts.solo_step_cap = 200;
  opts.fail_on_solo_violation = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_GT(report.solo_failures, 0u)
      << "any finite cap leaves some capped configurations";
  ASSERT_TRUE(report.sample_solo_failure.has_value());

  // The sample failure must be explainable by the cap: some process is
  // stuck or becomes stuck during its fruitless solo run.
  const Config& c = *report.sample_solo_failure;
  bool cap_involved = false;
  for (ProcId p = 0; p < 2; ++p) {
    if (decision_of(proto, c, p)) continue;
    SoloRun solo = run_solo(proto, c, p, 200);
    if (solo.decided) continue;
    for (ProcId q = 0; q < 2; ++q) {
      if (proto.is_stuck_state(solo.final.states[static_cast<std::size_t>(q)])) {
        cap_involved = true;
      }
    }
  }
  EXPECT_TRUE(cap_involved)
      << "a solo failure not caused by the ballot cap would be a real bug";
}

TEST(ModelChecker, KSetSpecAcceptsPartitionedProtocol) {
  PartitionedKSet proto(4, 2, 2);
  ModelChecker::Options opts;
  opts.k = 2;
  opts.max_configs = 20'000'000;
  opts.check_solo_termination = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_TRUE(report.ok) << report.summary();
}

TEST(ModelChecker, ConsensusSpecRejectsKSetProtocol) {
  // With k = 1 the 2-set protocol must be flagged: groups can decide
  // differently.
  PartitionedKSet proto(4, 2, 2);
  ModelChecker::Options opts;
  opts.k = 1;
  opts.max_configs = 20'000'000;
  opts.check_solo_termination = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_FALSE(report.ok);
}

TEST(ModelChecker, TruncationIsReportedNotSilent) {
  BallotConsensus proto(3, 9);
  ModelChecker::Options opts;
  opts.max_configs = 100;  // far below the real reachable count
  opts.check_solo_termination = false;
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_TRUE(report.truncated);
  EXPECT_NE(report.summary().find("TRUNCATED"), std::string::npos);
}

TEST(ModelChecker, SoloTerminationFailureProducesViolation) {
  BallotConsensus proto(2, 2);
  ModelChecker::Options opts;
  opts.solo_step_cap = 200;
  opts.fail_on_solo_violation = true;  // strict mode
  ModelChecker checker(proto, opts);
  const auto report = checker.check_all_binary_inputs();
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("solo termination"), std::string::npos);
}

}  // namespace
}  // namespace tsb::sim

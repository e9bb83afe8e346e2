#include <gtest/gtest.h>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "consensus/racing.hpp"

namespace tsb::bound {
namespace {

using consensus::BallotConsensus;

struct AdversaryCase {
  int n;
  int max_ballot;
};

class AdversaryTest : public ::testing::TestWithParam<AdversaryCase> {};

TEST_P(AdversaryTest, ForcesNMinusOneCoveredRegisters) {
  const auto [n, cap] = GetParam();
  BallotConsensus proto(n, cap);
  SpaceBoundAdversary::Options opts;
  opts.narrative = true;
  SpaceBoundAdversary adversary(proto, opts);

  const auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.check.distinct_registers, n - 1);
  EXPECT_TRUE(result.check.ok) << result.check.error;
  EXPECT_FALSE(result.narrative.empty());

  // The covering claims replay against an UNCAPPED instance too: the
  // certificate's execution never pushed any process to the ballot cap,
  // so it is verbatim an execution of the unbounded protocol.
  BallotConsensus uncapped(n, 200);
  auto cert = result.certificate;
  const auto recheck = check_certificate(uncapped, cert);
  EXPECT_TRUE(recheck.ok) << recheck.error;
  EXPECT_EQ(recheck.distinct_registers, result.check.distinct_registers);
}

INSTANTIATE_TEST_SUITE_P(
    BallotSweep, AdversaryTest,
    ::testing::Values(AdversaryCase{2, 4}, AdversaryCase{3, 6},
                      AdversaryCase{4, 8}, AdversaryCase{5, 15}),
    [](const auto& info) {
      return 'n' + std::to_string(info.param.n);
    });

TEST(Certificate, RejectsWrongPoisedRegister) {
  BallotConsensus proto(3, 6);
  SpaceBoundAdversary adversary(proto);
  auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;

  auto tampered = result.certificate;
  ASSERT_FALSE(tampered.covering.empty());
  tampered.covering[0].second =
      (tampered.covering[0].second + 1) % proto.num_registers();
  const auto check = check_certificate(proto, tampered);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.error.empty());
}

TEST(Certificate, RejectsDuplicateRegisters) {
  BallotConsensus proto(3, 6);
  SpaceBoundAdversary adversary(proto);
  auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;

  auto tampered = result.certificate;
  ASSERT_GE(tampered.covering.size(), 2u);
  // Claim the first process covers the second's register: either the
  // poised check or the distinctness check must fire.
  tampered.covering[0].second = tampered.covering[1].second;
  EXPECT_FALSE(check_certificate(proto, tampered).ok);
}

TEST(Certificate, RejectsTruncatedScheduleForMultiWriterProtocol) {
  // The racing protocol starts every process in a collect (a read), so a
  // truncated schedule leaves the claimed processes not poised to write
  // and the checker must reject. (For the single-writer ballot protocol a
  // truncation can be coincidentally satisfied: every process is poised
  // at its own register in the initial configuration as well — which is
  // fine; the certificate's claim still holds. The test below pins the
  // multi-writer case where truncation genuinely breaks the claim.)
  consensus::RacingConsensus proto(2,
      consensus::RacingConsensus::AdoptRule::kAtLeast);
  SpaceBoundAdversary adversary(proto);
  auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_GT(result.certificate.schedule.size(), 0u);

  auto tampered = result.certificate;
  tampered.schedule = Schedule{};
  EXPECT_FALSE(check_certificate(proto, tampered).ok);
}

TEST(Adversary, WorksOnTheMultiWriterRacingProtocol) {
  // The n = 2 instance of the "at least" racing rule is an exhaustively
  // verified correct OF consensus protocol with multi-writer registers —
  // a covering witness here is not a triviality of register ownership.
  consensus::RacingConsensus proto(2,
      consensus::RacingConsensus::AdoptRule::kAtLeast);
  SpaceBoundAdversary::Options opts;
  opts.narrative = true;
  SpaceBoundAdversary adversary(proto, opts);
  const auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.check.distinct_registers, 1);
}

TEST(Certificate, RejectsWrongInputArity) {
  BallotConsensus proto(3, 6);
  CoveringCertificate cert;
  cert.inputs = {0, 1};  // three processes expected
  EXPECT_FALSE(check_certificate(proto, cert).ok);
}

TEST(Adversary, ReportsErrorWhenCapTooTight) {
  // n = 4 with the minimum cap: the construction needs restarts that
  // exceed it. The lemma machinery's requirement checks throw and the
  // adversary reports a clean error instead of fabricating a certificate.
  BallotConsensus proto(4, 4);
  SpaceBoundAdversary adversary(proto);
  const auto result = adversary.run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("requirement failed"), std::string::npos)
      << result.error;
}

TEST(Adversary, TwoProcessCaseUsesSoloEscape) {
  BallotConsensus proto(2, 4);
  SpaceBoundAdversary adversary(proto);
  const auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.check.distinct_registers, 1);
  ASSERT_EQ(result.certificate.covering.size(), 1u);
  EXPECT_EQ(result.certificate.covering[0].first, 0);  // p0 covers
}

TEST(Adversary, ValencyOracleStaysExact) {
  BallotConsensus proto(4, 8);
  SpaceBoundAdversary adversary(proto);
  const auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.valency_queries, 0u);
  // The run() contract: a truncated oracle is reported as an error, so an
  // ok result implies every valency answer was exact.
}

TEST(Adversary, ThreadsOptionIsIgnored) {
  // The construction is sequential; Options::threads survives only so old
  // callers compile, and must change nothing.
  BallotConsensus proto(5, 15);
  SpaceBoundAdversary::Options opts;
  const auto one = SpaceBoundAdversary(proto, opts).run();
  opts.threads = 4;
  const auto four = SpaceBoundAdversary(proto, opts).run();
  ASSERT_TRUE(one.ok) << one.error;
  ASSERT_TRUE(four.ok) << four.error;
  EXPECT_EQ(four.certificate.inputs, one.certificate.inputs);
  EXPECT_EQ(four.certificate.schedule, one.certificate.schedule);
  EXPECT_EQ(four.certificate.covering, one.certificate.covering);
  EXPECT_EQ(four.valency_queries, one.valency_queries);
  EXPECT_EQ(four.valency_cache_hits, one.valency_cache_hits);
  EXPECT_EQ(four.reach_expanded, one.reach_expanded);
  EXPECT_EQ(four.reach_reused, one.reach_reused);
  EXPECT_EQ(four.reach_graph_nodes, one.reach_graph_nodes);
}

}  // namespace
}  // namespace tsb::bound

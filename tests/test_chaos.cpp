#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "obs/jsonl_sink.hpp"
#include "rt/atomic_registers.hpp"
#include "rt/chaos.hpp"
#include "rt/chaos_scheduler.hpp"
#include "rt/fault.hpp"
#include "rt/harness.hpp"
#include "rt/rt_consensus.hpp"
#include "rt/rt_mutex.hpp"
#include "sim/explorer.hpp"
#include "toy_protocol.hpp"
#include "util/require.hpp"

namespace tsb::rt {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- fault plan + hook plumbing --------------------------------------------

TEST(FaultPlan, BuildersCountersAndCanonicalString) {
  fault::FaultPlan plan(3);
  plan.crash(0, 3).stall(1, 5, 12).yield(2, 7).crash(2, 9);
  EXPECT_EQ(plan.crashes(), 2);
  EXPECT_EQ(plan.stalls(), 1);
  EXPECT_EQ(plan.yields(), 1);
  EXPECT_EQ(plan.to_string(), "t0:crash@3 t1:stall@5x12 t2:yield@7 t2:crash@9");
  EXPECT_EQ(fault::FaultPlan(2).to_string(), "none");
}

TEST(FaultHook, UnboundAccessIsANoOp) {
  // No chaos run active: the instrumented path must be inert (this is the
  // path every non-chaos test and bench takes on every register access).
  EXPECT_FALSE(fault::thread_bound());
  AtomicRegisterArray regs(2);
  regs.write(0, 1);
  EXPECT_EQ(regs.read(0), 1u);
  fault::interleave();  // also a no-op when unbound
}

TEST(AtomicRegisters, OutOfRangeAccessThrowsNotUb) {
  AtomicRegisterArray regs(3);
  EXPECT_THROW(regs.read(3), util::RequirementFailed);
  EXPECT_THROW(regs.write(7, 1), util::RequirementFailed);
  regs.write(2, 5);  // in range still fine
  EXPECT_EQ(regs.read(2), 5u);
}

// --- harness ---------------------------------------------------------------

TEST(Harness, WorkerExceptionPropagatesAfterAllJoin) {
  std::atomic<int> ran{0};
  try {
    run_threads(4, [&](int p) {
      ran.fetch_add(1);
      if (p == 2) throw std::runtime_error("worker 2 failed");
    });
    FAIL() << "expected the worker's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "worker 2 failed");
  }
  // join() must not hang on the throwing worker, and the peers must have
  // been released from the barrier and run to completion.
  EXPECT_EQ(ran.load(), 4);
}

TEST(Harness, FirstOfSeveralExceptionsWins) {
  try {
    run_threads(3, [&](int p) {
      throw std::runtime_error("worker " + std::to_string(p));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("worker ", 0), 0u);
  }
}

// --- chaos scheduler -------------------------------------------------------

TEST(ChaosScheduler, CrashAtAccessKUnwindsExactlyThere) {
  fault::FaultPlan plan(2);
  plan.crash(1, 5);
  AtomicRegisterArray regs(2);
  const auto out = chaos_run(2, plan, {.seed = 3}, [&](int p) {
    for (int i = 0; i < 20; ++i) regs.write(static_cast<std::size_t>(p), 1);
  });
  EXPECT_EQ(out.status[0], ChaosScheduler::ThreadStatus::kDone);
  EXPECT_EQ(out.status[1], ChaosScheduler::ThreadStatus::kCrashed);
  // The crash fires *on* the victim's 5th instrumented access.
  EXPECT_EQ(out.accesses[1], 5u);
  EXPECT_EQ(out.accesses[0], 20u);
  EXPECT_FALSE(out.error);
}

TEST(ChaosScheduler, StalledThreadsCannotDeadlockTheRun) {
  // Stall both threads early and long: the scheduler must fast-forward its
  // step clock past the stalls instead of spinning or deadlocking.
  fault::FaultPlan plan(2);
  plan.stall(0, 2, 1'000).stall(1, 2, 1'000);
  AtomicRegisterArray regs(2);
  const auto out = chaos_run(2, plan, {.seed = 9}, [&](int p) {
    for (int i = 0; i < 8; ++i) regs.write(static_cast<std::size_t>(p), 1);
  });
  EXPECT_EQ(out.status[0], ChaosScheduler::ThreadStatus::kDone);
  EXPECT_EQ(out.status[1], ChaosScheduler::ThreadStatus::kDone);
}

TEST(ChaosScheduler, PerThreadBudgetUnwindsOnlyTheOverBudgetThread) {
  fault::FaultPlan plan(2);
  AtomicRegisterArray regs(2);
  const auto out =
      chaos_run(2, plan, {.seed = 5, .per_thread_budget = 10}, [&](int p) {
        const int iters = p == 0 ? 5 : 50;
        for (int i = 0; i < iters; ++i) {
          regs.write(static_cast<std::size_t>(p), 1);
        }
      });
  EXPECT_EQ(out.status[0], ChaosScheduler::ThreadStatus::kDone);
  EXPECT_EQ(out.status[1], ChaosScheduler::ThreadStatus::kBudget);
}

TEST(ChaosScheduler, SafetyViolationIsCapturedNotSwallowed) {
  fault::FaultPlan plan(2);
  AtomicRegisterArray regs(2);
  const auto out = chaos_run(2, plan, {.seed = 1}, [&](int p) {
    regs.write(static_cast<std::size_t>(p), 1);
    if (p == 1) throw std::logic_error("assertion failed in body");
  });
  EXPECT_EQ(out.status[1], ChaosScheduler::ThreadStatus::kFailed);
  ASSERT_TRUE(out.error);
  EXPECT_THROW(std::rethrow_exception(out.error), std::logic_error);
}

TEST(ChaosScheduler, SoloSurvivorDecidesAfterAllOthersCrash) {
  // The NST property under the harshest crash pattern: every process but
  // one crashes on its first access; the survivor must still decide.
  constexpr int kN = 4;
  fault::FaultPlan plan(kN);
  for (int t = 1; t < kN; ++t) plan.crash(t, 1);
  RtBallotConsensus cons(kN);
  std::vector<std::uint64_t> decided(kN, 0);
  std::vector<char> done(kN, 0);
  const auto out =
      chaos_run(kN, plan, {.seed = 11, .per_thread_budget = 50'000},
                [&](int p) {
                  decided[static_cast<std::size_t>(p)] =
                      cons.propose(p, static_cast<std::uint64_t>(p % 2));
                  done[static_cast<std::size_t>(p)] = 1;
                });
  EXPECT_EQ(out.status[0], ChaosScheduler::ThreadStatus::kDone);
  ASSERT_TRUE(done[0]);
  EXPECT_EQ(decided[0], 0u) << "solo run must decide the survivor's input";
  for (int t = 1; t < kN; ++t) {
    EXPECT_EQ(out.status[static_cast<std::size_t>(t)],
              ChaosScheduler::ThreadStatus::kCrashed);
  }
}

TEST(ChaosScheduler, BakeryStaysExclusiveUnderStalls) {
  constexpr int kN = 3;
  fault::FaultPlan plan(kN);
  plan.stall(0, 4, 300).stall(2, 7, 150);
  RtBakeryMutex mtx(kN);
  std::atomic<int> owner{-1};
  std::atomic<int> entries{0};
  const auto out = chaos_run(kN, plan, {.seed = 21}, [&](int p) {
    for (int i = 0; i < 3; ++i) {
      mtx.lock(p);
      ASSERT_EQ(owner.exchange(p), -1) << "two threads inside the lock";
      fault::interleave();
      ASSERT_EQ(owner.exchange(-1), p);
      entries.fetch_add(1);
      mtx.unlock(p);
    }
  });
  for (int t = 0; t < kN; ++t) {
    EXPECT_EQ(out.status[static_cast<std::size_t>(t)],
              ChaosScheduler::ThreadStatus::kDone);
  }
  EXPECT_EQ(entries.load(), kN * 3);
}

// --- campaign --------------------------------------------------------------

TEST(ChaosCampaign, CleanSweepAcrossAllTargets) {
  chaos::Options opts;
  opts.runs = 60;
  opts.seed = 42;
  opts.n = 3;
  const chaos::Result res = chaos::run_campaign(opts);
  EXPECT_EQ(res.runs, 60);
  EXPECT_EQ(res.violations, 0) << res.first_violation;
  EXPECT_EQ(res.solo_failures, 0) << res.first_violation;
  EXPECT_TRUE(res.ok());
  EXPECT_GT(res.solo_runs, 0) << "campaign should draw some solo scenarios";
}

TEST(ChaosCampaign, CommitAdoptOnlyCampaignIsClean) {
  chaos::Options opts;
  opts.runs = 40;
  opts.seed = 7;
  opts.n = 4;
  opts.targets = {chaos::Target::kCommitAdopt};
  const chaos::Result res = chaos::run_campaign(opts);
  EXPECT_TRUE(res.ok()) << res.first_violation;
}

TEST(ChaosCampaign, MutexStallCampaignIsDeadlockFree) {
  chaos::Options opts;
  opts.runs = 30;
  opts.seed = 13;
  opts.n = 3;
  opts.targets = {chaos::Target::kPeterson, chaos::Target::kTournament,
                  chaos::Target::kBakery};
  opts.allow_crash = false;  // deadlock-freedom assumes crash-free
  const chaos::Result res = chaos::run_campaign(opts);
  EXPECT_TRUE(res.ok()) << res.first_violation;
  EXPECT_EQ(res.timeouts, 0)
      << "a mutex run exhausting its budget means possible deadlock";
}

TEST(ChaosCampaign, ParseTargetsAcceptsNamesAndRejectsUnknown) {
  std::vector<chaos::Target> out;
  EXPECT_TRUE(chaos::parse_targets("all", &out));
  EXPECT_EQ(out.size(), chaos::all_targets().size());
  EXPECT_TRUE(chaos::parse_targets("ballot,commit-adopt,bakery", &out));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out[1], chaos::Target::kCommitAdopt);
  EXPECT_FALSE(chaos::parse_targets("ballot,nope", &out));
}

TEST(ChaosCampaign, SameSeedReplaysByteIdentically) {
  const std::string a = ::testing::TempDir() + "chaos_a.jsonl";
  const std::string b = ::testing::TempDir() + "chaos_b.jsonl";
  chaos::Options opts;
  opts.runs = 25;
  opts.seed = 99;
  opts.n = 4;
  for (const std::string& path : {a, b}) {
    ASSERT_TRUE(obs::chaos_sink().open(path));
    chaos::run_campaign(opts);
    obs::chaos_sink().close();
  }
  const std::string ra = slurp(a);
  const std::string rb = slurp(b);
  ASSERT_FALSE(ra.empty());
  // The whole point of the seeded cooperative scheduler: per-run records
  // carry no timestamps and every scheduling decision is a pure function
  // of the seed, so two identical campaigns produce identical bytes.
  EXPECT_EQ(ra, rb);
}

TEST(ChaosCampaign, SingleRunReplaysStandaloneFromItsSeed) {
  const std::string whole = ::testing::TempDir() + "chaos_whole.jsonl";
  const std::string one = ::testing::TempDir() + "chaos_one.jsonl";
  chaos::Options opts;
  opts.runs = 10;
  opts.seed = 500;
  opts.n = 3;
  ASSERT_TRUE(obs::chaos_sink().open(whole));
  chaos::run_campaign(opts);
  obs::chaos_sink().close();

  // Re-run just campaign run #6 as a 1-run campaign seeded at 506.
  chaos::Options single = opts;
  single.runs = 1;
  single.seed = 506;
  ASSERT_TRUE(obs::chaos_sink().open(one));
  chaos::run_campaign(single);
  obs::chaos_sink().close();

  std::istringstream lines(slurp(whole));
  std::string line, want;
  for (int i = 0; i <= 6 && std::getline(lines, line); ++i) want = line;
  std::istringstream got_lines(slurp(one));
  std::string got;
  ASSERT_TRUE(std::getline(got_lines, got));
  // Identical except the run index (0 in the standalone replay).
  const auto strip_run = [](std::string s) {
    const auto pos = s.find("\"run\":");
    const auto comma = s.find(',', pos);
    return s.erase(pos, comma - pos);
  };
  EXPECT_EQ(strip_run(got), strip_run(want));
}

}  // namespace
}  // namespace tsb::rt

namespace tsb::sim {
namespace {

TEST(Explorer, MemBudgetTruncatesWithDistinctStatus) {
  test::ToyProtocol proto(3);
  const Config root = initial_config(proto, {1, 2, 3});
  Explorer explorer(proto, {.limits = {.max_bytes = 1}});
  EXPECT_THROW(explorer.explore(root, ProcSet::first_n(3),
                                [](const ConfigView&) { return true; }),
               util::BudgetExhausted);
}

TEST(Explorer, DeadlineInThePastTruncatesWithDistinctStatus) {
  test::ToyProtocol proto(3);
  const Config root = initial_config(proto, {1, 2, 3});
  Explorer explorer(
      proto, {.limits = {.deadline = std::chrono::steady_clock::now() -
                                     std::chrono::seconds(1)}});
  EXPECT_THROW(explorer.explore(root, ProcSet::first_n(3),
                                [](const ConfigView&) { return true; }),
               util::BudgetExhausted);
}

TEST(Explorer, UnbudgetedRunIsUnaffected) {
  test::ToyProtocol proto(2);
  const Config root = initial_config(proto, {3, 4});
  Explorer explorer(proto);
  ExploreResult res;
  EXPECT_NO_THROW(res = explorer.explore(
                      root, ProcSet::first_n(2),
                      [](const ConfigView&) { return true; }));
  EXPECT_FALSE(res.truncated);
  EXPECT_GT(res.visited, 1u);
}

}  // namespace
}  // namespace tsb::sim

namespace tsb::bound {
namespace {

TEST(Adversary, MemBudgetYieldsDistinctCleanOutcome) {
  // Every backend x budget cell ends in the same clean outcome: a memory
  // budget of one byte trips at the first check, and a 1 ms wall-clock
  // budget trips a few hundred steps into a construction that takes far
  // longer. The error names the engine that tripped and carries the
  // ledger's attribution.
  consensus::BallotConsensus proto(4, 8);
  for (const bool reuse : {true, false}) {
    for (const bool memory : {true, false}) {
      SCOPED_TRACE(std::string(reuse ? "reuse" : "no-reuse") + " x " +
                   (memory ? "memory" : "time"));
      SpaceBoundAdversary::Options opts;
      opts.reuse = reuse;
      if (memory) {
        opts.valency_max_arena_bytes = 1;
      } else {
        opts.valency_time_budget_ms = 1;
      }
      const auto res = SpaceBoundAdversary(proto, opts).run();
      EXPECT_FALSE(res.ok);
      EXPECT_TRUE(res.budget_exhausted) << res.error;
      EXPECT_NE(res.error.find(reuse ? "reach graph" : "explorer"),
                std::string::npos)
          << res.error;
      EXPECT_NE(res.error.find(memory ? "memory budget" : "wall-clock budget"),
                std::string::npos)
          << res.error;
      EXPECT_NE(res.error.find("ledger:"), std::string::npos) << res.error;
    }
  }
}

TEST(Adversary, MebibyteBudgetAdmitsTheThreeProcessConstruction) {
  // The ledger charges the records a store has admitted, not the ~4 MiB
  // segments it allocates for them: the n = 3 construction (a few hundred
  // configurations) fits a 1 MiB budget on both backends.
  consensus::BallotConsensus proto(3, 6);
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse" : "no-reuse");
    SpaceBoundAdversary::Options opts;
    opts.reuse = reuse;
    opts.valency_max_arena_bytes = 1u << 20;
    const auto res = SpaceBoundAdversary(proto, opts).run();
    EXPECT_TRUE(res.ok) << res.error;
    EXPECT_FALSE(res.budget_exhausted) << res.error;
    EXPECT_TRUE(res.check.ok);
    EXPECT_EQ(res.check.distinct_registers, 2);
  }
}

TEST(Adversary, UnbudgetedRunStillSucceeds) {
  consensus::BallotConsensus proto(3, 6);
  SpaceBoundAdversary adversary(proto, {});
  const auto res = adversary.run();
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.budget_exhausted);
}

}  // namespace
}  // namespace tsb::bound

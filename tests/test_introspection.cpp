// In-flight introspection: memory ledger, sampling profiler, flight
// recorder — and the end-to-end budget-exhaustion story the pieces exist
// for (a run killed by --mem-budget must leave a ledger attribution and a
// flight dump an operator can read).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "obs/obs.hpp"
#include "report.hpp"

namespace tsb {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

// --- memory ledger ---------------------------------------------------------

TEST(MemLedger, SetGetTotalAndPeak) {
  obs::MemLedger ledger;
  EXPECT_EQ(ledger.total(), 0u);
  ledger.set(obs::MemAccount::kArenaWords, 1024);
  ledger.set(obs::MemAccount::kReachEdges, 2048);
  EXPECT_EQ(ledger.get(obs::MemAccount::kArenaWords), 1024u);
  EXPECT_EQ(ledger.total(), 3072u);
  // Shrinking a gauge lowers total but never the watermark.
  ledger.set(obs::MemAccount::kReachEdges, 512);
  EXPECT_EQ(ledger.total(), 1536u);
  EXPECT_EQ(ledger.peak(obs::MemAccount::kReachEdges), 2048u);
  EXPECT_EQ(ledger.peak_total(), 3072u);
  ledger.reset();
  EXPECT_EQ(ledger.total(), 0u);
  EXPECT_EQ(ledger.peak_total(), 0u);
}

TEST(MemLedger, AttributionNamesTopAccounts) {
  obs::MemLedger ledger;
  EXPECT_EQ(ledger.attribution(3), "no tracked allocations");
  ledger.set(obs::MemAccount::kReachNodes, 3 << 20);
  ledger.set(obs::MemAccount::kValencyMemo, 1 << 20);
  const std::string attr = ledger.attribution(2);
  EXPECT_NE(attr.find("reach.nodes"), std::string::npos);
  EXPECT_NE(attr.find("valency.memo"), std::string::npos);
  EXPECT_NE(attr.find("75%"), std::string::npos);
}

TEST(MemLedger, JsonRoundTripsThroughReportParser) {
  obs::MemLedger ledger;
  ledger.set(obs::MemAccount::kArenaTable, 4096);
  report::JsonValue v;
  ASSERT_TRUE(report::parse_json(ledger.json(), v));
  EXPECT_EQ(v.int_or("arena.table", 0), 4096);
}

TEST(MemLedger, RenderShowsSharesAndPeaks) {
  obs::MemLedger ledger;
  ledger.set(obs::MemAccount::kExploreFrontier, 1 << 20);
  std::ostringstream out;
  ledger.render(out);
  EXPECT_NE(out.str().find("explore.frontier"), std::string::npos);
  EXPECT_NE(out.str().find("100.0%"), std::string::npos);
}

// --- sampling profiler -----------------------------------------------------

TEST(Profiler, SamplesAttributeToSpanLabels) {
  obs::Profiler& prof = obs::Profiler::global();
  ASSERT_TRUE(prof.start(500));
  EXPECT_TRUE(obs::profiler_enabled());
  {
    obs::Span span("introspection.spin");
    // Busy-burn enough cpu for SIGPROF to fire a few times at 500 Hz.
    volatile std::uint64_t sink = 0;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(120);
    while (std::chrono::steady_clock::now() < until) {
      for (int i = 0; i < 1000; ++i) sink += static_cast<std::uint64_t>(i);
    }
  }
  prof.stop();
  EXPECT_FALSE(obs::profiler_enabled());
  EXPECT_GT(prof.cpu_samples() + prof.wall_samples(), 0u);

  const auto stats = prof.aggregate();
  bool found = false;
  for (const auto& row : stats) {
    if (row.label == "introspection.spin") {
      found = true;
      EXPECT_GT(row.cpu_self + row.wall_self, 0u);
      EXPECT_GE(row.cpu_total, row.cpu_self);
    }
  }
  EXPECT_TRUE(found) << "span label never sampled";

  std::ostringstream out;
  prof.render(out);
  EXPECT_NE(out.str().find("introspection.spin"), std::string::npos);
}

// --- flight recorder -------------------------------------------------------
//
// Rings are created per thread at first record with the then-current
// capacity and are never freed, so these tests run in definition order:
// the wrap test goes first (its spawned thread gets a 16-slot ring before
// any larger capacity is configured).

TEST(Flight, RingOverwritesOldestWhenFull) {
  obs::flight::enable(/*ring_events=*/16);
  // Record from a fresh thread so this test owns the ring it asserts on.
  std::thread writer([] {
    for (int i = 0; i < 100; ++i) {
      obs::flight::record(obs::flight::Ev::kBudgetCheck, 1000 + i, 0);
    }
  });
  writer.join();
  const std::string path = temp_path("flight_ring.jsonl");
  ASSERT_TRUE(obs::flight::dump(path, "wrap"));
  obs::flight::disable();
  // Only the last ring_events survive; the dump stays bounded.
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("\"a\":1000,"), std::string::npos);
  EXPECT_NE(text.find("\"a\":1099"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Flight, RecordsFromTwoThreadsAndDumpsParseableJsonl) {
  obs::flight::enable(/*ring_events=*/256);
  const std::uint64_t before = obs::flight::events_recorded();
  obs::flight::record(obs::flight::Ev::kPhase, 1);
  std::thread other([] {
    for (int i = 0; i < 10; ++i) {
      obs::flight::record(obs::flight::Ev::kValencyQuery, i, i % 2);
    }
  });
  other.join();
  EXPECT_GE(obs::flight::events_recorded(), before + 11);

  const std::string path = temp_path("flight_two_threads.jsonl");
  ASSERT_TRUE(obs::flight::dump(path, "test"));
  obs::flight::disable();

  report::RunReport rep;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) rep.ingest_line(line);
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 0u);
  EXPECT_GE(rep.flight_events(), 11u);
  EXPECT_EQ(rep.flight_dump_reason(), "test");
  std::remove(path.c_str());
}

TEST(Flight, Sigusr1RequestsDumpServicedByHeartbeat) {
  obs::flight::enable(/*ring_events=*/64);
  const std::string path = temp_path("flight_usr1.jsonl");
  obs::flight::set_dump_path(path);
  obs::flight::install_signal_handlers();
  obs::flight::record(obs::flight::Ev::kLevel, 7, 42);

  ASSERT_EQ(raise(SIGUSR1), 0);
  // The handler only sets a flag; the next Heartbeat::beat (or a direct
  // service call) performs the dump from a safe context.
  EXPECT_TRUE(obs::flight::service_dump_request());
  EXPECT_FALSE(obs::flight::service_dump_request());  // one-shot
  obs::flight::disable();

  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"reason\":\"sigusr1\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"level\""), std::string::npos);
  std::remove(path.c_str());
}

// --- end-to-end: budget exhaustion leaves a full forensic trail ------------

TEST(BudgetExhaustion, LedgerAttributesAndFlightDumpReplays) {
  obs::MemLedger::global().reset();
  obs::flight::enable(/*ring_events=*/4096);

  consensus::BallotConsensus proto(4, 8);
  bound::SpaceBoundAdversary::Options opts;
  opts.valency_max_arena_bytes = 200 << 10;  // trips partway into lemma4
  bound::SpaceBoundAdversary adversary(proto, opts);
  const auto result = adversary.run();
  ASSERT_TRUE(result.budget_exhausted) << result.error;

  // The BudgetExhausted message itself carries the ledger attribution.
  EXPECT_NE(result.error.find("ledger:"), std::string::npos);
  EXPECT_NE(result.error.find("reach."), std::string::npos);

  // The tracked total attributes the engine's memory to named subsystems:
  // everything the reach graph counts against its own budget is in the
  // ledger (the >= 95% acceptance bar, met by construction).
  obs::MemLedger& ledger = obs::MemLedger::global();
  EXPECT_GE(ledger.total(), 200u << 10);
  const std::size_t graph_accounts =
      ledger.get(obs::MemAccount::kReachNodes) +
      ledger.get(obs::MemAccount::kReachEdges) +
      ledger.get(obs::MemAccount::kReachFacts) +
      ledger.get(obs::MemAccount::kReachQuery) +
      ledger.get(obs::MemAccount::kValencyMemo);
  EXPECT_GE(graph_accounts, ledger.total() * 95 / 100);

  // The flight dump replays the run's last moments coherently: phases in
  // construction order, budget checks, and a final trip.
  const std::string path = temp_path("flight_budget.jsonl");
  ASSERT_TRUE(obs::flight::dump(path, "budget"));
  obs::flight::disable();

  report::RunReport rep;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) rep.ingest_line(line);
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 0u);
  EXPECT_GT(rep.flight_events(), 0u);
  EXPECT_EQ(rep.flight_dump_reason(), "budget");
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"ev\":\"phase\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"budget.check\""), std::string::npos);
  EXPECT_NE(text.find("\"ev\":\"budget.trip\""), std::string::npos);

  std::ostringstream rendered;
  rep.render_text(rendered, 5);
  EXPECT_NE(rendered.str().find("flight recorder"), std::string::npos);
  EXPECT_NE(rendered.str().find("budget.trip"), std::string::npos);
  std::remove(path.c_str());
  ledger.reset();
}

// --- out-of-core runs keep the forensic story intact -----------------------

TEST(SpillIntrospection, SpillBytesGetTheirOwnAccountsAndFlightEvents) {
  obs::MemLedger::global().reset();
  obs::flight::enable(/*ring_events=*/4096);

  // Tiny threshold + tiny segments: a small campaign must go out of core.
  consensus::BallotConsensus proto(4, 8);
  bound::SpaceBoundAdversary::Options opts;
  opts.spill_dir = ::testing::TempDir();
  opts.spill_threshold_bytes = 32 << 10;
  opts.spill_seg_configs = 64;
  bound::SpaceBoundAdversary adversary(proto, opts);
  const auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.check.ok) << "spilling changed the certificate";

  // Disk-resident and mmap-resident bytes are first-class accounts, not
  // folded into arena.words: an operator reading the ledger can tell RAM
  // from spill file from page cache.
  obs::MemLedger& ledger = obs::MemLedger::global();
  EXPECT_GT(ledger.peak(obs::MemAccount::kArenaSpill), 0u)
      << "the campaign never spilled — threshold/segment hint miscalibrated";
  EXPECT_GT(ledger.peak(obs::MemAccount::kGraphSpill), 0u)
      << "the edge stores never spilled — threshold/segment hint "
         "miscalibrated";
  EXPECT_EQ(obs::mem_account_name(obs::MemAccount::kArenaSpill),
            std::string("arena.spill"));
  EXPECT_EQ(obs::mem_account_name(obs::MemAccount::kArenaMapped),
            std::string("arena.mapped"));
  EXPECT_EQ(obs::mem_account_name(obs::MemAccount::kGraphSpill),
            std::string("graph.spill"));
  EXPECT_EQ(obs::mem_account_name(obs::MemAccount::kGraphMapped),
            std::string("graph.mapped"));

  // The attribution bar survives going out of core: named accounts
  // (including the spill accounts) still cover >= 95% of tracked bytes.
  const std::size_t named =
      ledger.get(obs::MemAccount::kReachNodes) +
      ledger.get(obs::MemAccount::kReachEdges) +
      ledger.get(obs::MemAccount::kReachFacts) +
      ledger.get(obs::MemAccount::kReachQuery) +
      ledger.get(obs::MemAccount::kValencyMemo) +
      ledger.get(obs::MemAccount::kArenaSpill) +
      ledger.get(obs::MemAccount::kArenaMapped) +
      ledger.get(obs::MemAccount::kGraphSpill) +
      ledger.get(obs::MemAccount::kGraphMapped);
  EXPECT_GE(named, ledger.total() * 95 / 100);

  // Every spill left a flight-recorder breadcrumb an operator can replay.
  const std::string path = temp_path("flight_spill.jsonl");
  ASSERT_TRUE(obs::flight::dump(path, "spill"));
  obs::flight::disable();
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"ev\":\"spill\""), std::string::npos);

  report::RunReport rep;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) rep.ingest_line(line);
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 0u);
  std::remove(path.c_str());
  ledger.reset();
}

}  // namespace
}  // namespace tsb

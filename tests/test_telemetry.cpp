// Campaign telemetry: the heartbeat ticks in the stats stream, the anomaly
// watchdog's episode semantics on synthetic timelines, the Timeline parser
// (including crash-truncated files and the stream's other record types),
// the cross-run comparator, and the end-to-end story: an adversary run's
// one stats file must agree with its own exit state and certificate.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "obs/obs.hpp"
#include "report.hpp"

namespace tsb {
namespace {

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- watchdog rules on synthetic timelines ---------------------------------

obs::WatchSample sample(std::uint64_t tick, double cps,
                        const char* phase = "explore") {
  obs::WatchSample s;
  s.tick = tick;
  s.t_s = static_cast<double>(tick);
  s.phase = phase;
  s.visited = static_cast<std::int64_t>(1000 * (tick + 1));
  s.frontier = 100;
  s.cps = cps;
  return s;
}

TEST(Watchdog, QuietTimelineFiresNothing) {
  obs::Watchdog dog;
  for (std::uint64_t t = 0; t < 64; ++t) {
    EXPECT_TRUE(dog.observe(sample(t, 1000.0 + (t % 7))).empty());
  }
  for (int r = 0; r < obs::kWatchRules; ++r) {
    EXPECT_EQ(dog.fires(static_cast<obs::WatchRule>(r)), 0u);
    EXPECT_FALSE(dog.active(static_cast<obs::WatchRule>(r)));
  }
}

TEST(Watchdog, CollapseFiresOncePerEpisodeAndClears) {
  obs::Watchdog dog;
  std::uint64_t t = 0;
  for (; t < 8; ++t) dog.observe(sample(t, 1000.0));
  // Episode 1: rate falls to 5% of the median and stays there.
  std::vector<obs::WatchAlert> fired = dog.observe(sample(t++, 50.0));
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].rule, obs::WatchRule::kThroughputCollapse);
  EXPECT_TRUE(dog.active(obs::WatchRule::kThroughputCollapse));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(dog.observe(sample(t++, 50.0)).empty()) << "latched, no refire";
  }
  // Recovery clears the episode...
  bool cleared = false;
  for (int i = 0; i < 16 && !cleared; ++i) {
    dog.observe(sample(t++, 1000.0));
    cleared = !dog.active(obs::WatchRule::kThroughputCollapse);
  }
  EXPECT_TRUE(cleared);
  // ...and a second collapse is a second episode.
  while (dog.fires(obs::WatchRule::kThroughputCollapse) < 2) {
    const auto alerts = dog.observe(sample(t++, 50.0));
    if (!alerts.empty()) break;
    ASSERT_LT(t, 200u) << "second episode never fired";
  }
  EXPECT_EQ(dog.fires(obs::WatchRule::kThroughputCollapse), 2u);
}

TEST(Watchdog, PhaseChangeResetsTheWindow) {
  obs::Watchdog dog;
  std::uint64_t t = 0;
  for (; t < 8; ++t) dog.observe(sample(t, 1'000'000.0, "explore"));
  // lemma4 is legitimately 100x slower; a fresh phase must not inherit
  // explore's median.
  EXPECT_TRUE(dog.observe(sample(t++, 10'000.0, "lemma4")).empty());
  EXPECT_FALSE(dog.active(obs::WatchRule::kThroughputCollapse));
}

TEST(Watchdog, SpillThrashNeedsChurnAndFlatVisited) {
  obs::Watchdog dog;
  std::uint64_t t = 0;
  auto thrash_sample = [&](std::uint64_t mapped, std::int64_t visited) {
    obs::WatchSample s;
    s.tick = t;
    s.t_s = static_cast<double>(t);
    s.phase = "explore";
    s.visited = visited;
    s.frontier = 100;
    s.mapped_bytes = mapped;
    ++t;
    return s;
  };
  // Mapped bytes oscillate hard while visited barely moves: classic
  // map/unmap churn doing no useful work.
  std::uint64_t fires = 0;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t mapped = (i % 2) == 0 ? 1'000'000 : 10'000;
    fires += dog.observe(thrash_sample(mapped, 500'000 + i)).size();
  }
  EXPECT_EQ(dog.fires(obs::WatchRule::kSpillThrash), 1u);
  EXPECT_EQ(fires, 1u);

  // Same churn with healthy visited growth is a legitimate working set
  // cycling through memory — no alert.
  obs::Watchdog dog2;
  t = 0;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t mapped = (i % 2) == 0 ? 1'000'000 : 10'000;
    dog2.observe(thrash_sample(mapped, 500'000 + 100'000 * i));
  }
  EXPECT_EQ(dog2.fires(obs::WatchRule::kSpillThrash), 0u);
}

TEST(Watchdog, LedgerRunawayProjectsExitEta) {
  obs::Watchdog dog;
  auto mem_sample = [](std::uint64_t tick, std::uint64_t total,
                       std::uint64_t budget) {
    obs::WatchSample s;
    s.tick = tick;
    s.t_s = static_cast<double>(tick);
    s.phase = "explore";
    s.ledger_total = total;
    s.mem_budget = budget;
    return s;
  };
  // Growing 100 MB/s toward a 1 GB budget: ~8 s to exit 4, inside the 60 s
  // alert horizon.
  const std::uint64_t kBudget = 1'000'000'000;
  std::uint64_t fires = 0;
  for (std::uint64_t t = 0; t < 4; ++t) {
    fires +=
        dog.observe(mem_sample(t, 100'000'000 * (t + 1), kBudget)).size();
  }
  EXPECT_EQ(dog.fires(obs::WatchRule::kLedgerRunaway), 1u);
  EXPECT_EQ(fires, 1u);

  // Without a budget the rule is disarmed no matter the growth.
  obs::Watchdog dog2;
  for (std::uint64_t t = 0; t < 4; ++t) {
    dog2.observe(mem_sample(t, 100'000'000 * (t + 1), 0));
  }
  EXPECT_EQ(dog2.fires(obs::WatchRule::kLedgerRunaway), 0u);
}

// --- sampler round trip ----------------------------------------------------

// Open the stats stream the way the CLI does for a run command.
void open_stream(const std::string& path) {
  ASSERT_TRUE(obs::stats_sink().open(path));
  obs::telemetry::reset();
}

TEST(Telemetry, RoundTripPreservesCountersAndTickIds) {
  const std::string path = temp_path("roundtrip.jsonl");
  obs::Registry::global().reset();
  obs::Registry::global().counter("test.alpha").add(7);
  obs::Registry::global().counter("test.beta").add(123);
  open_stream(path);
  for (int i = 0; i < 5; ++i) {
    obs::Sample s;
    s.phase = "explore";
    s.visited = 1000 * (i + 1);
    s.frontier = 50 - i;
    obs::Registry::global().counter("test.alpha").add(1);
    obs::telemetry::tick(s);
  }
  EXPECT_EQ(obs::telemetry::ticks(), 5u);
  obs::stats_sink().close();
  obs::telemetry::tick(obs::Sample{});  // stream closed: a no-op
  EXPECT_EQ(obs::telemetry::ticks(), 5u);

  report::Timeline tl;
  std::string err;
  ASSERT_TRUE(tl.load(path, &err)) << err;
  ASSERT_EQ(tl.ticks().size(), 5u);
  EXPECT_TRUE(tl.monotonic());
  EXPECT_EQ(tl.malformed(), 0u);
  for (std::size_t i = 0; i < 5; ++i) {
    const report::TimelineTick& t = tl.ticks()[i];
    EXPECT_EQ(t.tick, static_cast<std::int64_t>(i));
    EXPECT_EQ(t.phase, "explore");
    EXPECT_EQ(t.visited, static_cast<std::int64_t>(1000 * (i + 1)));
    EXPECT_EQ(t.frontier, static_cast<std::int64_t>(50 - i));
    // Counters are cumulative and exact: alpha bumps once per tick.
    ASSERT_TRUE(t.counters.count("test.alpha"));
    EXPECT_EQ(t.counters.at("test.alpha"),
              static_cast<std::int64_t>(8 + i));
    ASSERT_TRUE(t.counters.count("test.beta"));
    EXPECT_EQ(t.counters.at("test.beta"), 123);
  }
  std::remove(path.c_str());
  obs::Registry::global().reset();
}

TEST(Telemetry, ReopenResetsTickCounterAndWatchdog) {
  const std::string path = temp_path("reopen.jsonl");
  open_stream(path);
  obs::Sample s;
  s.phase = "explore";
  obs::telemetry::tick(s);
  obs::telemetry::tick(s);
  EXPECT_EQ(obs::telemetry::ticks(), 2u);
  // Latch an episode on the global watchdog, as a collapsing run would.
  obs::Watchdog& dog = obs::Watchdog::global();
  for (std::uint64_t t = 0; t < 8; ++t) dog.observe(sample(t, 1000.0));
  dog.observe(sample(8, 50.0));
  ASSERT_TRUE(dog.active(obs::WatchRule::kThroughputCollapse));

  open_stream(path);  // a file is one run
  EXPECT_EQ(obs::telemetry::ticks(), 0u);
  EXPECT_FALSE(dog.active(obs::WatchRule::kThroughputCollapse));
  obs::stats_sink().close();
  std::remove(path.c_str());
}

TEST(Telemetry, TicksCarryDeadlineAndFlightEventsOnlyWhenConfigured) {
  const std::string path = temp_path("fields.jsonl");
  open_stream(path);
  obs::Sample s;
  s.phase = "explore";
  obs::telemetry::tick(s);  // no time budget, no flight recorder
  obs::telemetry::set_budgets(0, 60'000);
  obs::flight::enable();
  obs::flight::record(obs::flight::Ev::kLevel, 1, 2);
  obs::telemetry::tick(s);
  obs::flight::disable();
  obs::telemetry::set_budgets(0, 0);
  obs::stats_sink().close();

  report::Timeline tl;
  std::string err;
  ASSERT_TRUE(tl.load(path, &err)) << err;
  ASSERT_EQ(tl.ticks().size(), 2u);
  EXPECT_LT(tl.ticks()[0].deadline_s, 0.0);
  EXPECT_LT(tl.ticks()[0].flight_events, 0);
  EXPECT_GT(tl.ticks()[1].deadline_s, 0.0);
  EXPECT_LE(tl.ticks()[1].deadline_s, 60.0);
  EXPECT_GE(tl.ticks()[1].flight_events, 1);
  std::remove(path.c_str());
}

TEST(Timeline, ToleratesTruncatedFinalLine) {
  const std::string path = temp_path("truncated.jsonl");
  open_stream(path);
  for (int i = 0; i < 3; ++i) {
    obs::Sample s;
    s.phase = "explore";
    s.visited = 100 * (i + 1);
    obs::telemetry::tick(s);
  }
  obs::stats_sink().close();

  // Simulate a kill -9 mid-append: chop the file mid last record.
  std::string text = slurp(path);
  ASSERT_GT(text.size(), 40u);
  text.resize(text.size() - 25);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
  }
  report::Timeline tl;
  std::string err;
  ASSERT_TRUE(tl.load(path, &err)) << err;
  EXPECT_EQ(tl.ticks().size(), 2u) << "torn tail dropped, prefix kept";
  EXPECT_EQ(tl.malformed(), 1u);
  EXPECT_TRUE(tl.monotonic());
  std::remove(path.c_str());
}

TEST(Timeline, ActiveAlertsTracksLatchedEpisodes) {
  report::Timeline tl;
  tl.ingest_line(
      R"({"type":"watch.alert","rule":"spill_thrash","tick":4,"t_s":4.0,)"
      R"("phase":"explore","detail":"churn"})");
  tl.ingest_line(
      R"({"type":"watch.alert","rule":"ledger_runaway","tick":5,"t_s":5.0,)"
      R"("phase":"explore","detail":"eta 12s"})");
  tl.ingest_line(
      R"({"type":"watch.clear","rule":"spill_thrash","tick":7,"t_s":7.0})");
  const std::vector<std::string> active = tl.active_alerts();
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], "ledger_runaway");
  EXPECT_EQ(tl.alerts().size(), 3u);
}

TEST(Timeline, SkipsTheStreamsOtherRecordTypes) {
  report::Timeline tl;
  tl.ingest_line(R"({"type":"explore.level","level":0,"frontier":1})");
  tl.ingest_line(R"({"type":"lemma4.enter","ts_ns":12,"stage":0})");
  tl.ingest_line(R"({"type":"ledger","total":4096})");
  tl.ingest_line(R"({"type":"telemetry.tick","tick":0,"t_s":1.0,)"
                 R"("phase":"explore"})");
  EXPECT_EQ(tl.ticks().size(), 1u);
  EXPECT_EQ(tl.malformed(), 0u) << "other record types are not malformed";
  tl.ingest_line("{\"type\":");  // only an unparseable line is
  EXPECT_EQ(tl.malformed(), 1u);
}

// --- sparkline -------------------------------------------------------------

TEST(Sparkline, ScalesAndDownsamples) {
  EXPECT_EQ(report::sparkline({}, 4), "    ");
  const std::string flat = report::sparkline({5, 5, 5, 5}, 4);
  EXPECT_EQ(flat, "▁▁▁▁");
  const std::string ramp = report::sparkline({0, 1, 2, 3, 4, 5, 6, 7}, 8);
  EXPECT_EQ(ramp, "▁▂▃▄▅▆▇█");
  // 16 points into 8 cells: still monotone after averaging pairs.
  std::vector<double> xs;
  for (int i = 0; i < 16; ++i) xs.push_back(i);
  const std::string wide = report::sparkline(xs, 8);
  EXPECT_EQ(wide, "▁▂▃▄▅▆▇█");
  // Non-finite samples (a hostile file's 1e999) still render a full row.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(report::sparkline({0, inf, 1}, 3), "▁▁▁");
}

// --- comparator ------------------------------------------------------------

// A stats file as a run writes it: telemetry ticks interleaved with the
// stream's other records, which the comparator must skip.
void write_timeline(const std::string& path, double cps_scale,
                    double wall_scale) {
  std::ofstream out(path, std::ios::trunc);
  out << R"({"type":"adversary.begin","ts_ns":1,"n":4})" << "\n";
  for (int i = 0; i < 10; ++i) {
    out << R"({"type":"explore.level","level":)" << i
        << R"(,"frontier":100})" << "\n";
    out << R"({"type":"telemetry.tick","tick":)" << i
        << R"(,"t_s":)" << (0.5 * (i + 1) * wall_scale)
        << R"(,"phase":"explore","visited":)" << (1000 * (i + 1))
        << R"(,"cps":)" << (2000.0 * cps_scale)
        << R"(,"peak_rss_kb":1024,"ledger_total":4096,"ledger":{},)"
        << R"("counters":{}})" << "\n";
  }
}

TEST(CompareTimelines, IdenticalFilesPassInjectedSlowdownFails) {
  const std::string a = temp_path("cmp_a.jsonl");
  const std::string b = temp_path("cmp_b.jsonl");
  write_timeline(a, 1.0, 1.0);
  write_timeline(b, 1.0, 1.0);
  std::ostringstream out;
  EXPECT_EQ(report::compare_timelines(a, b, 25.0, out), 0) << out.str();

  // B at 40% of A's throughput and 1.5x the wall time: both gates trip.
  write_timeline(b, 0.4, 1.5);
  std::ostringstream out2;
  EXPECT_EQ(report::compare_timelines(a, b, 25.0, out2), 1);
  EXPECT_NE(out2.str().find("REGRESSED"), std::string::npos);

  // The same slowdown passes a 90% tolerance.
  std::ostringstream out3;
  EXPECT_EQ(report::compare_timelines(a, b, 90.0, out3), 0) << out3.str();
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CompareTimelines, MissingOrEmptyFileIsUsage) {
  const std::string a = temp_path("cmp_present.jsonl");
  write_timeline(a, 1.0, 1.0);
  std::ostringstream out;
  EXPECT_EQ(report::compare_timelines(a, temp_path("cmp_absent.jsonl"), 25.0,
                                      out),
            2);
  const std::string empty = temp_path("cmp_empty.jsonl");
  { std::ofstream touch(empty); }
  std::ostringstream out2;
  EXPECT_EQ(report::compare_timelines(a, empty, 25.0, out2), 2);
  std::remove(a.c_str());
  std::remove(empty.c_str());
}

// --- report ingestion ------------------------------------------------------

TEST(RunReport, CountsTelemetryRecords) {
  report::RunReport rep;
  rep.ingest_line(
      R"({"type":"telemetry.tick","tick":0,"t_s":1.0,"phase":"explore"})");
  rep.ingest_line(
      R"({"type":"telemetry.tick","tick":1,"t_s":2.0,"phase":"explore"})");
  rep.ingest_line(
      R"({"type":"watch.alert","rule":"spill_thrash","tick":1,)"
      R"("t_s":2.0,"phase":"explore","detail":"churn"})");
  rep.finalize();
  EXPECT_EQ(rep.telemetry_ticks(), 2u);
  EXPECT_EQ(rep.watch_alerts(), 1u);
  EXPECT_EQ(rep.lines_malformed(), 0u);
  std::ostringstream out;
  rep.render_text(out, 5);
  EXPECT_NE(out.str().find("spill_thrash"), std::string::npos);
}

// --- end to end ------------------------------------------------------------

TEST(TelemetryEndToEnd, AdversaryTimelineMatchesExitState) {
  const std::string path = temp_path("e2e.jsonl");
  obs::MemLedger::global().reset();
  open_stream(path);
  // Fast cadence so even a sub-second n=4 construction lands ticks.
  const auto saved = obs::progress_interval();
  obs::set_progress_interval(std::chrono::milliseconds(1));

  consensus::BallotConsensus proto(4, 8);
  bound::SpaceBoundAdversary adversary(proto, {});
  const auto result = adversary.run();
  ASSERT_TRUE(result.ok) << result.error;

  // The final tick is the CLI's job; mirror it here so the tail of the
  // file reflects the run's exit state.
  obs::Sample last;
  last.phase = "done";
  obs::telemetry::tick(last);
  obs::stats_sink().close();
  obs::set_progress_interval(saved);

  report::Timeline tl;
  std::string err;
  ASSERT_TRUE(tl.load(path, &err)) << err;
  ASSERT_GE(tl.ticks().size(), 1u);
  EXPECT_TRUE(tl.monotonic()) << "tick ids must strictly increase";
  EXPECT_EQ(tl.malformed(), 0u);
  const report::TimelineTick& final_tick = tl.ticks().back();
  EXPECT_EQ(final_tick.phase, "done");
  // Nothing allocates between the construction's end and the final tick:
  // the timeline's last ledger totals are the exit report's.
  EXPECT_EQ(final_tick.ledger_total,
            static_cast<std::int64_t>(obs::MemLedger::global().total()));
  std::int64_t accounted = 0;
  for (const auto& [name, bytes] : final_tick.ledger) accounted += bytes;
  EXPECT_EQ(accounted, final_tick.ledger_total)
      << "per-account breakdown must sum to the total";

  // The same file carries the decision trail: the report finds the
  // certificate and agrees with it.
  std::ostringstream rendered;
  EXPECT_EQ(report::analyze_files({path}, 5, "", rendered), 0);
  EXPECT_NE(rendered.str().find("\"consistent\":true"), std::string::npos)
      << rendered.str();
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"type\":\"certificate\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"lemma4."), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsb

// Campaign telemetry: the heartbeat ticks in the stats stream, the alert
// rules RunReport derives from them (episode semantics on synthetic
// timelines), RunReport's tick parsing (including crash-truncated files,
// the stream's other record types and legacy watch.* records) and its
// telemetry section, the cross-run comparator, and
// the end-to-end story: an adversary run's one stats file must agree with
// its own exit state and certificate.
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

// --- alert rules on synthetic timelines -----------------------------------
//
// The rules run in RunReport::finalize() over the ticks of a stats file. The
// expected fire/clear ticks and details are the ones the in-process
// watchdog produced on the same timelines before the rules moved to the
// reader.

// One telemetry.tick line as the sampler writes it (ts_ns = tick seconds);
// fields at their "unknown" value are omitted, like the sampler does.
struct TickSpec {
  std::uint64_t tick = 0;
  std::string phase = "explore";
  std::int64_t visited = -1;
  std::int64_t frontier = -1;
  double cps = -1.0;
  std::int64_t mapped = 0;  ///< ledger arena.mapped
  std::int64_t total = 0;   ///< ledger_total
  std::int64_t mem_budget = 0;
  std::int64_t ckpt_age_s = -1;  ///< with ckpt_interval_ms; -1 = no dir
  std::int64_t ckpt_interval_ms = 0;
};

std::string tick_line(const TickSpec& t) {
  std::ostringstream o;
  o << R"({"type":"telemetry.tick","ts_ns":)" << t.tick * 1'000'000'000
    << R"(,"tick":)" << t.tick << R"(,"phase":")" << t.phase << '"';
  if (t.frontier >= 0) o << R"(,"frontier":)" << t.frontier;
  if (t.visited >= 0) o << R"(,"visited":)" << t.visited;
  if (t.cps >= 0) o << R"(,"cps":)" << t.cps;
  if (t.mem_budget != 0) o << R"(,"mem_budget":)" << t.mem_budget;
  if (t.ckpt_age_s >= 0) {
    o << R"(,"ckpt_age_s":)" << t.ckpt_age_s << R"(,"ckpt_interval_ms":)"
      << t.ckpt_interval_ms;
  }
  o << R"(,"peak_rss_kb":1024,"ledger_total":)" << t.total
    << R"(,"ledger":{"arena.mapped":)" << t.mapped << R"(},"counters":{}})";
  return o.str();
}

report::RunReport derive(const std::vector<TickSpec>& timeline) {
  report::RunReport rep;
  for (const TickSpec& t : timeline) rep.ingest_line(tick_line(t));
  rep.finalize();
  return rep;
}

// Every episode as "rule fire..clear: detail" (clear -1 = still latched).
std::vector<std::string> episodes(const report::RunReport& rep) {
  std::vector<std::string> out;
  for (const report::RunReport::Alert& a : rep.alerts()) {
    out.push_back(a.rule + " " + std::to_string(a.tick) + ".." +
                  std::to_string(a.cleared_tick) + ": " + a.detail);
  }
  return out;
}

TickSpec rate_tick(std::uint64_t tick, double cps,
                   const char* phase = "explore") {
  TickSpec t;
  t.tick = tick;
  t.phase = phase;
  t.visited = static_cast<std::int64_t>(1000 * (tick + 1));
  t.frontier = 100;
  t.cps = cps;
  return t;
}

using Lines = std::vector<std::string>;

TEST(Watchdog, QuietTimelineFiresNothing) {
  std::vector<TickSpec> tl;
  for (std::uint64_t t = 0; t < 64; ++t) {
    tl.push_back(rate_tick(t, 1000.0 + static_cast<double>(t % 7)));
  }
  const report::RunReport rep = derive(tl);
  EXPECT_TRUE(rep.alerts().empty());
  EXPECT_TRUE(rep.active_alerts().empty());
}

TEST(Watchdog, CollapseFiresOncePerEpisodeAndClears) {
  // Steady, then 5% of the median for 4 ticks, recovery for 16, then a
  // second collapse that lasts until it becomes the median itself.
  std::vector<TickSpec> tl;
  std::uint64_t t = 0;
  for (; t < 8; ++t) tl.push_back(rate_tick(t, 1000.0));
  for (int i = 0; i < 4; ++i, ++t) tl.push_back(rate_tick(t, 50.0));
  for (int i = 0; i < 16; ++i, ++t) tl.push_back(rate_tick(t, 1000.0));
  for (int i = 0; i < 16; ++i, ++t) tl.push_back(rate_tick(t, 50.0));
  const report::RunReport rep = derive(tl);
  const std::string detail =
      "rate 50 configs/s under 30% of trailing median 1000";
  EXPECT_EQ(episodes(rep),
            (Lines{"throughput_collapse 8..12: " + detail,
                   "throughput_collapse 28..36: " + detail}));
  EXPECT_TRUE(rep.active_alerts().empty());
}

TEST(Watchdog, PhaseChangeResetsTheWindow) {
  std::vector<TickSpec> tl;
  std::uint64_t t = 0;
  for (; t < 8; ++t) tl.push_back(rate_tick(t, 1'000'000.0, "explore"));
  // lemma4 is legitimately 100x slower; a fresh phase must not inherit
  // explore's median.
  tl.push_back(rate_tick(t, 10'000.0, "lemma4"));
  EXPECT_TRUE(derive(tl).alerts().empty());
}

TEST(Watchdog, SpillThrashNeedsChurnAndFlatVisited) {
  // Mapped bytes oscillate hard while visited barely moves: classic
  // map/unmap churn doing no useful work.
  const auto timeline = [](std::int64_t visited_step) {
    std::vector<TickSpec> tl;
    for (std::uint64_t i = 0; i < 12; ++i) {
      TickSpec t;
      t.tick = i;
      t.visited = 500'000 + visited_step * static_cast<std::int64_t>(i);
      t.frontier = 100;
      t.mapped = (i % 2) == 0 ? 1'000'000 : 10'000;
      tl.push_back(t);
    }
    return tl;
  };
  const report::RunReport rep = derive(timeline(1));
  EXPECT_EQ(episodes(rep),
            (Lines{"spill_thrash 4..-1: mapped-byte churn 3960000 B vs peak "
                   "1000000 B with visited growth 4 over the window"}));
  EXPECT_EQ(rep.active_alerts(), (Lines{"spill_thrash"}));

  // Same churn with healthy visited growth is a legitimate working set
  // cycling through memory — no alert.
  EXPECT_TRUE(derive(timeline(100'000)).alerts().empty());
}

TEST(Watchdog, LedgerRunawayProjectsExitEta) {
  const auto timeline = [](std::int64_t budget, std::int64_t step) {
    std::vector<TickSpec> tl;
    for (std::uint64_t t = 0; t < 4; ++t) {
      TickSpec s;
      s.tick = t;
      s.total = step * static_cast<std::int64_t>(t + 1);
      s.mem_budget = budget;
      tl.push_back(s);
    }
    return tl;
  };
  // Growing 100 MB/s toward a 1 GB budget: ~8 s to exit 4, inside the 60 s
  // alert horizon.
  EXPECT_EQ(episodes(derive(timeline(1'000'000'000, 100'000'000))),
            (Lines{"ledger_runaway 1..-1: tracked bytes growing 100000000 "
                   "B/s, projected exit-4 in 8 s (762.9MiB headroom)"}));
  // Already over the budget.
  EXPECT_EQ(episodes(derive(timeline(100, 1'000'000'000))),
            (Lines{"ledger_runaway 1..-1: tracked 2000000000 B at/over "
                   "budget 100 B"}));
  // Without a budget the rule is disarmed no matter the growth.
  EXPECT_TRUE(derive(timeline(0, 100'000'000)).alerts().empty());
}

// A checkpointed run: the age climbs one second per tick, a write at
// `write_at` resets it, then it climbs again.
std::vector<TickSpec> ckpt_timeline(std::int64_t interval_ms,
                                    std::uint64_t write_at, std::uint64_t n) {
  std::vector<TickSpec> tl;
  for (std::uint64_t t = 0; t < n; ++t) {
    TickSpec s;
    s.tick = t;
    s.ckpt_age_s = static_cast<std::int64_t>(t < write_at ? t : t - write_at);
    s.ckpt_interval_ms = interval_ms;
    tl.push_back(s);
  }
  return tl;
}

TEST(Watchdog, CheckpointStallIsDisarmedWithoutAWallClockCadence) {
  // --checkpoint-every only (interval 0): an hour without a write is fine.
  EXPECT_TRUE(derive(ckpt_timeline(0, 3600, 64)).alerts().empty());
  // No checkpoint directory: the ticks carry no age at all.
  std::vector<TickSpec> tl = ckpt_timeline(1000, 3600, 64);
  for (TickSpec& t : tl) t.ckpt_age_s = -1;
  EXPECT_TRUE(derive(tl).alerts().empty());
}

TEST(Watchdog, CheckpointStallFiresPastThreeCadencesAndFiveSeconds) {
  const std::string tail =
      " (engine not reaching a quiescent point, or writes stuck)";
  // 1 s cadence: 3x is 3 s, so the 5 s floor decides.
  EXPECT_EQ(episodes(derive(ckpt_timeline(1000, 1000, 16))),
            (Lines{"checkpoint_stall 5..-1: last checkpoint 5 s ago vs "
                   "configured interval 1 s" + tail}));
  // 4 s cadence: 3x is 12 s, past the floor.
  EXPECT_EQ(episodes(derive(ckpt_timeline(4000, 1000, 16))),
            (Lines{"checkpoint_stall 12..-1: last checkpoint 12 s ago vs "
                   "configured interval 4 s" + tail}));
}

TEST(Watchdog, CheckpointStallFiresOncePerEpisodeAndClearsWhenTheAgeDrops) {
  // Ages 0..9, a write, then 0..15: two episodes, the first cleared by the
  // write, each fired once however long it lasts.
  const report::RunReport rep = derive(ckpt_timeline(1000, 10, 26));
  ASSERT_EQ(rep.alerts().size(), 2u);
  EXPECT_EQ(rep.alerts()[0].tick, 5);
  EXPECT_EQ(rep.alerts()[0].cleared_tick, 10);
  EXPECT_EQ(rep.alerts()[1].tick, 15);
  EXPECT_EQ(rep.alerts()[1].cleared_tick, -1);
  EXPECT_EQ(rep.active_alerts(), (Lines{"checkpoint_stall"}));
}

TEST(Watchdog, EachLoadedFileIsOneRun) {
  // Run A ends in a collapse; run B is healthy. Read together, B's first
  // tick must not be judged against A's window: it would clear A's
  // episode.
  const std::string a = temp_path("run_a.jsonl");
  const std::string b = temp_path("run_b.jsonl");
  {
    std::ofstream fa(a, std::ios::trunc);
    for (std::uint64_t t = 0; t < 12; ++t) {
      fa << tick_line(rate_tick(t, t < 11 ? 1000.0 : 50.0)) << "\n";
    }
    std::ofstream fb(b, std::ios::trunc);
    for (std::uint64_t t = 0; t < 8; ++t) {
      fb << tick_line(rate_tick(t, 1000.0)) << "\n";
    }
  }
  report::RunReport rep;
  ASSERT_TRUE(rep.load(a));
  ASSERT_TRUE(rep.load(b));
  rep.finalize();
  ASSERT_EQ(rep.alerts().size(), 1u);
  EXPECT_EQ(rep.alerts()[0].tick, 11);
  EXPECT_EQ(rep.alerts()[0].cleared_tick, -1) << "latched at the end of A";
  std::remove(a.c_str());
  std::remove(b.c_str());
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

  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  ASSERT_EQ(rep.ticks().size(), 5u);
  EXPECT_TRUE(rep.monotonic());
  EXPECT_EQ(rep.lines_malformed(), 0u);
  // One time field: ticks carry the sink's ts_ns, like the decision trail.
  EXPECT_EQ(slurp(path).find("\"t_s\""), std::string::npos);
  for (std::size_t i = 0; i < 5; ++i) {
    const report::RunReport::Tick& t = rep.ticks()[i];
    EXPECT_EQ(t.tick, static_cast<std::int64_t>(i));
    EXPECT_GT(t.ts_ns, 0);
    if (i > 0) {
      EXPECT_GE(t.ts_ns, rep.ticks()[i - 1].ts_ns);
    }
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
  // A file is one run: reopening restarts the tick ids and the rate
  // baseline. (The alert window restarts per file on the reader side; see
  // Watchdog.EachLoadedFileIsOneRun.)
  const std::string path = temp_path("reopen.jsonl");
  open_stream(path);
  obs::Sample s;
  s.phase = "explore";
  s.visited = 1000;
  obs::telemetry::tick(s);
  s.visited = 2000;
  obs::telemetry::tick(s);
  EXPECT_EQ(obs::telemetry::ticks(), 2u);

  open_stream(path);
  EXPECT_EQ(obs::telemetry::ticks(), 0u);
  s.visited = 3000;
  obs::telemetry::tick(s);
  obs::stats_sink().close();
  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  ASSERT_EQ(rep.ticks().size(), 1u);
  EXPECT_EQ(rep.ticks()[0].tick, 0);
  EXPECT_LT(rep.ticks()[0].cps, 0.0) << "no rate across the reopen";
  std::remove(path.c_str());
}

std::int64_t ckpt_age_for_test() { return 42; }

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

TEST(Telemetry, TicksCarryRuleInputsOnlyWhenConfigured) {
  const std::string path = temp_path("rule_inputs.jsonl");
  open_stream(path);
  obs::Sample s;
  s.phase = "explore";
  obs::telemetry::tick(s);  // no memory budget, no checkpoint directory
  obs::telemetry::set_budgets(64ull << 20, kNoDeadline);
  obs::telemetry::set_ckpt_probe(&ckpt_age_for_test, 2500);
  obs::telemetry::tick(s);
  obs::telemetry::set_ckpt_probe(nullptr, 0);
  obs::telemetry::set_budgets(0, kNoDeadline);
  obs::stats_sink().close();

  const std::string text = slurp(path);
  const std::string first = text.substr(0, text.find('\n'));
  for (const char* key : {"mem_budget", "ckpt_age_s", "ckpt_interval_ms"}) {
    EXPECT_EQ(first.find(key), std::string::npos) << key;
  }
  // Ticks are measurements only: no alert records, whatever the rules say.
  EXPECT_EQ(text.find("\"watch."), std::string::npos);
  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  ASSERT_EQ(rep.ticks().size(), 2u);
  EXPECT_EQ(rep.ticks()[0].mem_budget, 0);
  EXPECT_EQ(rep.ticks()[0].ckpt_age_s, -1);
  EXPECT_EQ(rep.ticks()[1].mem_budget, 64 << 20);
  EXPECT_EQ(rep.ticks()[1].ckpt_age_s, 42);
  EXPECT_EQ(rep.ticks()[1].ckpt_interval_ms, 2500);
  std::remove(path.c_str());
}

TEST(Telemetry, TicksCarryDeadlineAndFlightEventsOnlyWhenConfigured) {
  const std::string path = temp_path("fields.jsonl");
  open_stream(path);
  obs::Sample s;
  s.phase = "explore";
  obs::telemetry::tick(s);  // no time budget, no flight recorder
  obs::telemetry::set_budgets(
      0, std::chrono::steady_clock::now() + std::chrono::seconds(60));
  obs::flight::enable();
  obs::flight::record(obs::flight::Ev::kLevel, 1, 2);
  obs::telemetry::tick(s);
  obs::flight::disable();
  obs::telemetry::set_budgets(0, kNoDeadline);
  obs::stats_sink().close();

  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  ASSERT_EQ(rep.ticks().size(), 2u);
  EXPECT_LT(rep.ticks()[0].deadline_s, 0.0);
  EXPECT_LT(rep.ticks()[0].flight_events, 0);
  EXPECT_GT(rep.ticks()[1].deadline_s, 0.0);
  EXPECT_LE(rep.ticks()[1].deadline_s, 60.0);
  EXPECT_GE(rep.ticks()[1].flight_events, 1);
  std::remove(path.c_str());
}

TEST(RunReport, ToleratesTruncatedFinalLine) {
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
  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  EXPECT_EQ(rep.ticks().size(), 2u) << "torn tail dropped, prefix kept";
  EXPECT_EQ(rep.lines_malformed(), 1u);
  EXPECT_TRUE(rep.monotonic());
  std::remove(path.c_str());
}

TEST(RunReport, ActiveAlertsTracksLatchedEpisodes) {
  // Two episodes on one timeline: a checkpoint stall the next write clears,
  // and a budget overrun that is still latched at the end.
  std::vector<TickSpec> tl = ckpt_timeline(1000, 8, 10);
  for (TickSpec& t : tl) {
    t.mem_budget = 4096;
    t.total = t.tick >= 6 ? 8192 : 1024;
  }
  const report::RunReport rep = derive(tl);
  ASSERT_EQ(rep.alerts().size(), 2u);
  EXPECT_EQ(rep.alerts()[0].rule, "checkpoint_stall");
  EXPECT_EQ(rep.alerts()[0].cleared_tick, 8);
  EXPECT_EQ(rep.alerts()[1].rule, "ledger_runaway");
  EXPECT_EQ(rep.alerts()[1].tick, 6);
  EXPECT_EQ(rep.alerts()[1].ts_ns, 6'000'000'000);
  EXPECT_EQ(rep.alerts()[1].phase, "explore");
  EXPECT_EQ(rep.active_alerts(), (Lines{"ledger_runaway"}));
}

TEST(RunReport, ParsesTicksAmidTheStreamsOtherRecordTypes) {
  report::RunReport rep;
  rep.ingest_line(R"({"type":"explore.level","level":0,"frontier":1})");
  rep.ingest_line(R"({"type":"lemma4.enter","ts_ns":12,"stage":0})");
  rep.ingest_line(R"({"type":"ledger","total":4096})");
  rep.ingest_line(R"({"type":"telemetry.tick","ts_ns":2000000000,"tick":0,)"
                  R"("phase":"lemma4","level":3,"covered":2})");
  // A tick from before ticks carried ts_ns still parses.
  rep.ingest_line(R"({"type":"telemetry.tick","tick":1,"t_s":3.0,)"
                  R"("phase":"explore"})");
  ASSERT_EQ(rep.ticks().size(), 2u);
  EXPECT_EQ(rep.ticks()[0].ts_ns, 2'000'000'000);
  EXPECT_EQ(rep.ticks()[0].level, 3);
  EXPECT_EQ(rep.ticks()[0].covered, 2);
  EXPECT_EQ(rep.ticks()[1].covered, -1);
  EXPECT_EQ(rep.levels().size(), 1u);
  EXPECT_EQ(rep.lines_malformed(), 0u)
      << "other record types and legacy ticks are not malformed";
  rep.ingest_line("{\"type\":");  // only an unparseable line is
  EXPECT_EQ(rep.lines_malformed(), 1u);
}

TEST(RunReport, TelemetrySectionRendersATornFileWithALatchedAlert) {
  // A budgeted run killed mid-append: ticks, a latched alert, and a torn
  // final line. The report's telemetry section (what `tsb monitor`
  // repaints) still shows the last complete tick, and the file reports
  // clean (exit 0).
  const std::string path = temp_path("section.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"type":"adversary.begin","ts_ns":1,"n":5})" << "\n";
    for (int i = 0; i < 4; ++i) {
      out << R"({"type":"telemetry.tick","ts_ns":)" << (i + 1) * 500'000'000
          << R"(,"tick":)" << i << R"(,"phase":"valency.reach","visited":)"
          << 1000 * (i + 1) << R"(,"cap":2000000,"cps":2000,)"
          << R"("deadline_s":)" << 4 - i
          << R"(,"peak_rss_kb":1024,"ledger_total":)" << 1024 * (i + 1)
          << R"(,"mem_budget":3072,"ledger":{"arena.words":4096},)"
          << R"("counters":{}})" << "\n";
    }
    out << R"({"type":"telemetry.tick","ts_ns":25000)";  // torn
  }
  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 1u);
  std::ostringstream text;
  rep.render_text(text);
  const std::string s = text.str();
  for (const char* want :
       {"telemetry: 4 tick(s), 1 watchdog alert(s)", "phase      valency.reach",
        "uptime     2 s", "deadline   1 s left", "eta->cap", "arena.words",
        "ALERTS    ledger_runaway",
        "ledger_runaway: tracked bytes growing 2048 B/s, projected exit-4 "
        "in 0 s (1.0KiB headroom)"}) {
    EXPECT_NE(s.find(want), std::string::npos) << want << "\n" << s;
  }
  std::ostringstream section;
  rep.render_telemetry(section);
  EXPECT_NE(s.find(section.str()), std::string::npos)
      << "the monitor's frame is the report's section";
  std::ostringstream analyzed;
  EXPECT_EQ(report::analyze_files({path}, analyzed), 0);
  std::remove(path.c_str());
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
        << R"(,"ts_ns":)" << (0.5e9 * (i + 1) * wall_scale)
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
  EXPECT_EQ(report::compare_timelines(a, b, out), 0) << out.str();

  // B at 40% of A's throughput and 1.5x the wall time: both gates trip.
  write_timeline(b, 0.4, 1.5);
  std::ostringstream out2;
  EXPECT_EQ(report::compare_timelines(a, b, out2), 1);
  EXPECT_NE(out2.str().find("REGRESSED"), std::string::npos);

  // A slowdown inside the fixed 25% gate passes.
  write_timeline(b, 0.9, 1.1);
  std::ostringstream out3;
  EXPECT_EQ(report::compare_timelines(a, b, out3), 0) << out3.str();
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CompareTimelines, WatchAlertsRowCountsDerivedAlerts) {
  const std::string a = temp_path("cmp_quiet.jsonl");
  const std::string b = temp_path("cmp_collapse.jsonl");
  write_timeline(a, 1.0, 1.0);
  {
    std::ofstream out(b, std::ios::trunc);
    for (std::uint64_t t = 0; t < 10; ++t) {
      out << tick_line(rate_tick(t, t < 8 ? 2000.0 : 50.0)) << "\n";
    }
  }
  std::ostringstream out;
  report::compare_timelines(a, b, out);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line) &&
         line.find(" watch_alerts ") == std::string::npos) {
  }
  std::istringstream row(line);
  std::vector<std::string> cells;
  for (std::string c; row >> c;) cells.push_back(c);
  ASSERT_GE(cells.size(), 4u) << out.str();
  EXPECT_EQ(cells[1], "watch_alerts");
  EXPECT_EQ(cells[2], "0") << "A is quiet";
  EXPECT_EQ(cells[3], "1") << "B collapses once";
  std::remove(a.c_str());
  std::remove(b.c_str());
}

TEST(CompareTimelines, MissingOrEmptyFileIsUsage) {
  const std::string a = temp_path("cmp_present.jsonl");
  write_timeline(a, 1.0, 1.0);
  std::ostringstream out;
  EXPECT_EQ(report::compare_timelines(a, temp_path("cmp_absent.jsonl"), out),
            2);
  const std::string empty = temp_path("cmp_empty.jsonl");
  { std::ofstream touch(empty); }
  std::ostringstream out2;
  EXPECT_EQ(report::compare_timelines(a, empty, out2), 2);
  std::remove(a.c_str());
  std::remove(empty.c_str());
}

// --- report ingestion ------------------------------------------------------

TEST(RunReport, CountsTelemetryRecords) {
  // A stats file from before alerts moved to the reader: its watch.*
  // records are skipped — not malformed, not alerts — and the report stays
  // clean.
  const std::string path = temp_path("legacy_watch.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << R"({"type":"telemetry.tick","ts_ns":1000000000,"tick":0,)"
        << R"("phase":"explore"})" << "\n";
    out << R"({"type":"telemetry.tick","ts_ns":2000000000,"tick":1,)"
        << R"("phase":"explore"})" << "\n";
    out << R"({"type":"watch.alert","ts_ns":2000000000,)"
        << R"("rule":"spill_thrash","tick":1,"phase":"explore",)"
        << R"("detail":"churn"})" << "\n";
    out << R"({"type":"watch.clear","ts_ns":3000000000,)"
        << R"("rule":"spill_thrash","tick":2})" << "\n";
  }
  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  rep.finalize();
  EXPECT_EQ(rep.ticks().size(), 2u);
  EXPECT_TRUE(rep.alerts().empty());
  EXPECT_EQ(rep.lines_ingested(), 4u);
  EXPECT_EQ(rep.lines_malformed(), 0u);
  std::ostringstream out;
  rep.render_text(out);
  EXPECT_NE(out.str().find("telemetry: 2 tick(s), 0 watchdog alert(s)"),
            std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find("spill_thrash"), std::string::npos);
  std::ostringstream analyzed;
  EXPECT_EQ(report::analyze_files({path}, analyzed), 0);
  std::remove(path.c_str());
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

  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  ASSERT_GE(rep.ticks().size(), 1u);
  EXPECT_TRUE(rep.monotonic()) << "tick ids must strictly increase";
  EXPECT_EQ(rep.lines_malformed(), 0u);
  const report::RunReport::Tick& final_tick = rep.ticks().back();
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
  EXPECT_EQ(report::analyze_files({path}, rendered), 0);
  EXPECT_NE(rendered.str().find("\"consistent\":true"), std::string::npos)
      << rendered.str();
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"type\":\"certificate\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"lemma4."), std::string::npos);
  std::remove(path.c_str());
}

TEST(TelemetryEndToEnd, TicksCarryTheBudgetsTheConstructionEnforces) {
  // The construction builds its limits once and hands the same budget and
  // deadline to the engines and the ticks: every tick of a budgeted run
  // reports them, and a new timeline starts without them.
  const std::string path = temp_path("budgets.jsonl");
  open_stream(path);
  const auto saved = obs::progress_interval();
  obs::set_progress_interval(std::chrono::milliseconds(1));

  consensus::BallotConsensus proto(4, 8);
  bound::SpaceBoundAdversary::Options opts;
  opts.valency_max_arena_bytes = std::size_t{1} << 40;  // never trips
  opts.valency_time_budget_ms = 600'000;
  const auto result = bound::SpaceBoundAdversary(proto, opts).run();
  ASSERT_TRUE(result.ok) << result.error;
  obs::Sample last;
  last.phase = "done";
  obs::telemetry::tick(last);
  obs::stats_sink().close();
  obs::set_progress_interval(saved);

  report::RunReport rep;
  ASSERT_TRUE(rep.load(path));
  ASSERT_GE(rep.ticks().size(), 2u);
  for (const report::RunReport::Tick& t : rep.ticks()) {
    EXPECT_EQ(t.mem_budget, std::int64_t{1} << 40) << "tick " << t.tick;
    EXPECT_GT(t.deadline_s, 0.0) << "tick " << t.tick;
    EXPECT_LE(t.deadline_s, 600.0) << "tick " << t.tick;
  }

  open_stream(path);
  obs::telemetry::tick(last);
  obs::stats_sink().close();
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("mem_budget"), std::string::npos) << text;
  EXPECT_EQ(text.find("deadline_s"), std::string::npos) << text;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsb

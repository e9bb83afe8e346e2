// Run forensics: the `tsb report` analyzer (tools/report.*) against both
// hand-built JSONL lines and a real adversary run's stats stream. The
// end-to-end test is the repo's contract that the decision-trail emitters
// and the analyzer agree on the format — and that the analyzer's covering
// narrative reconstruction matches the independently verified certificate.
#include <gtest/gtest.h>

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

namespace tsb::report {
namespace {

TEST(ParseJson, ObjectsArraysAndScalars) {
  JsonValue v;
  ASSERT_TRUE(parse_json(
      R"({"a":1,"b":-2.5,"c":"x\"y\\z","d":[1,2,3],"e":{"f":true},)"
      R"("g":null,"h":false})",
      v));
  EXPECT_EQ(v.int_or("a", 0), 1);
  EXPECT_DOUBLE_EQ(v.num_or("b", 0.0), -2.5);
  EXPECT_EQ(v.str_or("c", ""), "x\"y\\z");
  EXPECT_EQ(v.int_array("d"), (std::vector<int>{1, 2, 3}));
  const JsonValue* e = v.find("e");
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->bool_or("f", false));
  EXPECT_FALSE(v.bool_or("h", true));
  ASSERT_NE(v.find("g"), nullptr);
  EXPECT_EQ(v.find("g")->type, JsonValue::Type::kNull);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_EQ(v.int_or("missing", 7), 7);
}

TEST(ParseJson, DecodesUnicodeEscapes) {
  // Foreign tooling (jq, python's json) escapes non-ASCII as \uXXXX by
  // default; the mini parser must decode them to UTF-8, not reject the
  // line. BMP code points first:
  {
    JsonValue v;
    ASSERT_TRUE(parse_json(R"({"a":"A\u00e9\u20ac"})", v));
    EXPECT_EQ(v.str_or("a", ""), "A\xc3\xa9\xe2\x82\xac");  // A U+00E9 U+20AC
  }
  {
    // Escaped ASCII decodes to plain one-byte output.
    JsonValue v;
    ASSERT_TRUE(parse_json(R"({"a":"A\u0009"})", v));
    EXPECT_EQ(v.str_or("a", ""), "A\t");
  }
  {
    // Surrogate pairs combine into one astral code point (U+1F600).
    JsonValue v;
    ASSERT_TRUE(parse_json(R"({"a":"x\ud83d\ude00y"})", v));
    EXPECT_EQ(v.str_or("a", ""), "x\xf0\x9f\x98\x80y");
  }
  {
    // Case-insensitive hex digits.
    JsonValue v;
    ASSERT_TRUE(parse_json(R"({"a":"\u00E9"})", v));
    EXPECT_EQ(v.str_or("a", ""), "\xc3\xa9");
  }
}

TEST(ParseJson, RejectsMalformedUnicodeEscapes) {
  JsonValue v;
  EXPECT_FALSE(parse_json(R"({"a":"\u12"})", v));      // short hex run
  EXPECT_FALSE(parse_json(R"({"a":"\u12zz"})", v));    // non-hex digit
  EXPECT_FALSE(parse_json(R"({"a":"\ud83d"})", v));    // lone high surrogate
  EXPECT_FALSE(parse_json(R"({"a":"\ud83dx"})", v));   // high then raw char
  EXPECT_FALSE(parse_json(R"({"a":"\ud83d\n"})", v));  // high then non-\u
  EXPECT_FALSE(parse_json(R"({"a":"\ude00"})", v));    // stray low surrogate
  EXPECT_FALSE(
      parse_json(R"({"a":"\ud83d\ud83d"})", v));  // high followed by high
}

TEST(ParseJson, RejectsMalformedInputAndTrailingGarbage) {
  JsonValue v;
  EXPECT_FALSE(parse_json("", v));
  EXPECT_FALSE(parse_json("{\"a\":}", v));
  EXPECT_FALSE(parse_json("{\"a\" 1}", v));
  EXPECT_FALSE(parse_json("[1,2", v));
  EXPECT_FALSE(parse_json("{\"a\":1} extra", v));
  EXPECT_FALSE(parse_json("truely", v));
  EXPECT_TRUE(parse_json("  {\"a\":1}  ", v));
}

TEST(ParseJson, NestingPastTheDepthLimitIsMalformedNotACrash) {
  JsonValue v;
  const auto nest = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(parse_json(nest(kMaxJsonDepth), v));
  EXPECT_FALSE(parse_json(nest(kMaxJsonDepth + 1), v));
  // Objects and arrays share one depth budget.
  std::string mixed;
  for (int i = 0; i < kMaxJsonDepth; ++i) mixed += i % 2 ? "[" : "{\"k\":";
  mixed += "1";
  for (int i = kMaxJsonDepth - 1; i >= 0; --i) mixed += i % 2 ? "]" : "}";
  EXPECT_TRUE(parse_json(mixed, v));
  EXPECT_FALSE(parse_json("[" + mixed + "]", v));

  // A line of 2,000,000 brackets used to overflow the recursive-descent
  // stack; now it is one malformed line and the report still succeeds.
  const std::string bomb(2'000'000, '[');
  EXPECT_FALSE(parse_json(bomb, v));
  const std::string path = ::testing::TempDir() + "forensics_deep.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << bomb << "\n";
  }
  RunReport rep;
  rep.ingest_line(bomb);
  EXPECT_EQ(rep.lines_malformed(), 1u);
  std::ostringstream report_out;
  EXPECT_EQ(analyze_files({path}, report_out), 0);
  EXPECT_NE(report_out.str().find("malformed: 1"), std::string::npos)
      << report_out.str();
  std::remove(path.c_str());
}

TEST(ParseJson, NumbersStayInsideTheViewAndRejectNonJsonForms) {
  JsonValue v;
  // The view ends after "12": the digits beyond it must not be read.
  const std::string buf = "1234";
  ASSERT_TRUE(parse_json(std::string_view(buf).substr(0, 2), v));
  EXPECT_EQ(v.num, 12.0);
  EXPECT_TRUE(parse_json("-1.5e+06", v));
  EXPECT_EQ(v.num, -1.5e6);
  EXPECT_FALSE(parse_json("inf", v));
  EXPECT_FALSE(parse_json("-nan", v));
  EXPECT_FALSE(parse_json("0x10", v));
}

TEST(ParseJson, OutOfRangeNumbersSaturateOnIntegerReads) {
  // Hostile input: casting 1e300 to an integer is undefined behaviour, so
  // integer reads saturate instead.
  JsonValue v;
  ASSERT_TRUE(parse_json(R"({"a":1e300,"b":-1e300,"c":[1e300,-7]})", v));
  EXPECT_EQ(v.int_or("a", 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(v.int_or("b", 0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.int_array("c"),
            (std::vector<int>{std::numeric_limits<int>::max(), -7}));
}

// --- narrative-vs-certificate consistency on hand-built trails -----------

void ingest(RunReport& rep, std::initializer_list<const char*> lines) {
  for (const char* line : lines) rep.ingest_line(line);
  rep.finalize();
}

TEST(RunReport, MatchingNarrativeAndCertificateIsConsistent) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"covering.pre_escape","config":9,"procs":[0,1],"regs":[1,2],"z":2})",
    R"({"type":"solo_escape","config":9,"z":2,"covered":[1,2],"found":true,"steps":3,"escape_reg":0})",
    R"({"type":"certificate","protocol":"ballot","verified":true,"distinct_registers":3,"registers":[0,1,2],"clones":1,"schedule_len":9})",
  });
  ASSERT_TRUE(rep.has_certificate());
  EXPECT_TRUE(rep.consistent());
  EXPECT_EQ(rep.lines_malformed(), 0u);
}

TEST(RunReport, CloneCountMismatchIsFlagged) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"covering.pre_escape","config":9,"procs":[0,1],"regs":[1,2],"z":2})",
    R"({"type":"solo_escape","config":9,"z":2,"covered":[1,2],"found":true,"steps":3,"escape_reg":0})",
    R"({"type":"certificate","verified":true,"distinct_registers":3,"registers":[0,1,2],"clones":5,"schedule_len":9})",
  });
  ASSERT_TRUE(rep.has_certificate());
  EXPECT_FALSE(rep.consistent())
      << "certificate claims 5 clones, trail recorded 1 solo escape";
}

TEST(RunReport, RegisterSetMismatchIsFlagged) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"covering.pre_escape","config":9,"procs":[0,1],"regs":[1,2],"z":2})",
    R"({"type":"solo_escape","config":9,"z":2,"covered":[1,2],"found":true,"steps":3,"escape_reg":0})",
    R"({"type":"certificate","verified":true,"distinct_registers":3,"registers":[0,1,3],"clones":1,"schedule_len":9})",
  });
  EXPECT_FALSE(rep.consistent()) << "narrative {0,1,2} vs certificate {0,1,3}";
}

TEST(RunReport, UnverifiedCertificateIsNeverConsistent) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"certificate","verified":false,"distinct_registers":0,"registers":[],"clones":0,"schedule_len":0,"error":"boom"})",
  });
  ASSERT_TRUE(rep.has_certificate());
  EXPECT_FALSE(rep.consistent());
}

TEST(RunReport, StatsOnlyRunsHaveNoCertificateAndStayConsistent) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"explore.level","who":"explore","level":0,"frontier":1,"discovered":3,"dedup_hits":0,"dedup_rate":0,"total_configs":4,"ms":0.5,"configs_per_sec":8000,"table_load":0.1,"table_slots":64,"arena_bytes":512,"peak_rss_kb":100})",
    R"({"type":"explore.done","who":"explore","visited":4,"levels":1,"dedup_hits":0,"truncated":false,"aborted":false,"ms":1.0,"configs_per_sec":4000,"arena_bytes":512})",
  });
  EXPECT_FALSE(rep.has_certificate());
  EXPECT_TRUE(rep.consistent());
  ASSERT_EQ(rep.levels().size(), 1u);
  EXPECT_EQ(rep.levels()[0].discovered, 3);
}

TEST(RunReport, CheckpointLineShowsTheLastWriteBySection) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"ckpt.write","ts_ns":1,"why":"interval","generation":1,"bytes":120,"section_bytes":{"oracle":2,"roots":10,"memo":8,"graph":40},"ms":1})",
    R"({"type":"ckpt.write","ts_ns":2,"why":"stop","generation":2,"bytes":200,"section_bytes":{"oracle":2,"roots":12,"memo":9,"graph":117},"ms":2})",
  });
  EXPECT_EQ(rep.lines_malformed(), 0u);
  EXPECT_EQ(rep.ckpt_bytes(), 320u);
  std::ostringstream text;
  rep.render_text(text);
  EXPECT_NE(text.str().find("last state file by section: oracle 2 B, roots "
                            "12 B, memo 9 B, graph 117 B\n"),
            std::string::npos)
      << text.str();
}

TEST(RunReport, MalformedLinesAreCountedNotFatal) {
  RunReport rep;
  rep.ingest_line("not json at all");
  rep.ingest_line("{\"type\":\"valency\",\"answer\":true,\"memo_hit\":true}");
  rep.ingest_line("");  // blank lines are skipped, not malformed
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 1u);
  EXPECT_TRUE(rep.consistent());
}

// --- phase self time from the trace's span nesting -----------------------

// One complete span as TraceSink writes it to a .jsonl trace. Times are
// given in us.
std::string span_line(const char* name, int tid, long ts_us, long dur_us) {
  return std::string("{\"name\":\"") + name +
         "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
         ",\"ts_ns\":" + std::to_string(ts_us * 1000) +
         ",\"dur_ns\":" + std::to_string(dur_us * 1000) +
         ",\"args\":{\"value\":0}}";
}

TEST(RunReport, SelfTimeSubtractsDirectChildrenPerTid) {
  // tid 1: outer [0,1000) > mid [100,400) > leaf [150,250), and
  //        outer > mid [500,900).
  // tid 2: outer [50,650) > mid [100,600). It overlaps tid 1 in time but
  //        must not nest into it. Lines arrive in completion order.
  const std::string path = ::testing::TempDir() + "self_ns.jsonl";
  {
    std::ofstream out(path, std::ios::trunc);
    out << span_line("leaf", 1, 150, 100) << "\n"
        << span_line("mid", 1, 100, 300) << "\n"
        << span_line("mid", 2, 100, 500) << "\n"
        << span_line("outer", 2, 50, 600) << "\n"
        << span_line("mid", 1, 500, 400) << "\n"
        << span_line("outer", 1, 0, 1000) << "\n"
        // A stats file from before the sampling profiler was removed.
        << R"({"type":"prof.label","label":"outer","cpu_self_ms":3,"cpu_total_ms":9,"cpu_samples":2})"
        << "\n"
        << R"({"type":"prof.summary","hz":200,"cpu_samples":2,"wall_samples":2})"
        << "\n";
  }
  RunReport rep;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) rep.ingest_line(line);
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 0u);

  const auto& spans = rep.spans();
  ASSERT_EQ(spans.size(), 3u);
  const RunReport::SpanAgg& outer = spans.at("outer");
  const RunReport::SpanAgg& mid = spans.at("mid");
  const RunReport::SpanAgg& leaf = spans.at("leaf");
  EXPECT_EQ(outer.count, 2u);
  EXPECT_EQ(mid.count, 3u);
  EXPECT_DOUBLE_EQ(outer.total_ms, 1.6);
  EXPECT_DOUBLE_EQ(mid.total_ms, 1.2);
  EXPECT_DOUBLE_EQ(leaf.total_ms, 0.1);
  // Self = total minus the covered child time: outer loses tid 1's two
  // mids (0.7) and tid 2's mid (0.5); mid loses the leaf (0.1).
  EXPECT_NEAR(outer.self_ms, 1.6 - 0.7 - 0.5, 1e-9);
  EXPECT_NEAR(mid.self_ms, 1.2 - 0.1, 1e-9);
  EXPECT_NEAR(leaf.self_ms, 0.1, 1e-9);

  // The legacy prof.* records leave the report clean (exit 0) and add no
  // table of their own.
  std::ostringstream report_out;
  EXPECT_EQ(analyze_files({path}, report_out), 0);
  const std::string text = report_out.str();
  EXPECT_NE(text.find("self_ms"), std::string::npos) << text;
  EXPECT_NE(text.find("malformed: 0"), std::string::npos) << text;
  EXPECT_EQ(text.find("profile"), std::string::npos) << text;
  std::remove(path.c_str());
}

TEST(RunReport, ChromeTraceDocumentIsRefusedWithUsageExit) {
  // What --trace=FILE writes without a .jsonl suffix: one JSON document for
  // Perfetto, not a line per event. The report says so instead of counting
  // every line malformed and exiting 0.
  const std::string path = ::testing::TempDir() + "chrome_trace.json";
  std::ofstream(path, std::ios::trunc)
      << R"({"displayTimeUnit":"ns","traceEvents":[{"name":"a","ph":"X","pid":1,"tid":0,"ts":1,"dur":2},)"
      << "\n"
      << R"({"name":"b","ph":"i","pid":1,"tid":0,"ts":3,"s":"t"}]})"
      << "\n";
  std::ostringstream out;
  EXPECT_EQ(analyze_files({path}, out), 2);
  EXPECT_NE(out.str().find("--trace=FILE.jsonl"), std::string::npos)
      << out.str();
  std::ostringstream cmp;
  EXPECT_EQ(compare_timelines(path, path, cmp), 2);
  std::remove(path.c_str());
}

// --- end to end: a real adversary run through the analyzer ---------------

void ingest_file(RunReport& rep, const std::string& path) {
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  for (std::string line; std::getline(in, line);) rep.ingest_line(line);
}

TEST(RunReport, AdversaryAuditTrailMatchesTheVerifiedCertificate) {
  // One file: the decision trail rides the stats stream.
  const std::string stats_path =
      ::testing::TempDir() + "forensics_stats.jsonl";
  ASSERT_TRUE(obs::stats_sink().open(stats_path));

  const int n = 3;
  consensus::BallotConsensus proto(n, 2 * n);
  bound::SpaceBoundAdversary adversary(proto);
  const auto result = adversary.run();
  obs::stats_sink().close();
  ASSERT_TRUE(result.ok) << result.error;

  RunReport rep;
  ingest_file(rep, stats_path);
  rep.finalize();

  EXPECT_EQ(rep.lines_malformed(), 0u)
      << "every emitted record must parse back";
  EXPECT_GT(rep.lines_ingested(), 0u);
  ASSERT_TRUE(rep.has_certificate());
  EXPECT_TRUE(rep.consistent())
      << "audit narrative disagrees with the verified certificate";

  // The baseline carries the construction's deterministic outcomes; they
  // must match what the in-process run reported.
  const std::string baseline = rep.baseline_json();
  EXPECT_NE(baseline.find("\"verified\":true"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("\"consistent\":true"), std::string::npos)
      << baseline;
  EXPECT_NE(baseline.find("\"clones\":" +
                          std::to_string(result.lemma_stats.solo_escapes)),
            std::string::npos)
      << baseline;
  EXPECT_NE(baseline.find("\"distinct_registers\":" +
                          std::to_string(result.check.distinct_registers)),
            std::string::npos)
      << baseline;
  const std::vector<int> regs(result.check.registers.begin(),
                              result.check.registers.end());
  EXPECT_NE(baseline.find("\"registers\":" + obs::json_int_array(regs)),
            std::string::npos)
      << baseline;

  std::ostringstream text;
  rep.render_text(text);
  EXPECT_NE(text.str().find("CONSISTENT"), std::string::npos) << text.str();

  // analyze_files agrees: exit 0 over the same artifacts.
  std::ostringstream sink;
  EXPECT_EQ(analyze_files({stats_path}, sink), 0);
  // ... and 2 for an unreadable file.
  std::ostringstream devnull;
  EXPECT_EQ(analyze_files({stats_path, "/nonexistent-tsb/x.jsonl"}, devnull),
            2);
}

// --- reachability passes (valency.pass) ------------------------------------

TEST(RunReport, ReuseRecordsAggregateRenderAndBaseline) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"valency.pass","ts_ns":10,"config":7,"procs":[0,1],"can0":true,"can1":true,"expanded":100,"reused":300,"visited":400,"from_facts":false,"truncated":false,"replay_ok":true,"graph_nodes":120,"facts":80,"canonical":3,"identity":false})",
    R"({"type":"valency.pass","ts_ns":20,"config":9,"procs":[2],"can0":true,"can1":false,"expanded":0,"reused":0,"visited":1,"from_facts":true,"truncated":false,"replay_ok":true,"graph_nodes":121,"facts":81})",
    // A fresh-BFS pass carries no engine counters: an exploration, not a
    // shared-engine pass.
    R"({"type":"valency.pass","ts_ns":30,"config":11,"procs":[1],"can0":false,"can1":true})",
    // The three records valency.pass replaced are legacy: well-formed,
    // skipped, and never counted twice.
    R"({"type":"valency.explore","config":7,"procs":[0,1],"can0":true,"can1":true})",
    R"({"type":"valency.reuse","config":7,"procs":[0,1],"expanded":100,"reused":300,"visited":400,"from_facts":false,"truncated":false,"can0":true,"can1":true,"replay_ok":false,"graph_nodes":120,"facts":80})",
    R"({"type":"canonical.orbit","config":7,"canonical":3,"procs":[0,1],"identity":false})",
  });
  EXPECT_EQ(rep.lines_malformed(), 0u);
  EXPECT_EQ(rep.reuse_records(), 2u);
  EXPECT_EQ(rep.replay_failures(), 0u);
  EXPECT_DOUBLE_EQ(rep.reuse_rate(), 0.75);  // 300 / (100 + 300)
  EXPECT_TRUE(rep.consistent());

  std::ostringstream text;
  rep.render_text(text);
  EXPECT_NE(text.str().find("shared-subgraph valency queries"),
            std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("work saved: 300 stored-edge reuses"),
            std::string::npos)
      << text.str();
  EXPECT_NE(text.str().find("canonical orbits: 1 symmetric queries"),
            std::string::npos)
      << text.str();

  const std::string baseline = rep.baseline_json();
  for (const char* want :
       {"\"reach_passes\":2", "\"reach_expanded\":100",
        "\"reach_reused\":300", "\"reach_fact_answers\":1",
        "\"reach_graph_nodes\":121", "\"reach_facts\":81",
        "\"reach_replay_failures\":0", "\"orbit_records\":1",
        "\"orbit_nonidentity\":1", "\"valency_explorations\":3"}) {
    EXPECT_NE(baseline.find(want), std::string::npos)
        << want << " missing from " << baseline;
  }
}

TEST(RunReport, WitnessReplayFailureFailsTheReport) {
  const std::string path = ::testing::TempDir() + "forensics_replay.jsonl";
  {
    std::ofstream out(path);
    out << R"({"type":"valency.pass","ts_ns":5,"config":7,"procs":[0,1],"can0":true,"can1":false,"expanded":10,"reused":5,"visited":12,"from_facts":false,"truncated":false,"replay_ok":false,"graph_nodes":12,"facts":4})"
        << "\n";
  }
  std::ostringstream report_text;
  EXPECT_EQ(analyze_files({path}, report_text), 1)
      << "an unsound witness must fail tsb report";
  EXPECT_NE(report_text.str().find("REPLAY FAILURES"), std::string::npos)
      << report_text.str();

  RunReport rep;
  ingest_file(rep, path);
  rep.finalize();
  EXPECT_EQ(rep.replay_failures(), 1u);
}

// Ballot consensus is not symmetric: its ballots are process ids. Declared
// symmetric anyway, the engine's canonical-frame witnesses stop replaying
// from the caller's configuration at n = 3.
class FalselySymmetricBallot final : public sim::Protocol {
 public:
  std::string name() const override { return inner_.name(); }
  int num_processes() const override { return inner_.num_processes(); }
  int num_registers() const override { return inner_.num_registers(); }
  sim::Value initial_register() const override {
    return inner_.initial_register();
  }
  bool symmetric() const override { return true; }
  sim::State initial_state(sim::ProcId p, sim::Value input) const override {
    return inner_.initial_state(p, input);
  }
  sim::PendingOp poised(sim::ProcId p, sim::State s) const override {
    return inner_.poised(p, s);
  }
  sim::State after_read(sim::ProcId p, sim::State s,
                        sim::Value observed) const override {
    return inner_.after_read(p, s, observed);
  }
  sim::State after_write(sim::ProcId p, sim::State s) const override {
    return inner_.after_write(p, s);
  }

 private:
  consensus::BallotConsensus inner_{3, 6};
};

TEST(RunReport, ReplayFailureRecordIsWrittenBeforeTheRunFails) {
  const std::string path =
      ::testing::TempDir() + "forensics_replay_engine.jsonl";
  ASSERT_TRUE(obs::stats_sink().open(path));
  FalselySymmetricBallot proto;
  bound::SpaceBoundAdversary adversary(proto);
  const auto result = adversary.run();
  obs::stats_sink().close();
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.error.find("de-canonicalized replay"), std::string::npos)
      << result.error;

  // The requirement fires right after its pass record: the failing pass is
  // the last valency.pass in the file, and it says replay_ok:false.
  std::ifstream in(path);
  std::string last_pass;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"type\":\"valency.pass\"") != std::string::npos) {
      last_pass = line;
    }
  }
  EXPECT_NE(last_pass.find("\"replay_ok\":false"), std::string::npos)
      << last_pass;
  std::ostringstream report_text;
  EXPECT_EQ(analyze_files({path}, report_text), 1) << report_text.str();
  std::remove(path.c_str());
}

// --- chaos records ---------------------------------------------------------

TEST(RunReport, ChaosRunRecordsAggregatePerTarget) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"chaos.run","run":0,"seed":7,"target":"ballot","n":4,"scenario":"solo","plan":"t1:crash@1","status":"ok","threads":"DCCC","steps":40,"decided":[1,-1,-1,-1],"distinct":4})",
    R"({"type":"chaos.run","run":1,"seed":8,"target":"bakery","n":4,"scenario":"perturb","plan":"t0:stall@3x50","status":"timeout","threads":"AAAA","steps":900,"decided":[-1,-1,-1,-1],"distinct":2})",
    R"({"type":"chaos.run","run":2,"seed":9,"target":"ballot","n":4,"scenario":"clean","plan":"none","status":"ok","threads":"DDDD","steps":55,"decided":[0,0,0,0],"distinct":4})",
    R"({"type":"chaos.campaign","runs":3,"seed":7,"n":4,"violations":0,"solo_runs":1,"solo_failures":0,"timeouts":1,"crashes":1,"stalls":1,"yields":0,"total_steps":995,"first_violation":"","ok":true})",
  });
  EXPECT_EQ(rep.chaos_violations(), 0u);
  EXPECT_EQ(rep.lines_malformed(), 0u);
  const std::string baseline = rep.baseline_json();
  EXPECT_NE(baseline.find("\"chaos_runs\":3"), std::string::npos) << baseline;
  EXPECT_NE(baseline.find("\"chaos_timeouts\":1"), std::string::npos)
      << baseline;
}

TEST(RunReport, ChaosViolationFailsTheReport) {
  const std::string path = ::testing::TempDir() + "forensics_chaos.jsonl";
  {
    std::ofstream out(path);
    out << R"({"type":"chaos.run","run":0,"seed":3,"target":"leader","n":3,"scenario":"perturb","plan":"none","status":"violation","threads":"DDD","steps":30,"decided":[-1,-1,-1],"distinct":3,"winners":2,"detail":"leader election violated: 2 winners"})"
        << "\n";
  }
  std::ostringstream devnull;
  EXPECT_EQ(analyze_files({path}, devnull), 1)
      << "a chaos safety violation must fail tsb report";
}

TEST(RunReport, BudgetExhaustedIsCleanNotAFailure) {
  const std::string path = ::testing::TempDir() + "forensics_budget.jsonl";
  {
    std::ofstream out(path);
    out << R"({"type":"adversary.begin","protocol":"ballot","n":6,"registers":6,"threads":1})"
        << "\n"
        << R"({"type":"adversary.budget_exhausted","protocol":"ballot","detail":"valency oracle wall-clock budget exhausted"})"
        << "\n";
  }
  std::ostringstream report_text;
  EXPECT_EQ(analyze_files({path}, report_text), 0)
      << "budget truncation is a clean outcome, not a report failure";
  EXPECT_NE(report_text.str().find("budget exhausted"), std::string::npos);
}

}  // namespace
}  // namespace tsb::report

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
  EXPECT_EQ(analyze_files({path}, 5, "", report_out), 0);
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

TEST(RunReport, MalformedLinesAreCountedNotFatal) {
  RunReport rep;
  rep.ingest_line("not json at all");
  rep.ingest_line("{\"type\":\"valency\",\"answer\":true,\"memo_hit\":true}");
  rep.ingest_line("");  // blank lines are skipped, not malformed
  rep.finalize();
  EXPECT_EQ(rep.lines_malformed(), 1u);
  EXPECT_TRUE(rep.consistent());
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
  rep.render_text(text, 5);
  EXPECT_NE(text.str().find("CONSISTENT"), std::string::npos) << text.str();

  // analyze_files agrees: exit 0 over the same artifacts.
  std::ostringstream sink;
  EXPECT_EQ(analyze_files({stats_path}, 5, "", sink), 0);
  // ... and 2 for an unreadable file.
  std::ostringstream devnull;
  EXPECT_EQ(analyze_files({stats_path, "/nonexistent-tsb/x.jsonl"}, 5, "",
                          devnull),
            2);
}

// --- shared-subgraph engine records (valency.reuse / canonical.orbit) ------

TEST(RunReport, ReuseRecordsAggregateRenderAndBaseline) {
  RunReport rep;
  ingest(rep, {
    R"({"type":"valency.reuse","config":7,"procs":[0,1],"expanded":100,"reused":300,"visited":400,"from_facts":false,"truncated":false,"can0":true,"can1":true,"replay_ok":true,"graph_nodes":120,"facts":80})",
    R"({"type":"valency.reuse","config":9,"procs":[2],"expanded":0,"reused":0,"visited":1,"from_facts":true,"truncated":false,"can0":true,"can1":false,"replay_ok":true,"graph_nodes":121,"facts":81})",
    R"({"type":"canonical.orbit","config":7,"canonical":3,"procs":[0,1],"identity":false})",
  });
  EXPECT_EQ(rep.reuse_records(), 2u);
  EXPECT_EQ(rep.replay_failures(), 0u);
  EXPECT_DOUBLE_EQ(rep.reuse_rate(), 0.75);  // 300 / (100 + 300)
  EXPECT_TRUE(rep.consistent());

  std::ostringstream text;
  rep.render_text(text, 5);
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
        "\"orbit_nonidentity\":1"}) {
    EXPECT_NE(baseline.find(want), std::string::npos)
        << want << " missing from " << baseline;
  }
}

TEST(RunReport, WitnessReplayFailureFailsTheReport) {
  const std::string path = ::testing::TempDir() + "forensics_replay.jsonl";
  {
    std::ofstream out(path);
    out << R"({"type":"valency.reuse","config":7,"procs":[0,1],"expanded":10,"reused":5,"visited":12,"from_facts":false,"truncated":false,"can0":true,"can1":false,"replay_ok":false,"graph_nodes":12,"facts":4})"
        << "\n";
  }
  std::ostringstream report_text;
  EXPECT_EQ(analyze_files({path}, 5, "", report_text), 1)
      << "an unsound witness must fail tsb report";
  EXPECT_NE(report_text.str().find("REPLAY FAILURES"), std::string::npos)
      << report_text.str();

  RunReport rep;
  ingest_file(rep, path);
  rep.finalize();
  EXPECT_EQ(rep.replay_failures(), 1u);
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
  EXPECT_EQ(analyze_files({path}, 5, "", devnull), 1)
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
  EXPECT_EQ(analyze_files({path}, 5, "", report_text), 0)
      << "budget truncation is a clean outcome, not a report failure";
  EXPECT_NE(report_text.str().find("budget exhausted"), std::string::npos);
}

}  // namespace
}  // namespace tsb::report

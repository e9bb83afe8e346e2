// The CLI's flag parsing is pure (tools/tsb_flags.hpp): it classifies argv
// without opening sinks or toggling globals, which is what lets these tests
// exercise every parse path without side effects.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tsb_flags.hpp"

namespace tsb::cli {
namespace {

TEST(ParseArgs, FileFlagsLandInTheirFields) {
  const auto r = parse_args({"--trace=t.jsonl", "--stats=s.jsonl",
                             "--baseline=b.json", "--metrics", "--progress"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.trace_file, "t.jsonl");
  EXPECT_EQ(r.flags.stats_file, "s.jsonl");
  EXPECT_EQ(r.flags.baseline_file, "b.json");
  EXPECT_TRUE(r.flags.metrics);
  EXPECT_TRUE(r.flags.progress);
  EXPECT_TRUE(r.args.empty());
}

TEST(ParseArgs, EmptyFileArgumentsAreErrors) {
  for (const char* bad : {"--trace=", "--stats=", "--baseline="}) {
    EXPECT_FALSE(parse_args({bad}).ok) << bad;
  }
}

TEST(ParseArgs, FlagsMayAppearAnywhereAmongPositionals) {
  const auto r =
      parse_args({"report", "run.jsonl", "--top=7", "audit.jsonl"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.top, 7);
  EXPECT_EQ(r.args,
            (std::vector<std::string>{"report", "run.jsonl", "audit.jsonl"}));
}

TEST(ParseArgs, ValencyCapAndTopValidation) {
  const auto ok = parse_args({"--valency-cap=5000", "--top=1"});
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.flags.valency_cap, 5000u);
  EXPECT_EQ(ok.flags.top, 1);
  EXPECT_FALSE(parse_args({"--valency-cap=0"}).ok);
  // The whole value must be a decimal >= 1: no sign wrapping to 2^64-5, no
  // trailing garbage silently dropped, no overflow.
  for (const char* bad :
       {"--valency-cap=-5", "--valency-cap=12abc", "--valency-cap=",
        "--valency-cap= 5", "--valency-cap=+5",
        "--valency-cap=99999999999999999999999"}) {
    const auto r = parse_args({"adversary", bad});
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_NE(r.error.find("--valency-cap"), std::string::npos) << r.error;
  }
  EXPECT_FALSE(parse_args({"--top=0"}).ok);
  EXPECT_FALSE(parse_args({"--top=-2"}).ok);
}

TEST(ParseArgs, UnknownFlagIsAnError) {
  const auto r = parse_args({"adversary", "--frobnicate"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--frobnicate"), std::string::npos) << r.error;
  // The exploration engine is sequential; its old tuning flags are gone.
  // The decision trail and telemetry ride --stats; the status file is gone.
  for (const char* gone :
       {"--threads=4", "--chunk-configs=64", "--parallel-threshold=1024",
        "--audit=a.jsonl", "--telemetry=run.tsl", "--status-file=st.json"}) {
    const auto g = parse_args({"adversary", gone});
    EXPECT_FALSE(g.ok) << gone;
    EXPECT_NE(g.error.find("unknown flag"), std::string::npos) << g.error;
  }
}

TEST(ParseArgs, DefaultsMatchTheDocumentedOnes) {
  const auto r = parse_args({});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.top, 5);
  EXPECT_EQ(r.flags.valency_cap, 0u);
  EXPECT_FALSE(r.flags.metrics);
  EXPECT_FALSE(r.flags.progress);
  EXPECT_EQ(r.flags.runs, 100);
  EXPECT_EQ(r.flags.seed, 1u);
  EXPECT_EQ(r.flags.mix, "all");
  EXPECT_EQ(r.flags.targets, "all");
  EXPECT_EQ(r.flags.chaos_n, 4);
  EXPECT_EQ(r.flags.run_timeout_ms, 5'000u);
  EXPECT_EQ(r.flags.mem_budget, 0u);
  EXPECT_EQ(r.flags.time_budget_ms, 0u);
}

TEST(ParseArgs, ChaosFlagsAcceptBothForms) {
  // The chaos/budget flags take --flag=V and --flag V; both must parse to
  // the same result.
  const auto eq = parse_args({"chaos", "--runs=250", "--seed=9",
                              "--mix=crash,stall", "--targets=ballot,bakery",
                              "--n=6", "--run-timeout-ms=750",
                              "--out=c.jsonl"});
  const auto sp = parse_args({"chaos", "--runs", "250", "--seed", "9",
                              "--mix", "crash,stall", "--targets",
                              "ballot,bakery", "--n", "6", "--run-timeout-ms",
                              "750", "--out", "c.jsonl"});
  for (const auto* r : {&eq, &sp}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->flags.runs, 250);
    EXPECT_EQ(r->flags.seed, 9u);
    EXPECT_EQ(r->flags.mix, "crash,stall");
    EXPECT_EQ(r->flags.targets, "ballot,bakery");
    EXPECT_EQ(r->flags.chaos_n, 6);
    EXPECT_EQ(r->flags.run_timeout_ms, 750u);
    EXPECT_EQ(r->flags.chaos_file, "c.jsonl");
    EXPECT_EQ(r->args, (std::vector<std::string>{"chaos"}));
  }
}

TEST(ParseArgs, ChaosFlagValidation) {
  EXPECT_FALSE(parse_args({"--runs=0"}).ok);
  EXPECT_FALSE(parse_args({"--runs=-5"}).ok);  // no wrap to a huge count
  EXPECT_FALSE(parse_args({"--seed=-1"}).ok);
  EXPECT_FALSE(parse_args({"--runs"}).ok);  // missing value
  EXPECT_FALSE(parse_args({"--n=1"}).ok);
  EXPECT_FALSE(parse_args({"--n=65"}).ok);
  EXPECT_FALSE(parse_args({"--out="}).ok);
  EXPECT_FALSE(parse_args({"--mix="}).ok);
  EXPECT_FALSE(parse_args({"--seed=abc"}).ok);
}

TEST(ParseBytes, SuffixesAndRejects) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_bytes("123", &v));
  EXPECT_EQ(v, 123u);
  EXPECT_TRUE(parse_bytes("64k", &v));
  EXPECT_EQ(v, 64u << 10);
  EXPECT_TRUE(parse_bytes("256M", &v));
  EXPECT_EQ(v, 256u << 20);
  EXPECT_TRUE(parse_bytes("2g", &v));
  EXPECT_EQ(v, 2ull << 30);
  EXPECT_FALSE(parse_bytes("", &v));
  EXPECT_FALSE(parse_bytes("k", &v));
  EXPECT_FALSE(parse_bytes("12q", &v));
  EXPECT_FALSE(parse_bytes("12kb", &v));
  EXPECT_FALSE(parse_bytes("-5", &v));
  EXPECT_FALSE(parse_bytes(" 5k", &v));
}

TEST(ParseArgs, BudgetFlags) {
  const auto r = parse_args({"adversary", "--mem-budget=512m",
                             "--time-budget-ms", "30000", "6"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.mem_budget, 512ull << 20);
  EXPECT_EQ(r.flags.time_budget_ms, 30'000u);
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "6"}));
  EXPECT_FALSE(parse_args({"--mem-budget=0"}).ok);
  EXPECT_FALSE(parse_args({"--mem-budget=lots"}).ok);
  EXPECT_FALSE(parse_args({"--time-budget-ms=0"}).ok);
}

TEST(ParseArgs, IntrospectionFlags) {
  const auto r = parse_args({"adversary", "--progress-interval-ms=250",
                             "--flight", "fl.jsonl", "--profile",
                             "--profile-hz=97", "5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.progress_interval_ms, 250u);
  EXPECT_EQ(r.flags.flight_file, "fl.jsonl");
  EXPECT_TRUE(r.flags.profile);
  EXPECT_EQ(r.flags.profile_hz, 97);
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "5"}));
}

TEST(ParseArgs, IntrospectionDefaults) {
  const auto r = parse_args({"adversary"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.progress_interval_ms, 1'000u);
  EXPECT_TRUE(r.flags.flight_file.empty());
  EXPECT_FALSE(r.flags.profile);
  EXPECT_EQ(r.flags.profile_hz, 200);
  EXPECT_FALSE(r.flags.once);
}

TEST(ParseArgs, IntrospectionValidation) {
  EXPECT_FALSE(parse_args({"--progress-interval-ms=0"}).ok);
  EXPECT_FALSE(parse_args({"--progress-interval-ms=fast"}).ok);
  EXPECT_FALSE(parse_args({"--progress-interval-ms=-1"}).ok);
  EXPECT_FALSE(parse_args({"--flight="}).ok);
  EXPECT_FALSE(parse_args({"--profile-hz=0"}).ok);
  EXPECT_FALSE(parse_args({"--profile-hz=20000"}).ok);
  EXPECT_FALSE(parse_args({"--flight"}).ok);  // missing value
}

TEST(ParseArgs, SpillFlagsAcceptBothFormsAndByteSuffixes) {
  const auto eq = parse_args({"adversary", "--spill-threshold=2g",
                              "--spill-dir=/var/tmp", "--spill-seg-configs=512",
                              "7"});
  const auto sp = parse_args({"adversary", "--spill-threshold", "2g",
                              "--spill-dir", "/var/tmp", "--spill-seg-configs",
                              "512", "7"});
  for (const auto* r : {&eq, &sp}) {
    ASSERT_TRUE(r->ok) << r->error;
    EXPECT_EQ(r->flags.spill_threshold, 2ull << 30);
    EXPECT_EQ(r->flags.spill_dir, "/var/tmp");
    EXPECT_EQ(r->flags.spill_seg_configs, 512u);
    EXPECT_EQ(r->args, (std::vector<std::string>{"adversary", "7"}));
  }
}

TEST(ParseArgs, SpillDefaultsAndValidation) {
  const auto r = parse_args({"adversary"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.spill_threshold, 0u);  // 0 = spilling off
  EXPECT_EQ(r.flags.spill_dir, ".");
  EXPECT_EQ(r.flags.spill_seg_configs, 0u);
  EXPECT_FALSE(parse_args({"--spill-threshold=0"}).ok);
  EXPECT_FALSE(parse_args({"--spill-threshold=big"}).ok);
  EXPECT_FALSE(parse_args({"--spill-threshold"}).ok);  // missing value
  EXPECT_FALSE(parse_args({"--spill-dir="}).ok);
  EXPECT_FALSE(parse_args({"--spill-seg-configs=0"}).ok);
}

TEST(ParseArgs, MonitorSubcommandOnce) {
  const auto r = parse_args({"monitor", "run.jsonl", "--once"});
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.flags.once);
  EXPECT_EQ(r.args, (std::vector<std::string>{"monitor", "run.jsonl"}));
}

TEST(ParseArgs, CompareAndTolerance) {
  const auto r = parse_args(
      {"report", "--compare", "a.jsonl", "b.jsonl", "--tolerance=10.5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.flags.compare);
  EXPECT_DOUBLE_EQ(r.flags.tolerance, 10.5);
  EXPECT_EQ(r.args,
            (std::vector<std::string>{"report", "a.jsonl", "b.jsonl"}));
  const auto d = parse_args({"report", "x.jsonl"});
  ASSERT_TRUE(d.ok);
  EXPECT_FALSE(d.flags.compare);
  EXPECT_DOUBLE_EQ(d.flags.tolerance, 25.0);
  EXPECT_FALSE(parse_args({"--tolerance=-3"}).ok);
  EXPECT_FALSE(parse_args({"--tolerance=loose"}).ok);
  EXPECT_FALSE(parse_args({"--tolerance="}).ok);
  EXPECT_FALSE(parse_args({"--tolerance"}).ok);  // missing value
}

}  // namespace
}  // namespace tsb::cli

// The CLI's flag parsing is pure (tools/tsb_flags.hpp): it classifies argv
// without opening sinks or toggling globals, which is what lets these tests
// exercise every parse path without side effects.
#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "tsb_flags.hpp"

namespace tsb::cli {
namespace {

TEST(ParseArgs, FileFlagsLandInTheirFields) {
  const auto r = parse_args({"--trace=t.jsonl", "--stats=s.jsonl",
                             "--flight=f.jsonl", "--metrics", "--progress"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.trace_file, "t.jsonl");
  EXPECT_EQ(r.flags.stats_file, "s.jsonl");
  EXPECT_EQ(r.flags.flight_file, "f.jsonl");
  EXPECT_TRUE(r.flags.metrics);
  EXPECT_TRUE(r.flags.progress);
  EXPECT_TRUE(r.args.empty());
}

TEST(ParseArgs, EmptyFileArgumentsAreErrors) {
  for (const char* bad : {"--trace=", "--stats=", "--flight="}) {
    EXPECT_FALSE(parse_args({bad}).ok) << bad;
  }
}

TEST(ParseArgs, TraceStatsAndValencyCapAcceptBothForms) {
  const auto r = parse_args({"adversary", "5", "--stats", "s.jsonl", "--trace",
                             "t.jsonl", "--valency-cap", "7"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.stats_file, "s.jsonl");
  EXPECT_EQ(r.flags.trace_file, "t.jsonl");
  EXPECT_EQ(r.flags.valency_cap, 7u);
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "5"}));
  // A trailing value flag with nothing after it names the flag.
  for (const char* flag : {"--stats", "--trace", "--valency-cap"}) {
    const auto bad = parse_args({"adversary", flag});
    EXPECT_FALSE(bad.ok) << flag;
    EXPECT_NE(bad.error.find(flag), std::string::npos) << bad.error;
    EXPECT_EQ(bad.error.find("unknown flag"), std::string::npos) << bad.error;
  }
}

TEST(ParseArgs, FlagsMayAppearAnywhereAmongPositionals) {
  const auto r = parse_args({"check", "ballot", "--metrics", "3"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.flags.metrics);
  EXPECT_EQ(r.args, (std::vector<std::string>{"check", "ballot", "3"}));
}

TEST(ParseArgs, ValencyCapAndTopValidation) {
  const auto ok = parse_args({"--valency-cap=5000"});
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.flags.valency_cap, 5000u);
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
}

TEST(ParseArgs, UnknownFlagIsAnError) {
  const auto r = parse_args({"adversary", "--frobnicate"});
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--frobnicate"), std::string::npos) << r.error;
  // The exploration engine is sequential; its old tuning flags are gone.
  // The decision trail and telemetry ride --stats; the status file is gone.
  // The sampling profiler is gone; self time comes from the trace.
  // `tsb report FILE` is the one-frame monitor view, so --once is gone.
  // The report has no knobs: it always prints the baseline line, keeps the
  // top 5 rows and gates --compare at 25%.
  for (const char* gone :
       {"--threads=4", "--chunk-configs=64", "--parallel-threshold=1024",
        "--audit=a.jsonl", "--telemetry=run.tsl", "--status-file=st.json",
        "--profile", "--profile-hz=97", "--once", "--baseline=b.json",
        "--top=7", "--tolerance=10.5"}) {
    const auto g = parse_args({"adversary", gone});
    EXPECT_FALSE(g.ok) << gone;
    EXPECT_NE(g.error.find("unknown flag"), std::string::npos) << g.error;
  }
}

TEST(ParseArgs, DefaultsMatchTheDocumentedOnes) {
  const auto r = parse_args({});
  ASSERT_TRUE(r.ok);
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
  // A count past INT_MAX is refused, never wrapped to a 0-run campaign.
  const auto max = parse_args({"--runs=2147483647"});
  ASSERT_TRUE(max.ok) << max.error;
  EXPECT_EQ(max.flags.runs, 2147483647);
  for (const char* bad : {"--runs=2147483648", "--runs=4294967296",
                          "--runs=+3", "--runs= 3"}) {
    const auto r = parse_args({"chaos", bad, "--out", "c.jsonl"});
    EXPECT_FALSE(r.ok) << bad;
    EXPECT_NE(r.error.find("--runs"), std::string::npos) << r.error;
  }
  EXPECT_FALSE(parse_args({"--runs", "4294967296"}).ok);
}

TEST(Positional, StrictDecimalInRangeOrAbsent) {
  const std::vector<std::string> args = {"check", "ballot", "5", "12"};
  std::uint64_t v = 7;
  std::string error;
  EXPECT_TRUE(positional(args, 4, "cap", 1, 100, &v, &error));
  EXPECT_EQ(v, 7u) << "absent: the caller's default stands";
  EXPECT_TRUE(positional(args, 2, "n", 2, 63, &v, &error));
  EXPECT_EQ(v, 5u);
  EXPECT_TRUE(positional(args, 3, "cap", 1, 100, &v, &error));
  EXPECT_EQ(v, 12u);
  EXPECT_TRUE(error.empty());
}

TEST(Positional, ValuesACommandCannotRunWithNameTheArgument) {
  // `tsb check ballot 0`, `tsb mutex -2`, `tsb search -1` used to abort
  // (rc 134) and `tsb adversary abc` ran n = 0 into a "FAILED"
  // construction; main() now exits 2 with this message.
  struct Case {
    std::vector<std::string> args;
    std::size_t i;
    const char* name;
    std::uint64_t lo, hi;
  };
  const Case cases[] = {
      {{"check", "ballot", "0"}, 2, "n", 2, 63},
      {{"check", "ballot", "x"}, 2, "n", 2, 63},
      {{"check", "ballot", "1"}, 2, "n", 2, 63},
      {{"check", "ballot", "3", "0"}, 3, "cap", 1, INT_MAX},
      {{"adversary", "abc"}, 1, "n", 2, 63},
      {{"adversary", "64"}, 1, "n", 2, 63},
      {{"adversary", "4", "-8"}, 2, "cap", 1, INT_MAX},
      {{"resume", "ck", "5x"}, 2, "n", 2, 63},
      {{"mutex", "0"}, 1, "n", 2, INT_MAX},
      {{"mutex", "-2"}, 1, "n", 2, INT_MAX},
      {{"perturb", "1"}, 1, "n", 2, INT_MAX},
      {{"search", "-1"}, 1, "modes", 1, 128},
      {{"search", "0"}, 1, "modes", 1, 128},
      {{"search", "1", "+5"}, 2, "cap", 0, UINT64_MAX},
      {{"mutex", "99999999999999999999999"}, 1, "n", 2, INT_MAX},
      {{"mutex", ""}, 1, "n", 2, INT_MAX},
  };
  for (const Case& c : cases) {
    std::uint64_t v = 99;
    std::string error;
    EXPECT_FALSE(positional(c.args, c.i, c.name, c.lo, c.hi, &v, &error))
        << c.args[c.i];
    EXPECT_EQ(v, 99u);
    EXPECT_EQ(error.rfind(std::string("bad ") + c.name + " '" + c.args[c.i] +
                              "'",
                          0),
              0u)
        << error;
  }
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
  // The largest exact multiple of each unit fits in 64 bits; one unit
  // more would wrap (17179869185g used to read as 1 GiB).
  EXPECT_TRUE(parse_bytes("17179869183g", &v));
  EXPECT_EQ(v, UINT64_MAX - ((std::uint64_t{1} << 30) - 1));
  EXPECT_FALSE(parse_bytes("17179869184g", &v));
  EXPECT_TRUE(parse_bytes("17592186044415m", &v));
  EXPECT_EQ(v, UINT64_MAX - ((std::uint64_t{1} << 20) - 1));
  EXPECT_FALSE(parse_bytes("17592186044416m", &v));
  EXPECT_TRUE(parse_bytes("18014398509481983k", &v));
  EXPECT_EQ(v, UINT64_MAX - ((std::uint64_t{1} << 10) - 1));
  EXPECT_FALSE(parse_bytes("18014398509481984k", &v));
  EXPECT_TRUE(parse_bytes("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
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
  EXPECT_TRUE(parse_args({"adversary", "--mem-budget=17179869183g"}).ok);
  const auto wrap = parse_args({"adversary", "--mem-budget=17179869185g"});
  EXPECT_FALSE(wrap.ok);
  EXPECT_NE(wrap.error.find("--mem-budget"), std::string::npos) << wrap.error;
  EXPECT_FALSE(parse_args({"--time-budget-ms=0"}).ok);
}

TEST(ParseArgs, IntrospectionFlags) {
  const auto r = parse_args({"adversary", "--progress-interval-ms=250",
                             "--flight", "fl.jsonl", "5"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.flags.progress_interval_ms, 250u);
  EXPECT_EQ(r.flags.flight_file, "fl.jsonl");
  EXPECT_EQ(r.args, (std::vector<std::string>{"adversary", "5"}));
}

TEST(ParseArgs, IntrospectionDefaults) {
  const auto r = parse_args({"adversary"});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.flags.progress_interval_ms, 1'000u);
  EXPECT_TRUE(r.flags.flight_file.empty());
}

TEST(ParseArgs, IntrospectionValidation) {
  EXPECT_FALSE(parse_args({"--progress-interval-ms=0"}).ok);
  EXPECT_FALSE(parse_args({"--progress-interval-ms=fast"}).ok);
  EXPECT_FALSE(parse_args({"--progress-interval-ms=-1"}).ok);
  EXPECT_FALSE(parse_args({"--flight="}).ok);
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
  EXPECT_TRUE(parse_args({"adversary", "--spill-threshold=17179869183g"}).ok);
  const auto wrap =
      parse_args({"adversary", "--spill-threshold=18014398509481984k"});
  EXPECT_FALSE(wrap.ok);
  EXPECT_NE(wrap.error.find("--spill-threshold"), std::string::npos)
      << wrap.error;
  EXPECT_FALSE(parse_args({"--spill-threshold"}).ok);  // missing value
  EXPECT_FALSE(parse_args({"--spill-dir="}).ok);
  EXPECT_FALSE(parse_args({"--spill-seg-configs=0"}).ok);
}

TEST(ParseArgs, NoGraphSpillIsAnUnknownFlag) {
  // Edge spilling follows --spill-threshold like the node arena does; the
  // toggle that kept the edge arrays resident is gone, so main() answers
  // it with the usage exit code (2).
  const auto r = parse_args({"adversary", "5", "--spill-threshold=256k",
                             "--no-graph-spill"});
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown flag: --no-graph-spill");
}

// `tsb monitor FILE` only repaints; its one-frame form is `tsb report FILE`,
// so `monitor FILE --once` is refused instead of setting a flag.
TEST(ParseArgs, MonitorSubcommandOnce) {
  const auto r = parse_args({"monitor", "run.jsonl"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.args, (std::vector<std::string>{"monitor", "run.jsonl"}));
  const auto once = parse_args({"monitor", "run.jsonl", "--once"});
  ASSERT_FALSE(once.ok);
  EXPECT_EQ(once.error, "unknown flag: --once");
}

TEST(ParseArgs, CompareAndTolerance) {
  const auto r =
      parse_args({"report", "--compare", "a.jsonl", "b.jsonl"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.flags.compare);
  EXPECT_EQ(r.args,
            (std::vector<std::string>{"report", "a.jsonl", "b.jsonl"}));
  const auto d = parse_args({"report", "x.jsonl"});
  ASSERT_TRUE(d.ok);
  EXPECT_FALSE(d.flags.compare);
  // The gate width is a constant (report::kTolerancePct), not a flag.
  for (const char* gone : {"--tolerance=10.5", "--tolerance"}) {
    const auto g = parse_args({"report", "--compare", "a", "b", gone});
    EXPECT_FALSE(g.ok) << gone;
    EXPECT_NE(g.error.find("unknown flag"), std::string::npos) << g.error;
  }
}

// The flag table is the one place a flag is declared: every (subcommand,
// flag) pair parses exactly when the flag's row lists that subcommand, and
// a refusal names both.
TEST(FlagTable, EachCommandTakesExactlyTheFlagsItsRowsList) {
  ASSERT_EQ(std::size(kFlags), 24u);
  const std::map<std::string, std::size_t> expected = {
      {"adversary", 16}, {"resume", 15}, {"check", 6},  {"search", 6},
      {"mutex", 6},      {"perturb", 6}, {"chaos", 13}, {"report", 1},
      {"monitor", 0}};
  for (const Command& c : kCommands) {
    std::size_t taken = 0;
    for (const Flag& f : kFlags) {
      std::vector<std::string> argv = {c.name, f.name};
      if (f.value != nullptr) {
        argv.push_back(
            std::holds_alternative<std::string ObsFlags::*>(f.field)
                ? "x"
                : std::to_string(f.lo));
      }
      const auto r = parse_args(argv);
      const bool reads = (f.cmds & c.bit) != 0;
      taken += reads;
      EXPECT_EQ(r.ok, reads) << c.name << " " << f.name << ": " << r.error;
      if (!reads) {
        EXPECT_EQ(r.error,
                  std::string("tsb ") + c.name + " does not read " + f.name);
      }
    }
    EXPECT_EQ(taken, expected.at(c.name)) << c.name;
  }
}

TEST(FlagTable, CommandComesFromTheFirstPositional) {
  const auto r = parse_args({"--stats", "s.jsonl", "check", "ballot"});
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_NE(r.cmd, nullptr);
  EXPECT_EQ(r.cmd->bit, kCheck);
  // A value in the --flag V form is never taken for the command.
  const auto v = parse_args({"--out", "report", "chaos"});
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.cmd->bit, kChaos);
  EXPECT_EQ(v.flags.chaos_file, "report");
  // --checkpoint-dir is the adversary's; resume takes its directory as a
  // positional and refuses the flag instead of ignoring it.
  const auto ck = parse_args({"resume", "ck", "4", "--checkpoint-dir=x"});
  EXPECT_EQ(ck.error, "tsb resume does not read --checkpoint-dir");
  const auto bad = parse_args({"frobnicate", "--stats=s.jsonl"});
  EXPECT_EQ(bad.error, "unknown subcommand: frobnicate");
  EXPECT_EQ(parse_args({"--stats=s.jsonl"}).cmd, nullptr);
}

}  // namespace
}  // namespace tsb::cli

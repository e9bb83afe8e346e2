// Seeded mutation test for the stats-stream reader: parse_json,
// RunReport::ingest_line (the one parser of every record type, ticks
// included), analyze_files and compare_timelines. The corpus is the real
// record stream of an adversary n=4 run (decision trail, engine records,
// telemetry ticks, ledger); each mutant is a byte flip, truncation,
// duplication, splice, structural-token swap or nesting bomb of one record.
// Every mutant must end as a parsed record or a counted malformed line —
// never a crash, a hang or undefined behaviour (the ASan+UBSan build runs
// this with the rest of ctest). A second test feeds the alert rules
// hostile tick fields: they read numbers from disk too.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "obs/obs.hpp"
#include "report.hpp"

namespace tsb::report {
namespace {

constexpr std::uint64_t kSeed = 0x5eed2016;
constexpr int kMutants = 20'000;

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// The stats stream of `tsb adversary 4 --stats=...`, recorded in-process
// with a fast heartbeat so telemetry ticks land in it too.
std::vector<std::string> record_corpus() {
  const std::string path = temp_path("mutation_corpus.jsonl");
  if (!obs::stats_sink().open(path)) return {};
  obs::telemetry::reset();
  const auto saved = obs::progress_interval();
  obs::set_progress_interval(std::chrono::milliseconds(1));
  consensus::BallotConsensus proto(4, 8);
  bound::SpaceBoundAdversary adversary(proto);
  const bool ok = adversary.run().ok;
  obs::Sample last;
  last.phase = "done";
  obs::telemetry::tick(last);
  obs::MemLedger::global().emit_record();
  obs::stats_sink().close();
  obs::set_progress_interval(saved);
  std::vector<std::string> lines;
  if (ok) lines = read_lines(path);
  std::remove(path.c_str());
  return lines;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  std::string mutate(std::string rec, const std::string& other) {
    switch (below(6)) {
      case 0: {  // byte flips, any byte value including NUL and newline
        const std::size_t flips = 1 + below(4);
        for (std::size_t i = 0; i < flips && !rec.empty(); ++i) {
          rec[below(rec.size())] = static_cast<char>(rng_() & 0xFF);
        }
        return rec;
      }
      case 1:  // truncation, as a kill -9 mid-append leaves it
        return rec.substr(0, below(rec.size()));
      case 2: {  // duplicate a slice somewhere else
        const std::size_t a = below(rec.size());
        const std::size_t len = below(rec.size() - a + 1);
        rec.insert(below(rec.size() + 1), rec.substr(a, len));
        return rec;
      }
      case 3: {  // nesting bomb: around the record or inside it
        const std::size_t depth = below(8) == 0
                                      ? 100'000 + below(100'000)
                                      : kMaxJsonDepth - 4 + below(8);
        if (below(2) == 0) {
          return std::string(depth, '[') + rec + std::string(depth, ']');
        }
        std::string bomb;
        for (std::size_t i = 0; i < depth; ++i) bomb += "{\"k\":";
        rec.insert(below(rec.size() + 1), bomb);
        return rec;
      }
      case 4:  // splice two records
        return rec.substr(0, below(rec.size() + 1)) +
               other.substr(below(other.size() + 1));
      default: {  // swap structural tokens
        static const char kTokens[] = "{}[]:,\"-0e.";
        const std::size_t swaps = 1 + below(3);
        for (std::size_t i = 0; i < swaps && !rec.empty(); ++i) {
          rec[below(rec.size())] = kTokens[below(sizeof kTokens - 1)];
        }
        return rec;
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

TEST(StreamMutation, EveryMutantParsesOrCountsAsMalformed) {
  const std::vector<std::string> corpus = record_corpus();
  ASSERT_GE(corpus.size(), 50u) << "adversary 4 left too few records";
  // The corpus spans the stream's record families.
  for (const char* type : {"\"telemetry.tick\"", "\"certificate\"",
                           "\"lemma4.", "\"valency\"", "\"ledger\""}) {
    bool seen = false;
    for (const std::string& rec : corpus) {
      seen = seen || rec.find(type) != std::string::npos;
    }
    EXPECT_TRUE(seen) << type;
  }

  Mutator mut(kSeed);
  RunReport rep;
  std::vector<std::string> mutants;
  std::uint64_t rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& rec =
        corpus[static_cast<std::size_t>(i) % corpus.size()];
    std::string m = mut.mutate(rec, corpus[mut.below(corpus.size())]);
    JsonValue v;
    const bool parses = parse_json(m, v) && v.type == JsonValue::Type::kObj;
    const std::uint64_t rep_bad = rep.lines_malformed();
    rep.ingest_line(m);
    if (!parses && !m.empty()) {
      ++rejected;
      EXPECT_EQ(rep.lines_malformed(), rep_bad + 1) << m.substr(0, 160);
    }
    // Keep the files below small: no 200 KB bombs, no embedded newlines
    // (getline would split them into lines the checks above never saw).
    if (m.size() < 4096 && m.find('\n') == std::string::npos) {
      mutants.push_back(std::move(m));
    }
  }
  EXPECT_GT(rejected, static_cast<std::uint64_t>(kMutants / 4))
      << "the mutations must actually break records";
  EXPECT_LT(rejected, static_cast<std::uint64_t>(kMutants))
      << "some mutants must survive as records and reach the aggregates";

  // Whatever survived must aggregate and render without tripping anything.
  rep.finalize();
  std::ostringstream text;
  rep.render_text(text);
  JsonValue baseline;
  EXPECT_TRUE(parse_json(rep.baseline_json(), baseline));
  (void)rep.monotonic();
  (void)rep.active_alerts();
  std::ostringstream section;
  rep.render_telemetry(section);

  // The file-level entry points over the same mutants: two halves, each
  // analysed and compared. Exit codes stay in their documented ranges.
  const std::string a = temp_path("mutants_a.jsonl");
  const std::string b = temp_path("mutants_b.jsonl");
  {
    std::ofstream fa(a, std::ios::trunc);
    std::ofstream fb(b, std::ios::trunc);
    for (std::size_t i = 0; i < mutants.size(); ++i) {
      (i % 2 == 0 ? fa : fb) << mutants[i] << "\n";
    }
  }
  for (const std::string& path : {a, b}) {
    std::ostringstream out;
    const int rc = analyze_files({path}, out);
    EXPECT_TRUE(rc == 0 || rc == 1) << rc;
  }
  std::ostringstream cmp;
  const int rc = compare_timelines(a, b, cmp);
  EXPECT_TRUE(rc >= 0 && rc <= 2) << rc;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

// --- hostile tick fields ---------------------------------------------------

constexpr int kTimelineTicks = 20;

// Tick i of a timeline that arms every alert rule: the rate collapses at
// tick 12, arena.mapped churns while visited stays flat, the ledger races
// toward mem_budget, and the checkpoint age climbs past its 1 s cadence.
// `over` replaces fields by name with raw JSON text.
std::string hostile_tick(int i, const std::map<std::string, std::string>& over) {
  std::map<std::string, std::string> f = {
      {"ts_ns", std::to_string(i * 1'000'000'000LL)},
      {"tick", std::to_string(i)},
      {"visited", std::to_string(500'000 + i)},
      {"frontier", "100"},
      {"cap", "2000000"},
      {"cps", i < 12 ? "1000" : "50"},
      {"deadline_s", "30"},
      {"mem_budget", "1073741824"},
      {"ckpt_age_s", std::to_string(i)},
      {"ckpt_interval_ms", "1000"},
      {"peak_rss_kb", "1024"},
      {"ledger_total", std::to_string((i + 1) * 100'000'000LL)},
      {"arena.mapped", i % 2 == 0 ? "1000000" : "10000"},
  };
  for (const auto& [k, v] : over) f[k] = v;
  std::string line = R"({"type":"telemetry.tick","phase":"explore")";
  for (const auto& [k, v] : f) {
    if (k != "arena.mapped") line += ",\"" + k + "\":" + v;
  }
  return line + R"(,"ledger":{"arena.mapped":)" + f["arena.mapped"] +
         R"(},"counters":{}})";
}

RunReport derive(const std::vector<std::string>& lines) {
  RunReport rep;
  for (const std::string& line : lines) rep.ingest_line(line);
  rep.finalize();
  return rep;
}

std::vector<std::string> timeline(
    const std::map<int, std::map<std::string, std::string>>& over = {}) {
  std::vector<std::string> lines;
  for (int i = 0; i < kTimelineTicks; ++i) {
    const auto it = over.find(i);
    lines.push_back(hostile_tick(i, it != over.end() ? it->second
                                                    : decltype(it->second){}));
  }
  return lines;
}

const RunReport::Alert* find_alert(const RunReport& rep,
                                   const std::string& rule) {
  for (const RunReport::Alert& a : rep.alerts()) {
    if (a.rule == rule) return &a;
  }
  return nullptr;
}

bool fired(const RunReport& rep, const std::string& rule) {
  return find_alert(rep, rule) != nullptr;
}

TEST(StreamMutation, HostileTickFieldsFinalizeAndRender) {
  // The clean timeline arms all four rules, so the sweep below reaches
  // every rule's arithmetic.
  const RunReport clean = derive(timeline());
  for (const char* rule : {"throughput_collapse", "spill_thrash",
                           "ledger_runaway", "checkpoint_stall"}) {
    EXPECT_TRUE(fired(clean, rule)) << rule;
  }

  // Every field, every hostile value, on every tick / the last tick / every
  // other tick: ingest, derive alerts, render. Never a crash or UB.
  const char* fields[] = {"ts_ns", "tick", "visited", "frontier", "cap",
                          "cps", "deadline_s", "mem_budget", "ckpt_age_s",
                          "ckpt_interval_ms", "peak_rss_kb", "ledger_total",
                          "arena.mapped"};
  const char* values[] = {"1e300", "-1e300", "1e999", "-1e999", "-1", "0",
                          "9.3e18", "-9.3e18", "18446744073709551615",
                          "-9223372036854775808", "9223372036854775807",
                          "1e-300", "null", "\"x\"", "nan", "inf"};
  for (const char* field : fields) {
    for (const char* value : values) {
      for (int pattern = 0; pattern < 3; ++pattern) {
        std::map<int, std::map<std::string, std::string>> over;
        for (int i = 0; i < kTimelineTicks; ++i) {
          if (pattern == 0 || (pattern == 1 && i == kTimelineTicks - 1) ||
              (pattern == 2 && i % 2 == 1)) {
            over[i][field] = value;
          }
        }
        const RunReport rep = derive(timeline(over));
        // JSON has no nan/inf literals: those lines are malformed, every
        // other value parses.
        const bool bare = std::string(value) == "nan" ||
                          std::string(value) == "inf";
        EXPECT_EQ(rep.lines_malformed(), bare ? over.size() : 0u)
            << field << "=" << value;
        EXPECT_EQ(rep.ticks().size() + rep.lines_malformed(),
                  static_cast<std::size_t>(kTimelineTicks));
        for (const RunReport::Alert& a : rep.alerts()) {
          EXPECT_FALSE(a.detail.empty()) << a.rule;
        }
        std::ostringstream out;
        rep.render_telemetry(out);
        rep.render_text(out);
      }
    }
  }

  // Non-finite rates disarm the collapse rule; 1e300 saturates in the
  // detail instead of overflowing the cast.
  std::map<int, std::map<std::string, std::string>> inf_tail, inf_head;
  for (int i = 12; i < kTimelineTicks; ++i) inf_tail[i]["cps"] = "1e999";
  for (int i = 0; i < 12; ++i) inf_head[i]["cps"] = "1e999";
  EXPECT_FALSE(fired(derive(timeline(inf_tail)), "throughput_collapse"));
  EXPECT_FALSE(fired(derive(timeline(inf_head)), "throughput_collapse"))
      << "an infinite rate has no vote in the median";
  std::map<int, std::map<std::string, std::string>> huge;
  for (int i = 0; i < 12; ++i) huge[i]["cps"] = "1e300";
  const RunReport sat = derive(timeline(huge));
  const RunReport::Alert* collapse = find_alert(sat, "throughput_collapse");
  ASSERT_NE(collapse, nullptr);
  EXPECT_EQ(collapse->detail,
            "rate 50 configs/s under 30% of trailing median "
            "9223372036854775807");
  std::ostringstream sat_text;
  sat.render_telemetry(sat_text);
  EXPECT_NE(sat_text.str().find("ALERTS"), std::string::npos);

  // Negative ledgers read as no bytes: no runaway, no thrash.
  std::map<int, std::map<std::string, std::string>> negative;
  for (int i = 0; i < kTimelineTicks; ++i) {
    negative[i] = {{"ledger_total", "-5"}, {"arena.mapped", "-1e300"}};
  }
  const RunReport neg = derive(timeline(negative));
  EXPECT_FALSE(fired(neg, "ledger_runaway"));
  EXPECT_FALSE(fired(neg, "spill_thrash"));

  // A huge mem_budget saturates and leaves decades of headroom; a negative
  // one disarms the rule.
  for (const char* budget : {"1e300", "-1073741824"}) {
    std::map<int, std::map<std::string, std::string>> over;
    for (int i = 0; i < kTimelineTicks; ++i) over[i]["mem_budget"] = budget;
    EXPECT_FALSE(fired(derive(timeline(over)), "ledger_runaway")) << budget;
  }
}

}  // namespace
}  // namespace tsb::report

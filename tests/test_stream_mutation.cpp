// Seeded mutation test for the stats-stream readers: parse_json,
// RunReport::ingest_line, Timeline::ingest_line, analyze_files and
// compare_timelines. The corpus is the real record stream of an adversary
// n=4 run (decision trail, engine records, telemetry ticks, ledger); each
// mutant is a byte flip, truncation, duplication, splice, structural-token
// swap or nesting bomb of one record. Every mutant must end as a parsed
// record or a counted malformed line — never a crash, a hang or undefined
// behaviour (the ASan+UBSan build runs this with the rest of ctest).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
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
  Timeline tl;
  std::vector<std::string> mutants;
  std::uint64_t rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    const std::string& rec =
        corpus[static_cast<std::size_t>(i) % corpus.size()];
    std::string m = mut.mutate(rec, corpus[mut.below(corpus.size())]);
    JsonValue v;
    const bool parses = parse_json(m, v) && v.type == JsonValue::Type::kObj;
    const std::uint64_t rep_bad = rep.lines_malformed();
    const std::uint64_t tl_bad = tl.malformed();
    rep.ingest_line(m);
    tl.ingest_line(m);
    if (!parses && !m.empty()) {
      ++rejected;
      EXPECT_EQ(rep.lines_malformed(), rep_bad + 1) << m.substr(0, 160);
      EXPECT_EQ(tl.malformed(), tl_bad + 1) << m.substr(0, 160);
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
  rep.render_text(text, 5);
  JsonValue baseline;
  EXPECT_TRUE(parse_json(rep.baseline_json(), baseline));
  (void)tl.monotonic();
  (void)tl.active_alerts();

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
    const int rc = analyze_files({path}, 5, "", out);
    EXPECT_TRUE(rc == 0 || rc == 1) << rc;
  }
  std::ostringstream cmp;
  const int rc = compare_timelines(a, b, 25.0, cmp);
  EXPECT_TRUE(rc >= 0 && rc <= 2) << rc;
  std::remove(a.c_str());
  std::remove(b.c_str());
}

}  // namespace
}  // namespace tsb::report

// Experiment E3 — cost profile of the lemma machinery: how much search the
// constructive proofs actually perform at each system size (Lemma 1/3/4
// invocations, D_i chain lengths, valency queries and cache behaviour,
// shared-subgraph reuse, schedule lengths).
//
// Usage: bench_lemmas [--no-reuse] [--json=FILE] [--progress-interval-ms=MS]
//                     [max_n]
//   --no-reuse   run the oracle's fresh-BFS-per-query backend (A/B anchor)
//   --json=FILE  machine-readable per-n rows for tools/check_perf.py
// Any other argument is refused with exit 2.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "tsb_flags.hpp"
#include "util/table.hpp"

using namespace tsb;

int main(int argc, char** argv) {
  bool reuse = true;
  std::string json_file;
  int max_n = 5;
  std::uint64_t n = 0, ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-reuse") == 0) {
      reuse = false;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_file = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--progress-interval-ms=", 23) == 0 &&
               cli::parse_u64(argv[i] + 23, &ms) && ms >= 1) {
      obs::set_progress_interval(std::chrono::milliseconds(ms));
    } else if (cli::parse_u64(argv[i], &n) && n >= 2 && n <= 63) {
      max_n = static_cast<int>(n);
    } else {
      std::cerr << "bench_lemmas: bad argument " << argv[i]
                << " (want --no-reuse, --json=FILE, "
                   "--progress-interval-ms=MS >= 1 or max_n in 2..63)\n";
      return 2;
    }
  }
  int rc = 0;

  std::cout << "E3: work performed by the constructive lemmas per system\n"
            << "size (ballot protocol; caps as in E1; "
            << (reuse ? "shared-subgraph engine" : "fresh-BFS backend")
            << ").\n\n";

  util::Table table({"n", "spill", "lemma1", "lemma3", "lemma4", "Di stages",
                     "escapes", "queries", "hit rate %", "expanded",
                     "reused", "reuse %", "facts", "subsumed", "cert steps",
                     "seconds"});
  std::ofstream json;
  if (!json_file.empty()) {
    json.open(json_file);
    if (!json.is_open()) {
      std::cerr << "could not open " << json_file << "\n";
      return 1;
    }
    json << "{\"bench\":\"lemmas\",\"reuse\":" << (reuse ? "true" : "false")
         << ",\"rows\":[";
  }
  bool first_row = true;

  for (int n = 2; n <= max_n; ++n) {
    const int cap = n <= 4 ? 2 * n : 3 * n;
    consensus::BallotConsensus proto(n, cap);
    bound::SpaceBoundAdversary::Options opts;
    opts.reuse = reuse;
    bound::SpaceBoundAdversary adversary(proto, opts);
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = adversary.run();
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!result.ok) {
      std::cout << "n = " << n << " FAILED: " << result.error << "\n";
      continue;
    }
    const auto& ls = result.lemma_stats;
    const double hit_rate =
        result.valency_queries == 0
            ? 0.0
            : 100.0 * static_cast<double>(result.valency_cache_hits) /
                  static_cast<double>(result.valency_queries);
    const double traversals =
        static_cast<double>(result.reach_expanded + result.reach_reused);
    const double reuse_rate =
        traversals > 0
            ? 100.0 * static_cast<double>(result.reach_reused) / traversals
            : 0.0;
    table.row(n, 0, ls.lemma1_calls, ls.lemma3_calls, ls.lemma4_calls,
              ls.total_di_stages, ls.solo_escapes, result.valency_queries,
              hit_rate, result.reach_expanded, result.reach_reused,
              reuse_rate, result.reach_fact_answers,
              result.reach_fact_subsumed, result.certificate.schedule.size(),
              secs);
    // The oracle shares one exploration between both values of a (C, P)
    // pair, so the lemma machinery's bivalence/univalence probes (two
    // queries on the same pair) hit the cache on their second query; only
    // singleton probes (a some_decidable that returns 0) miss alone. That
    // pins the hit rate near 50% (measured 48-53% for n <= 5); well below
    // that means the shared-exploration memo regressed.
    if (hit_rate < 40.0) {
      std::cout << "FAIL: n = " << n << " valency cache hit rate " << hit_rate
                << "% < 40% — pair memo not shared across values?\n";
      rc = 1;
    }
    // The peel loops' overlapping subgraphs are the whole point of the
    // shared engine: by n = 4 a run that never walks a stored edge means
    // the projection/reuse machinery silently stopped firing.
    if (reuse && n >= 4 && result.reach_reused == 0) {
      std::cout << "FAIL: n = " << n
                << " shared-subgraph engine reused zero stored edges\n";
      rc = 1;
    }
    // The peel loops probe strictly shrinking ProcSets at shared roots, so
    // once fact subsumption lets a superset's stored negative answer a
    // subset query, whole pair computations resolve from facts. The first
    // campaign deep enough to revisit a canonical node with a smaller
    // ProcSet after an exhausted superset pass is n = 5 (n = 4 runs 73
    // queries and never does); zero there means the subsuming lookup
    // regressed to exact-key-only.
    if (reuse && n >= 5 && result.reach_fact_answers == 0) {
      std::cout << "FAIL: n = " << n
                << " persisted facts answered zero pair computations\n";
      rc = 1;
    }
    if (json.is_open()) {
      if (!first_row) json << ",";
      first_row = false;
      json << "{\"n\":" << n << ",\"spill\":0"
           << ",\"queries\":" << result.valency_queries
           << ",\"cache_hits\":" << result.valency_cache_hits
           << ",\"hit_rate\":" << hit_rate
           << ",\"expanded\":" << result.reach_expanded
           << ",\"reused\":" << result.reach_reused
           << ",\"reuse_rate\":" << reuse_rate
           << ",\"fact_answers\":" << result.reach_fact_answers
           << ",\"fact_subsumed\":" << result.reach_fact_subsumed
           << ",\"cert_steps\":" << result.certificate.schedule.size()
           << ",\"seconds\":" << secs << "}";
    }

    // Forced-spill leg: same campaign with the node arena AND the edge
    // stores pushed out of core on tiny segments. Spilling is a memory
    // plan, not a semantics change, so every deterministic count must
    // match the resident row bit for bit — and the row is only evidence
    // if edges actually left RAM (graph_spill > 0, gated by
    // tools/check_perf.py).
    if (reuse && n >= 4) {
      bound::SpaceBoundAdversary::Options spill_opts = opts;
      spill_opts.spill_threshold_bytes = 64 * 1024;
      spill_opts.spill_seg_configs = 512;
      bound::SpaceBoundAdversary spilled_adv(proto, spill_opts);
      const auto s0 = std::chrono::steady_clock::now();
      const auto spilled = spilled_adv.run();
      const double ssecs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - s0)
              .count();
      if (!spilled.ok) {
        std::cout << "n = " << n << " (spill) FAILED: " << spilled.error
                  << "\n";
        rc = 1;
        continue;
      }
      if (spilled.valency_queries != result.valency_queries ||
          spilled.reach_expanded != result.reach_expanded ||
          spilled.reach_fact_answers != result.reach_fact_answers ||
          spilled.certificate.schedule.size() !=
              result.certificate.schedule.size()) {
        std::cout << "FAIL: n = " << n
                  << " forced-spill run diverged from the resident run\n";
        rc = 1;
      }
      if (spilled.graph_spilled_bytes == 0) {
        std::cout << "FAIL: n = " << n
                  << " forced-spill run never pushed edge bytes to disk\n";
        rc = 1;
      }
      const double shit_rate =
          spilled.valency_queries == 0
              ? 0.0
              : 100.0 * static_cast<double>(spilled.valency_cache_hits) /
                    static_cast<double>(spilled.valency_queries);
      const double straversals =
          static_cast<double>(spilled.reach_expanded + spilled.reach_reused);
      const double sreuse_rate =
          straversals > 0
              ? 100.0 * static_cast<double>(spilled.reach_reused) / straversals
              : 0.0;
      const auto& sls = spilled.lemma_stats;
      table.row(n, 1, sls.lemma1_calls, sls.lemma3_calls, sls.lemma4_calls,
                sls.total_di_stages, sls.solo_escapes, spilled.valency_queries,
                shit_rate, spilled.reach_expanded, spilled.reach_reused,
                sreuse_rate, spilled.reach_fact_answers,
                spilled.reach_fact_subsumed,
                spilled.certificate.schedule.size(), ssecs);
      if (json.is_open()) {
        json << ",{\"n\":" << n << ",\"spill\":1"
             << ",\"queries\":" << spilled.valency_queries
             << ",\"cache_hits\":" << spilled.valency_cache_hits
             << ",\"hit_rate\":" << shit_rate
             << ",\"expanded\":" << spilled.reach_expanded
             << ",\"reused\":" << spilled.reach_reused
             << ",\"reuse_rate\":" << sreuse_rate
             << ",\"fact_answers\":" << spilled.reach_fact_answers
             << ",\"fact_subsumed\":" << spilled.reach_fact_subsumed
             << ",\"graph_spill\":" << spilled.graph_spilled_bytes
             << ",\"cert_steps\":" << spilled.certificate.schedule.size()
             << ",\"seconds\":" << ssecs << "}";
      }
    }
  }
  table.print(std::cout, "lemma machinery cost profile");
  if (json.is_open()) {
    json << "]}\n";
    std::cerr << "json: rows -> " << json_file << "\n";
  }

  std::cout << "\nReading: the Lemma 4 recursion grows the lemma-call counts\n"
            << "roughly linearly in n while valency queries grow faster —\n"
            << "each query is a P-only reachability problem whose state\n"
            << "space expands with the ballot cap. The reuse column counts\n"
            << "stored projected edges consumed instead of re-simulated;\n"
            << "the peel loops' neighbouring roots project onto the same\n"
            << "subgraphs, which is where the shared engine's speedup lives.\n";
  obs::emit_metrics("bench_lemmas");
  return rc;
}

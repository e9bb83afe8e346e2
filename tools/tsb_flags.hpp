#pragma once

// Flag parsing shared by the tsb CLI and its tests.
//
// parse_args is PURE: it classifies argv into flags + positional arguments
// and reports errors, but applies nothing (no sink is opened, no progress
// toggled) — main() applies the parsed flags, and the tests exercise the
// parse paths without side effects.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace tsb::cli {

struct ObsFlags {
  std::string trace_file;     ///< --trace=FILE (in-memory sink, Chrome/JSONL)
  std::string stats_file;     ///< --stats=FILE (the run record stream JSONL)
  std::string baseline_file;  ///< --baseline=FILE (report: one-line JSON)
  bool metrics = false;       ///< --metrics
  bool progress = false;      ///< --progress

  // In-flight introspection (tsb adversary / tsb chaos / benches).
  std::uint64_t progress_interval_ms = 1'000;  ///< --progress-interval-ms=MS
  std::string flight_file;    ///< --flight=FILE (ring dump path / report input)
  bool profile = false;       ///< --profile (SIGPROF sampling profiler)
  int profile_hz = 200;       ///< --profile-hz=HZ (sampling rate)
  bool once = false;          ///< --once (tsb monitor: one frame and exit)
  std::size_t valency_cap = 0;  ///< --valency-cap=N; 0 = scale with n
  int top = 5;                ///< --top=K (report: hottest registers shown)

  // Chaos campaign flags (tsb chaos). These accept both --flag=V and
  // --flag V forms.
  std::string chaos_file;     ///< --out=FILE (per-run chaos JSONL records)
  int runs = 100;             ///< --runs=N (campaign size)
  std::uint64_t seed = 1;     ///< --seed=S (campaign seed)
  std::string mix = "all";    ///< --mix=crash,stall,yield (subset) | all
  std::string targets = "all";///< --targets=ballot,bakery,... | all
  int chaos_n = 4;            ///< --n=N (processes per run)
  std::uint64_t run_timeout_ms = 5'000;  ///< --run-timeout-ms=MS (per run)

  // Graceful-degradation budgets (tsb adversary). Same two flag forms.
  std::uint64_t mem_budget = 0;      ///< --mem-budget=BYTES[k|m|g]; 0 = off
  std::uint64_t time_budget_ms = 0;  ///< --time-budget-ms=MS; 0 = off

  // Out-of-core spilling (tsb adversary).
  std::string spill_dir = ".";        ///< --spill-dir=DIR (backing file home)
  std::uint64_t spill_threshold = 0;  ///< --spill-threshold=BYTES[k|m|g]; 0=off
  std::uint64_t spill_seg_configs = 0;///< --spill-seg-configs=N; 0 = default
  /// --no-graph-spill: with --spill-threshold set, keep the shared
  /// engine's edge arrays resident (node arena still spills) — the PR 7
  /// memory plan, kept for A/B runs against out-of-core edge storage.
  bool no_graph_spill = false;

  /// --no-reuse: run valency queries on the fresh-BFS-per-query backend
  /// instead of the shared-subgraph engine (differential anchor / A-B
  /// timing). Applies to tsb adversary and the lemma benchmarks.
  bool no_reuse = false;

  // Crash-safe campaigns (tsb adversary / tsb resume). A non-empty dir
  // checkpoints the oracle session at the engines' quiescent points; the
  // cadences pick wall-clock and/or expansion-count triggers (0 disables
  // each; both 0 still checkpoints on SIGTERM/SIGINT). Same two flag forms.
  std::string checkpoint_dir;  ///< --checkpoint-dir=DIR; empty = off
  std::uint64_t checkpoint_interval_ms = 0;  ///< --checkpoint-interval-ms=MS
  std::uint64_t checkpoint_every = 0;  ///< --checkpoint-every=EXPANSIONS

  // Cross-run regression diffing (tsb report --compare A B, stats files).
  bool compare = false;       ///< --compare (report: diff two timelines)
  double tolerance = 25.0;    ///< --tolerance=PCT (compare gate, percent)
};

struct ParseResult {
  bool ok = true;
  std::string error;                ///< set when !ok
  ObsFlags flags;
  std::vector<std::string> args;    ///< positional arguments, in order
};

/// Parse all of `s` as a decimal u64. Unlike bare strtoull, a sign,
/// leading blanks, trailing garbage or an out-of-range value is rejected,
/// so "-5" can never wrap to 2^64-5.
inline bool parse_u64(const std::string& s, std::uint64_t* v) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  *v = std::strtoull(s.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE;
}

/// Parse "123", "64k", "256m", "2g" into bytes (suffix = binary multiple).
/// Returns false on anything else.
inline bool parse_bytes(std::string s, std::uint64_t* bytes) {
  const char unit = s.empty() ? '\0' : s.back();
  const int shift = unit == 'k' || unit == 'K'   ? 10
                    : unit == 'm' || unit == 'M' ? 20
                    : unit == 'g' || unit == 'G' ? 30
                                                 : 0;
  if (shift != 0) s.pop_back();
  if (!parse_u64(s, bytes)) return false;
  *bytes <<= shift;
  return true;
}

inline ParseResult parse_args(const std::vector<std::string>& argv) {
  ParseResult out;
  auto fail = [&](std::string msg) {
    out.ok = false;
    out.error = std::move(msg);
    return out;
  };
  auto file_flag = [](const std::string& a, const char* prefix,
                      std::string& dst) {
    if (a.rfind(prefix, 0) != 0) return false;
    dst = a.substr(std::strlen(prefix));
    return true;
  };
  bool bad_value = false;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    // The newer flags take a value in either form: --flag=V or --flag V.
    auto value_flag = [&](const char* name, std::string* dst) {
      const std::string prefix = std::string(name) + "=";
      if (a.rfind(prefix, 0) == 0) {
        *dst = a.substr(prefix.size());
        return true;
      }
      if (a == name) {
        if (i + 1 >= argv.size()) {
          bad_value = true;
          return true;
        }
        *dst = argv[++i];
        return true;
      }
      return false;
    };
    auto u64_flag = [&](const char* name, std::uint64_t* dst) {
      std::string v;
      if (!value_flag(name, &v)) return false;
      if (!bad_value && !parse_u64(v, dst)) bad_value = true;
      return true;
    };
    std::string sval;
    std::uint64_t uval = 0;
    if (file_flag(a, "--trace=", out.flags.trace_file)) {
      if (out.flags.trace_file.empty()) return fail("--trace needs a file");
    } else if (file_flag(a, "--stats=", out.flags.stats_file)) {
      if (out.flags.stats_file.empty()) return fail("--stats needs a file");
    } else if (file_flag(a, "--baseline=", out.flags.baseline_file)) {
      if (out.flags.baseline_file.empty()) {
        return fail("--baseline needs a file");
      }
    } else if (a == "--no-reuse") {
      out.flags.no_reuse = true;
    } else if (a == "--no-graph-spill") {
      out.flags.no_graph_spill = true;
    } else if (a == "--metrics") {
      out.flags.metrics = true;
    } else if (a == "--progress") {
      out.flags.progress = true;
    } else if (u64_flag("--progress-interval-ms",
                        &out.flags.progress_interval_ms)) {
      if (bad_value || out.flags.progress_interval_ms == 0) {
        return fail("bad --progress-interval-ms (want >= 1)");
      }
    } else if (a == "--compare") {
      out.flags.compare = true;
    } else if (value_flag("--tolerance", &sval)) {
      char* end = nullptr;
      const double v = std::strtod(sval.c_str(), &end);
      if (bad_value || sval.empty() || end == sval.c_str() || *end != '\0' ||
          v < 0.0) {
        return fail("bad --tolerance (want a percentage >= 0)");
      }
      out.flags.tolerance = v;
    } else if (value_flag("--flight", &out.flags.flight_file)) {
      if (bad_value || out.flags.flight_file.empty()) {
        return fail("--flight needs a file");
      }
    } else if (a == "--profile") {
      out.flags.profile = true;
    } else if (u64_flag("--profile-hz", &uval)) {
      if (bad_value || uval == 0 || uval > 10'000) {
        return fail("bad --profile-hz (want 1..10000)");
      }
      out.flags.profile_hz = static_cast<int>(uval);
    } else if (a == "--once") {
      out.flags.once = true;
    } else if (file_flag(a, "--valency-cap=", sval)) {
      if (!parse_u64(sval, &uval) || uval == 0) {
        return fail("bad --valency-cap (want >= 1)");
      }
      out.flags.valency_cap = static_cast<std::size_t>(uval);
    } else if (a.rfind("--top=", 0) == 0) {
      char* end = nullptr;
      const char* s = a.c_str() + std::strlen("--top=");
      const long v = std::strtol(s, &end, 10);
      if (v < 1 || end == s || *end != '\0') return fail("bad --top");
      out.flags.top = static_cast<int>(v);
    } else if (value_flag("--out", &out.flags.chaos_file)) {
      if (bad_value || out.flags.chaos_file.empty()) {
        return fail("--out needs a file");
      }
    } else if (u64_flag("--runs", &uval)) {
      if (bad_value || uval == 0) return fail("bad --runs (want >= 1)");
      out.flags.runs = static_cast<int>(uval);
    } else if (u64_flag("--seed", &out.flags.seed)) {
      if (bad_value) return fail("bad --seed");
    } else if (value_flag("--mix", &out.flags.mix)) {
      if (bad_value || out.flags.mix.empty()) {
        return fail("--mix needs crash,stall,yield (any subset) or all");
      }
    } else if (value_flag("--targets", &out.flags.targets)) {
      if (bad_value || out.flags.targets.empty()) {
        return fail("--targets needs a target list or all");
      }
    } else if (u64_flag("--n", &uval)) {
      if (bad_value || uval < 2 || uval > 64) {
        return fail("bad --n (want 2..64)");
      }
      out.flags.chaos_n = static_cast<int>(uval);
    } else if (u64_flag("--run-timeout-ms", &out.flags.run_timeout_ms)) {
      if (bad_value) return fail("bad --run-timeout-ms");
    } else if (value_flag("--mem-budget", &sval)) {
      if (bad_value || !parse_bytes(sval, &out.flags.mem_budget) ||
          out.flags.mem_budget == 0) {
        return fail("bad --mem-budget (want BYTES with optional k/m/g)");
      }
    } else if (u64_flag("--time-budget-ms", &out.flags.time_budget_ms)) {
      if (bad_value || out.flags.time_budget_ms == 0) {
        return fail("bad --time-budget-ms (want >= 1)");
      }
    } else if (value_flag("--spill-dir", &out.flags.spill_dir)) {
      if (bad_value || out.flags.spill_dir.empty()) {
        return fail("--spill-dir needs a directory");
      }
    } else if (value_flag("--spill-threshold", &sval)) {
      if (bad_value || !parse_bytes(sval, &out.flags.spill_threshold) ||
          out.flags.spill_threshold == 0) {
        return fail("bad --spill-threshold (want BYTES with optional k/m/g)");
      }
    } else if (u64_flag("--spill-seg-configs", &out.flags.spill_seg_configs)) {
      if (bad_value || out.flags.spill_seg_configs == 0) {
        return fail("bad --spill-seg-configs (want >= 1)");
      }
    } else if (value_flag("--checkpoint-dir", &out.flags.checkpoint_dir)) {
      if (bad_value || out.flags.checkpoint_dir.empty()) {
        return fail("--checkpoint-dir needs a directory");
      }
    } else if (u64_flag("--checkpoint-interval-ms",
                        &out.flags.checkpoint_interval_ms)) {
      if (bad_value || out.flags.checkpoint_interval_ms == 0) {
        return fail("bad --checkpoint-interval-ms (want >= 1)");
      }
    } else if (u64_flag("--checkpoint-every", &out.flags.checkpoint_every)) {
      if (bad_value || out.flags.checkpoint_every == 0) {
        return fail("bad --checkpoint-every (want >= 1)");
      }
    } else if (a.rfind("--", 0) == 0) {
      return fail("unknown flag: " + a);
    } else {
      out.args.push_back(a);
    }
  }
  return out;
}

}  // namespace tsb::cli

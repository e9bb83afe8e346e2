#pragma once

// Flag parsing shared by the tsb CLI and its tests.
//
// parse_args is PURE: it classifies argv into flags + positional arguments
// and reports errors, but applies nothing (no sink is opened, no progress
// toggled) — main() applies the parsed flags, and the tests exercise the
// parse paths without side effects.

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace tsb::cli {

struct ObsFlags {
  // `tsb report` and `tsb monitor` read artifacts and refuse the run
  // outputs --stats and --flight (a flight dump is a positional report
  // input).
  std::string trace_file;     ///< --trace=FILE (in-memory sink, Chrome/JSONL)
  std::string stats_file;     ///< --stats=FILE (the run record stream JSONL)
  bool metrics = false;       ///< --metrics
  bool progress = false;      ///< --progress

  // In-flight introspection (tsb adversary / tsb chaos / benches).
  std::uint64_t progress_interval_ms = 1'000;  ///< --progress-interval-ms=MS
  std::string flight_file;    ///< --flight=FILE (ring dump path)
  std::size_t valency_cap = 0;  ///< --valency-cap=N; 0 = scale with n

  // Chaos campaign flags (tsb chaos).
  std::string chaos_file;     ///< --out=FILE (per-run chaos JSONL records)
  int runs = 100;             ///< --runs=N (campaign size, <= INT_MAX)
  std::uint64_t seed = 1;     ///< --seed=S (campaign seed)
  std::string mix = "all";    ///< --mix=crash,stall,yield (subset) | all
  std::string targets = "all";///< --targets=ballot,bakery,... | all
  int chaos_n = 4;            ///< --n=N (processes per run)
  std::uint64_t run_timeout_ms = 5'000;  ///< --run-timeout-ms=MS (per run)

  // Graceful-degradation budgets (tsb adversary).
  std::uint64_t mem_budget = 0;      ///< --mem-budget=BYTES[k|m|g]; 0 = off
  std::uint64_t time_budget_ms = 0;  ///< --time-budget-ms=MS; 0 = off

  // Out-of-core spilling (tsb adversary).
  std::string spill_dir = ".";        ///< --spill-dir=DIR (backing file home)
  std::uint64_t spill_threshold = 0;  ///< --spill-threshold=BYTES[k|m|g]; 0=off
  std::uint64_t spill_seg_configs = 0;///< --spill-seg-configs=N; 0 = default

  /// --no-reuse: run valency queries on the fresh-BFS-per-query backend
  /// instead of the shared-subgraph engine (differential anchor / A-B
  /// timing). Applies to tsb adversary and the lemma benchmarks.
  bool no_reuse = false;

  // Crash-safe campaigns (tsb adversary / tsb resume). A non-empty dir
  // checkpoints the oracle session at the engines' quiescent points; the
  // cadences pick wall-clock and/or expansion-count triggers (0 disables
  // each; both 0 still checkpoints on SIGTERM/SIGINT).
  std::string checkpoint_dir;  ///< --checkpoint-dir=DIR; empty = off
  std::uint64_t checkpoint_interval_ms = 0;  ///< --checkpoint-interval-ms=MS
  std::uint64_t checkpoint_every = 0;  ///< --checkpoint-every=EXPANSIONS

  // Cross-run regression diffing (tsb report --compare A B, stats files;
  // the gate is report::kTolerancePct).
  bool compare = false;       ///< --compare (report: diff two timelines)
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

/// Positional argument args[i] as a decimal in [lo, hi]; *v is left alone
/// (the caller's default) when there are not that many arguments. False on
/// non-numeric text, a sign or an out-of-range value, with *error naming
/// the argument: a value the subcommand cannot run with is a usage error,
/// never an abort mid-run.
inline bool positional(const std::vector<std::string>& args, std::size_t i,
                       const char* name, std::uint64_t lo, std::uint64_t hi,
                       std::uint64_t* v, std::string* error) {
  if (i >= args.size()) return true;
  std::uint64_t x = 0;
  if (parse_u64(args[i], &x) && x >= lo && x <= hi) {
    *v = x;
    return true;
  }
  *error = "bad " + std::string(name) + " '" + args[i] + "' (want " +
           std::to_string(lo) + ".." + std::to_string(hi) + ")";
  return false;
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
  bool bad_value = false;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    // Every value flag takes its value in either form: --flag=V or
    // --flag V.
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
    if (value_flag("--trace", &out.flags.trace_file)) {
      if (bad_value || out.flags.trace_file.empty()) {
        return fail("--trace needs a file");
      }
    } else if (value_flag("--stats", &out.flags.stats_file)) {
      if (bad_value || out.flags.stats_file.empty()) {
        return fail("--stats needs a file");
      }
    } else if (a == "--no-reuse") {
      out.flags.no_reuse = true;
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
    } else if (value_flag("--flight", &out.flags.flight_file)) {
      if (bad_value || out.flags.flight_file.empty()) {
        return fail("--flight needs a file");
      }
    } else if (u64_flag("--valency-cap", &uval)) {
      if (bad_value || uval == 0) return fail("bad --valency-cap (want >= 1)");
      out.flags.valency_cap = static_cast<std::size_t>(uval);
    } else if (value_flag("--out", &out.flags.chaos_file)) {
      if (bad_value || out.flags.chaos_file.empty()) {
        return fail("--out needs a file");
      }
    } else if (u64_flag("--runs", &uval)) {
      if (bad_value || uval == 0 || uval > INT_MAX) {
        return fail("bad --runs (want 1..INT_MAX)");
      }
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

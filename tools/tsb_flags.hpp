#pragma once

// The tsb flag table and its parser, shared by the CLI and its tests.
//
// Every flag is one row of kFlags: its name, its value and bounds, the
// ObsFlags field it sets, the subcommands that read it and one help line.
// parse_args refuses a flag the command does not read, and the CLI's
// usage text is printed from the same rows.
//
// parse_args is PURE: it classifies argv into flags + positional arguments
// and reports errors, but applies nothing (no sink is opened, no progress
// toggled) — main() applies the parsed flags, and the tests exercise the
// parse paths without side effects.

#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace tsb::cli {

/// The parsed flags; each field's meaning is its kFlags row's help line.
struct ObsFlags {
  std::string trace_file, stats_file, flight_file;
  bool metrics = false, progress = false;
  std::uint64_t progress_interval_ms = 1'000;
  std::uint64_t valency_cap = 0;  ///< 0 = scale with n

  std::string chaos_file;
  std::uint64_t runs = 100, chaos_n = 4, seed = 1, run_timeout_ms = 5'000;
  std::string mix = "all", targets = "all";

  // 0 leaves a budget, spilling or a checkpoint cadence off (the default
  // segment size for spill_seg_configs). With a checkpoint_dir and both
  // cadences off, a checkpoint is still written on SIGTERM/SIGINT.
  std::uint64_t mem_budget = 0, time_budget_ms = 0;
  std::string spill_dir = ".";
  std::uint64_t spill_threshold = 0, spill_seg_configs = 0;
  bool no_reuse = false;
  std::string checkpoint_dir;
  std::uint64_t checkpoint_interval_ms = 0, checkpoint_every = 0;

  bool compare = false;
};

/// The subcommands, as bits of a flag row's `cmds` mask. kRun are those
/// that execute a run; report and monitor read artifacts someone else
/// wrote, and must never truncate the file they are about to read.
enum Cmd : unsigned {
  kAdversary = 1 << 0, kResume = 1 << 1, kCheck = 1 << 2, kSearch = 1 << 3,
  kMutex = 1 << 4, kPerturb = 1 << 5, kChaos = 1 << 6, kReport = 1 << 7,
  kMonitor = 1 << 8,
  kRun = kAdversary | kResume | kCheck | kSearch | kMutex | kPerturb | kChaos,
  kConstruct = kAdversary | kResume,  ///< Theorem 1, fresh or resumed
};

struct Command {
  const char* name;
  Cmd bit;
  const char* args;  ///< its positionals
  const char* help;  ///< one line; '\n' continues it
};

inline constexpr Command kCommands[] = {
    {"adversary", kAdversary, "[n=4] [cap=2n]", "Theorem 1 construction"},
    {"resume", kResume, "<dir> [n=4] [cap=2n]",
     "resume a checkpointed campaign (same n,\ncap and flags, or exit 6)"},
    {"check", kCheck, "<proto> [n=2] [cap=2n]",
     "model check ballot | racing-strict |\nracing-atleast | swap"},
    {"search", kSearch, "[modes=1] [cap=0]", "1-register protocol sweep"},
    {"mutex", kMutex, "[n=8]", "mutex cost + covering summary"},
    {"perturb", kPerturb, "[n=5]", "JTT adversary on the counter"},
    {"chaos", kChaos, "", "seeded rt fault campaign"},
    {"report", kReport, "FILE...", "analyze run artifacts (JSONL)"},
    {"monitor", kMonitor, "<stats>", "repaint report's telemetry section"},
};

/// Placeholder of a byte-count value, which takes a k/m/g binary suffix.
inline constexpr char kBytes[] = "BYTES[k|m|g]";

struct Flag {
  const char* name;
  /// Placeholder of the value (--flag=V or --flag V); nullptr for a switch.
  const char* value;
  std::variant<bool ObsFlags::*, std::string ObsFlags::*,
               std::uint64_t ObsFlags::*>
      field;
  unsigned cmds;  ///< the subcommands that read it
  const char* help;  ///< one line; '\n' continues it
  std::uint64_t lo = 0, hi = UINT64_MAX;  ///< bounds of a numeric value
};

inline constexpr Flag kFlags[] = {
    {"--trace", "FILE", &ObsFlags::trace_file, kRun,
     "a trace: JSONL (what report reads) if FILE\n"
     "ends .jsonl, else Chrome JSON"},
    {"--stats", "FILE", &ObsFlags::stats_file, kRun,
     "the run's record stream (JSONL): decision\ntrail, ledger, telemetry"},
    {"--flight", "FILE", &ObsFlags::flight_file, kRun,
     "flight recorder, dumped at exit, budget\ntrip, fatal signal, SIGUSR1"},
    {"--metrics", nullptr, &ObsFlags::metrics, kRun,
     "metrics registry as one JSON line at exit"},
    {"--progress", nullptr, &ObsFlags::progress, kRun, "stderr heartbeat"},
    {"--progress-interval-ms", "MS", &ObsFlags::progress_interval_ms, kRun,
     "heartbeat and telemetry-tick cadence", 1},
    {"--valency-cap", "N", &ObsFlags::valency_cap, kConstruct,
     "valency oracle configuration cap", 1},
    {"--mem-budget", kBytes, &ObsFlags::mem_budget, kConstruct,
     "valency engine heap budget (trip: exit 4)", 1},
    {"--time-budget-ms", "MS", &ObsFlags::time_budget_ms, kConstruct,
     "construction wall-clock budget (trip: exit 4)", 1},
    {"--no-reuse", nullptr, &ObsFlags::no_reuse, kConstruct,
     "fresh-BFS valency backend, not the shared graph"},
    {"--spill-dir", "DIR", &ObsFlags::spill_dir, kConstruct,
     "spill file home (unusable: exit 2)"},
    {"--spill-threshold", kBytes, &ObsFlags::spill_threshold, kConstruct,
     "spill cold segments past this many bytes", 1},
    {"--spill-seg-configs", "N", &ObsFlags::spill_seg_configs, kConstruct,
     "configs per spill segment (testing)", 1},
    {"--checkpoint-dir", "DIR", &ObsFlags::checkpoint_dir, kAdversary,
     "checkpoint here; SIGTERM/SIGINT: stop (exit 5)"},
    {"--checkpoint-interval-ms", "MS", &ObsFlags::checkpoint_interval_ms,
     kConstruct, "wall-clock checkpoint cadence", 1},
    {"--checkpoint-every", "N", &ObsFlags::checkpoint_every, kConstruct,
     "expansion-count checkpoint cadence", 1},
    {"--runs", "N", &ObsFlags::runs, kChaos, "campaign size", 1, INT_MAX},
    {"--seed", "S", &ObsFlags::seed, kChaos, "campaign seed"},
    {"--n", "P", &ObsFlags::chaos_n, kChaos, "processes per run", 2, 64},
    {"--targets", "LIST", &ObsFlags::targets, kChaos,
     "ballot,rounds,randomized,commit-adopt,leader,\n"
     "peterson,tournament,bakery (any subset) or all"},
    {"--mix", "LIST", &ObsFlags::mix, kChaos,
     "crash,stall,yield (any subset) or all"},
    {"--run-timeout-ms", "MS", &ObsFlags::run_timeout_ms, kChaos,
     "per-run wall-clock backstop"},
    {"--out", "FILE", &ObsFlags::chaos_file, kChaos,
     "per-run records (JSONL, a report input)"},
    {"--compare", nullptr, &ObsFlags::compare, kReport,
     "diff two stats files (exit 1 past a 25%\nregression)"},
};

/// The row that sets `field`.
template <typename T>
const Flag& flag_for(T ObsFlags::* field) {
  for (const Flag& f : kFlags) {
    const auto* m = std::get_if<T ObsFlags::*>(&f.field);
    if (m && *m == field) return f;
  }
  std::abort();
}

struct ParseResult {
  bool ok = true;
  std::string error;                ///< set when !ok
  ObsFlags flags;
  std::vector<std::string> args;    ///< positional arguments, in order
  const Command* cmd = nullptr;     ///< args[0]'s row; null without args
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
/// Returns false on anything else, and on a multiple past 2^64 - 1.
inline bool parse_bytes(std::string s, std::uint64_t* bytes) {
  const char unit = s.empty() ? '\0' : s.back();
  const int shift = unit == 'k' || unit == 'K'   ? 10
                    : unit == 'm' || unit == 'M' ? 20
                    : unit == 'g' || unit == 'G' ? 30
                                                 : 0;
  if (shift != 0) s.pop_back();
  if (!parse_u64(s, bytes) || *bytes > (UINT64_MAX >> shift)) return false;
  *bytes <<= shift;
  return true;
}

/// Store `value` into f's field. False when a switch got a value, a value
/// is missing or empty, or a number is malformed or out of f's bounds.
inline bool set_flag(const Flag& f, const std::optional<std::string>& value,
                     ObsFlags* out) {
  if (const auto* on = std::get_if<bool ObsFlags::*>(&f.field)) {
    out->**on = true;
    return !value;
  }
  if (!value || value->empty()) return false;
  if (const auto* text = std::get_if<std::string ObsFlags::*>(&f.field)) {
    out->**text = *value;
    return true;
  }
  std::uint64_t& x = out->*std::get<std::uint64_t ObsFlags::*>(f.field);
  return (f.value == kBytes ? parse_bytes(*value, &x)
                            : parse_u64(*value, &x)) &&
         x >= f.lo && x <= f.hi;
}

inline ParseResult parse_args(const std::vector<std::string>& argv) {
  ParseResult out;
  auto fail = [&](std::string msg) {
    out.ok = false;
    out.error = std::move(msg);
    return out;
  };
  // First split argv, so the command (the first positional) is known
  // before any flag is checked against it. A value flag takes its value
  // as --flag=V or as the next argument.
  std::vector<std::pair<const Flag*, std::optional<std::string>>> given;
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {
      out.args.push_back(a);
      continue;
    }
    const std::size_t eq = a.find('=');
    const Flag* flag = nullptr;
    for (const Flag& f : kFlags) {
      if (a.compare(0, eq, f.name) == 0) flag = &f;
    }
    if (flag == nullptr) return fail("unknown flag: " + a);
    given.emplace_back(flag, std::nullopt);
    if (eq != std::string::npos) {
      given.back().second = a.substr(eq + 1);
    } else if (flag->value != nullptr && i + 1 < argv.size()) {
      given.back().second = argv[++i];
    }
  }
  if (!out.args.empty()) {
    for (const Command& c : kCommands) {
      if (out.args[0] == c.name) out.cmd = &c;
    }
    if (out.cmd == nullptr) return fail("unknown subcommand: " + out.args[0]);
  }
  for (const auto& [f, value] : given) {
    if (out.cmd != nullptr && (f->cmds & out.cmd->bit) == 0) {
      return fail(std::string("tsb ") + out.cmd->name + " does not read " +
                  f->name);
    }
    if (!set_flag(*f, value, &out.flags)) {
      std::string want = f->value ? f->value : "no value";
      if (f->lo > 0 || f->hi < UINT64_MAX) {
        want += " in " + std::to_string(f->lo) + ".." +
                (f->hi < UINT64_MAX ? std::to_string(f->hi) : "");
      }
      return fail(std::string("bad ") + f->name + " (want " + want + ")");
    }
  }
  return out;
}

}  // namespace tsb::cli

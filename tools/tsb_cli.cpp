// tsb — command-line front end to the library's machinery: Theorem 1's
// construction and its independent certificate check, the model checker,
// the protocol sweep, the mutex and perturbation adversaries, the chaos
// campaign and the artifact analyzer. `tsb` with no arguments prints each
// subcommand with the flags it reads, from the one flag table
// (tsb_flags.hpp); a flag its subcommand does not read is a usage error.
// TSB_IO_FAULT=kind[:countdown] (enospc|short_write|eintr|torn_rename|
// bitflip) arms hostile-I/O injection on the checkpoint/spill writers.
//
// Exit codes (distinct so CI can tell misuse from refutation):
//   0  success
//   1  violation / failed construction / report inconsistency
//   2  usage error: unknown subcommand, unknown protocol, bad positional,
//      unknown or malformed flag, a flag the subcommand does not read,
//      unusable --spill-dir/--trace/--stats/--flight, an unreadable
//      artifact or a Chrome trace_event document given to `tsb report`
//      (what `tsb report --chrome` prints; --trace always writes JSONL)
//   3  chaos campaign clean of violations but some runs timed out
//   4  budget exhausted (adversary stopped by --mem-budget/--time-budget-ms)
//      or a failed write (checkpoint, spill, exit-time trace/flight dump,
//      the --stats or --out record stream)
//   5  checkpointed and stopped (SIGTERM/SIGINT at a quiescent point after
//      a final checkpoint; resume later with `tsb resume DIR`)
//   6  checkpoint refused (bad CRC, truncated section, format version or
//      flag-fingerprint mismatch — resume never runs on doubtful state)
#include <csignal>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "consensus/historyless.hpp"
#include "consensus/racing.hpp"
#include "mutex/burns_lynch.hpp"
#include "mutex/canonical.hpp"
#include "mutex/peterson.hpp"
#include "mutex/tournament.hpp"
#include "obs/obs.hpp"
#include "perturb/counter.hpp"
#include "perturb/perturbation.hpp"
#include "report.hpp"
#include "rt/chaos.hpp"
#include "sim/model_checker.hpp"
#include "sim/protocol_search.hpp"
#include "tsb_flags.hpp"
#include "util/checkpoint.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"

using namespace tsb;
using cli::ObsFlags;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitTimeout = 3;
constexpr int kExitBudget = 4;
constexpr int kExitStopped = 5;      ///< checkpointed-and-stopped (resumable)
constexpr int kExitCkptInvalid = 6;  ///< checkpoint refused (corrupt/mismatch)

// Every subcommand with the flags it reads, then every flag, from the
// tables in tsb_flags.hpp.
int usage() {
  constexpr int kCol = 33;  // help column; a '\n' in a help line continues
  const auto row = [](const std::string& head, const char* help) {
    std::cerr << "  " << std::left << std::setw(kCol - 2) << head;
    for (const char* c = help; *c != '\0'; ++c) {
      std::cerr << *c << (*c == '\n' ? std::string(kCol, ' ') : "");
    }
    std::cerr << "\n";
  };
  std::cerr << "usage: tsb COMMAND [ARGS] [FLAGS]  (a flag may go anywhere; "
               "it takes\n       a value as --flag=V or --flag V)\n";
  for (const cli::Command& c : cli::kCommands) {
    row(std::string(c.name) + " " + c.args, c.help);
    std::string line = "     ";
    for (const cli::Flag& f : cli::kFlags) {
      if ((f.cmds & c.bit) == 0) continue;
      if (line.size() + std::strlen(f.name) >= 79) {
        std::cerr << line << "\n";
        line = "     ";
      }
      line = line + " " + f.name;
    }
    std::cerr << (line.size() > 5 ? line : "      (no flags)") << "\n";
  }
  std::cerr << "flags:\n";
  for (const cli::Flag& f : cli::kFlags) {
    row(f.value ? std::string(f.name) + "=" + f.value : f.name, f.help);
  }
  std::cerr << "exit codes: 0 ok, 1 violation/failed construction, 2 usage "
               "error,\n"
               "            3 chaos timeouts (no violation), 4 budget exhausted,\n"
               "            5 checkpointed and stopped, 6 checkpoint refused\n";
  return kExitUsage;
}

// Smallest ballot cap for which BallotConsensus both solo-terminates and
// satisfies the adversary's valency demands, found by sweeping (EXPERIMENTS.md).
int default_ballot_cap(int n) {
  if (n <= 4) return 2 * n;
  if (n == 5) return 3 * n;
  return 5 * n - 2;  // n=6 -> 28, verified; extrapolated beyond
}

// The valency oracle explores far more configurations at the caps n >= 6
// needs; 2M is comfortable through n=5 and unsound beyond it.
std::size_t default_valency_cap(int n) {
  return n <= 5 ? 2'000'000 : 40'000'000;
}

std::unique_ptr<sim::Protocol> make_protocol(const std::string& name, int n,
                                             int cap) {
  if (name == "ballot") return std::make_unique<consensus::BallotConsensus>(n, cap);
  if (name == "racing-strict") {
    return std::make_unique<consensus::RacingConsensus>(
        n, consensus::RacingConsensus::AdoptRule::kStrictMajority);
  }
  if (name == "racing-atleast") {
    return std::make_unique<consensus::RacingConsensus>(
        n, consensus::RacingConsensus::AdoptRule::kAtLeast);
  }
  if (name == "swap") return std::make_unique<consensus::SwapConsensus>(n);
  return nullptr;
}

// `checkpoint_dir` + `resume` come from the subcommand (`tsb resume DIR`
// takes the directory as a positional, `tsb adversary` as a flag);
// everything else rides the shared flag set so a resumed run reconstructs
// the exact options — the manifest fingerprint check refuses anything that
// would change verdicts or state layout.
int cmd_adversary(int n, int cap, const ObsFlags& obs_flags,
                  const std::string& checkpoint_dir, bool resume) {
  consensus::BallotConsensus proto(n, cap);
  bound::SpaceBoundAdversary::Options opts;
  opts.narrative = true;
  opts.valency_max_configs = obs_flags.valency_cap
                                 ? obs_flags.valency_cap
                                 : default_valency_cap(n);
  opts.valency_max_arena_bytes =
      static_cast<std::size_t>(obs_flags.mem_budget);
  opts.valency_time_budget_ms = obs_flags.time_budget_ms;
  opts.reuse = !obs_flags.no_reuse;
  opts.spill_dir = obs_flags.spill_dir;
  opts.spill_threshold_bytes =
      static_cast<std::size_t>(obs_flags.spill_threshold);
  opts.spill_seg_configs =
      static_cast<std::size_t>(obs_flags.spill_seg_configs);
  opts.checkpoint_dir = checkpoint_dir;
  opts.checkpoint_interval_ms = obs_flags.checkpoint_interval_ms;
  opts.checkpoint_every = obs_flags.checkpoint_every;
  opts.resume = resume;
  bound::SpaceBoundAdversary adversary(proto, opts);
  const auto result = adversary.run();
  if (result.stopped) {
    // A graceful stop, not a failure: the final checkpoint (if a directory
    // is configured) holds everything the campaign learned so far.
    std::cout << "CHECKPOINTED AND STOPPED: " << result.error << "\n";
    if (!checkpoint_dir.empty()) {
      std::cout << "resume with: tsb resume " << checkpoint_dir << " " << n
                << " " << cap << "\n";
    }
    return kExitStopped;
  }
  if (result.budget_exhausted) {
    // Clean truncation, not a refutation: the construction was stopped by
    // a configured budget before it could finish either way. The ledger
    // says which subsystem held the bytes when the trip fired.
    std::cout << "BUDGET EXHAUSTED: " << result.error << "\n";
    obs::MemLedger::global().render(std::cout);
    return kExitBudget;
  }
  if (!result.ok) {
    std::cout << "FAILED: " << result.error << "\n";
    return kExitViolation;
  }
  std::cout << result.narrative << "\n";
  if (opts.reuse) {
    std::cout << "engine: expanded " << result.reach_expanded << " reused "
              << result.reach_reused << " fact-answered "
              << result.reach_fact_answers << " fact-subsumed "
              << result.reach_fact_subsumed << " nodes "
              << result.reach_graph_nodes << "\n";
  }
  if (opts.spill_threshold_bytes != 0) {
    const auto mib = [](obs::MemAccount account) {
      return static_cast<double>(obs::MemLedger::global().peak(account)) /
             (1024.0 * 1024.0);
    };
    std::cout << "spill: peak arena " << std::fixed << std::setprecision(1)
              << mib(obs::MemAccount::kArenaSpill) << " MiB + graph "
              << mib(obs::MemAccount::kGraphSpill) << " MiB on disk\n";
  }
  std::cout << "covered " << result.check.distinct_registers
            << " distinct registers "
            << "(bound n-1 = " << n - 1 << "); certificate "
            << (result.check.ok ? "verified" : "REJECTED") << "\n";
  return kExitOk;
}

int cmd_check(const std::string& name, int n, int cap) {
  auto proto = make_protocol(name, n, cap);
  if (!proto) return usage();
  sim::ModelChecker::Options opts;
  opts.fail_on_solo_violation = name != "ballot";  // caps stall by design
  sim::ModelChecker checker(*proto, opts);
  const auto report = checker.check_all_binary_inputs();
  std::cout << proto->name() << ": " << report.summary() << "\n";
  if (!report.ok && report.schedule_to_bad) {
    std::cout << "counterexample schedule: "
              << report.schedule_to_bad->to_string() << "\n";
  }
  return report.ok ? kExitOk : kExitViolation;
}

int cmd_search(int modes, std::size_t cap) {
  sim::ProtocolSearch::Options opts;
  opts.n = 2;
  opts.m = 1;
  opts.modes = modes;
  opts.max_candidates = cap;
  const auto stats = sim::ProtocolSearch::exhaustive(opts);
  std::cout << "family " << sim::ProtocolSearch::family_size(opts)
            << ", examined " << stats.candidates << ", safe " << stats.safe
            << ", live " << stats.live << "\n";
  for (const auto& winner : stats.winners) {
    std::cout << "WINNER: " << winner.to_string() << "\n";
  }
  return kExitOk;
}

int cmd_mutex(int n) {
  mutex::PetersonMutex peterson(n);
  mutex::TournamentMutex tournament(n);
  for (const mutex::MutexAlgorithm* alg :
       {static_cast<const mutex::MutexAlgorithm*>(&peterson),
        static_cast<const mutex::MutexAlgorithm*>(&tournament)}) {
    mutex::CanonicalOptions opts;
    opts.strategy = mutex::CanonicalOptions::Strategy::kRoundRobin;
    const auto run = run_canonical(*alg, opts);
    mutex::MutexCoveringAdversary covering(*alg);
    const auto bl = covering.run();
    std::cout << alg->name() << ": canonical rmr " << run.rmr_cost
              << ", Burns-Lynch covering " << bl.distinct_registers << "/"
              << n << "\n";
  }
  return kExitOk;
}

int cmd_perturb(int n) {
  perturb::SwmrCounter counter(n);
  perturb::PerturbationAdversary adversary(counter);
  const auto result = adversary.run();
  std::cout << result.narrative << "covered " << result.distinct_registers
            << " distinct registers (bound n-1 = " << n - 1 << ")\n";
  return result.covering_complete ? kExitOk : kExitViolation;
}

// Parse --mix into the three allow_* flags: "all" or any comma-separated
// subset of crash,stall,yield. Returns false on an unknown token.
bool parse_mix(const std::string& mix, rt::chaos::Options* opts) {
  if (mix == "all" || mix.empty()) return true;
  opts->allow_crash = opts->allow_stall = opts->allow_yield = false;
  std::size_t pos = 0;
  while (pos <= mix.size()) {
    const std::size_t comma = mix.find(',', pos);
    const std::string tok =
        mix.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (tok == "crash") opts->allow_crash = true;
    else if (tok == "stall") opts->allow_stall = true;
    else if (tok == "yield") opts->allow_yield = true;
    else return false;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return opts->allow_crash || opts->allow_stall || opts->allow_yield;
}

int cmd_chaos(const ObsFlags& obs_flags) {
  rt::chaos::Options opts;
  opts.runs = static_cast<int>(obs_flags.runs);
  opts.seed = obs_flags.seed;
  opts.n = static_cast<int>(obs_flags.chaos_n);
  opts.run_timeout_ms = obs_flags.run_timeout_ms;
  if (!rt::chaos::parse_targets(obs_flags.targets, &opts.targets)) {
    std::cerr << "unknown target in " << cli::flag_for(&ObsFlags::targets).name
              << "=" << obs_flags.targets << "\n";
    return usage();
  }
  if (!parse_mix(obs_flags.mix, &opts)) {
    std::cerr << "bad " << cli::flag_for(&ObsFlags::mix).name << "="
              << obs_flags.mix << " (want crash,stall,yield or all)\n";
    return usage();
  }
  const rt::chaos::Result result = rt::chaos::run_campaign(opts);
  std::cout << result.summary_json(opts) << "\n";
  if (!result.ok()) {
    std::cerr << "chaos: " << result.violations << " violation(s), "
              << result.solo_failures << " solo failure(s); first: "
              << result.first_violation << "\n";
    return kExitViolation;
  }
  return result.timeouts > 0 ? kExitTimeout : kExitOk;
}

// `tsb monitor` repaints the telemetry section of `tsb report` every 500 ms
// until interrupted. It reads a file a live producer owns, so a missing
// file or one with no tick yet is a normal startup state: it keeps waiting.
[[noreturn]] void run_monitor(const std::string& path) {
  while (true) {
    report::RunReport rep;
    std::ostringstream frame;
    if (rep.load(path)) {
      rep.finalize();
      rep.render_telemetry(frame);
    }
    std::cout << "\x1b[H\x1b[2J"
              << (frame.str().empty()
                      ? "waiting for the first tick in " + path + " ...\n"
                      : "tsb monitor " + path + frame.str())
              << std::flush;
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
  }
}

// SIGTERM/SIGINT on a run command request a graceful stop: the handler is
// two relaxed atomic stores, and the next engine quiescent point writes a
// final checkpoint and unwinds as CheckpointStop -> exit 5 with every sink
// flushed. SA_RESTART keeps in-flight writes (telemetry, spill) intact.
//
// A SECOND signal escalates: if a stop is already pending — the engine has
// no poll site on its current path, or the operator is impatient — the
// handler restores the default disposition and re-raises, so the process
// is always killable with two Ctrl-Cs even on code paths that never reach
// a quiescent point.
void graceful_stop_handler(int sig) {
  util::ckpt::CheckpointService& svc = util::ckpt::CheckpointService::global();
  if (svc.stop_requested()) {
    struct sigaction dfl;
    sigemptyset(&dfl.sa_mask);
    dfl.sa_flags = 0;
    dfl.sa_handler = SIG_DFL;
    sigaction(sig, &dfl, nullptr);
    raise(sig);
    return;
  }
  svc.request_stop();
}

void install_stop_handlers() {
  // Touch the singleton now so the handler never runs its first-call
  // construction in signal context.
  (void)util::ckpt::CheckpointService::global();
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sa.sa_handler = graceful_stop_handler;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed =
      cli::parse_args(std::vector<std::string>(argv + 1, argv + argc));
  if (!parsed.ok) {
    std::cerr << parsed.error << "\n";
    return usage();
  }
  const ObsFlags& obs_flags = parsed.flags;
  const std::vector<std::string>& args = parsed.args;
  if (args.empty()) return usage();

  const std::string cmd = args[0];
  const bool run = (parsed.cmd->bit & cli::kRun) != 0;
  if (obs_flags.progress) obs::set_progress(true);
  obs::set_progress_interval(
      std::chrono::milliseconds(obs_flags.progress_interval_ms));
  // Every output is opened before the run, so an unusable path is refused
  // up front. Trace and flight files are written only at exit (or from a
  // fatal-signal handler), so they are created now and rewritten then.
  const std::pair<std::string ObsFlags::*, obs::JsonlSink*> outputs[] = {
      {&ObsFlags::trace_file, nullptr},
      {&ObsFlags::flight_file, nullptr},
      {&ObsFlags::stats_file, &obs::stats_sink()},
      {&ObsFlags::chaos_file, &obs::chaos_sink()}};
  for (const auto& [field, sink] : outputs) {
    const std::string& file = obs_flags.*field;
    if (!file.empty() &&
        !(sink ? sink->open(file) : std::ofstream(file).is_open())) {
      std::cerr << "could not open " << cli::flag_for(field).name << " file "
                << file << "\n";
      return kExitUsage;
    }
  }
  if (!obs_flags.flight_file.empty()) {
    obs::flight::enable();
    obs::flight::set_dump_path(obs_flags.flight_file);
    obs::flight::install_signal_handlers();
  }
  if (!obs_flags.trace_file.empty()) obs::TraceSink::global().enable();
  // A stats file is one run: its telemetry ticks start at 0. The budgets
  // they carry are set by the construction that enforces them.
  const bool stats_run = !obs_flags.stats_file.empty();
  if (stats_run) obs::telemetry::reset();

  // Numeric positionals; a bad one is refused like a bad flag (exit 2).
  auto arg = [&](std::size_t i, const char* name, std::uint64_t lo,
                 std::uint64_t hi, std::uint64_t def) {
    std::string error;
    if (!cli::positional(args, i, name, lo, hi, &def, &error)) {
      throw util::UsageError(error);
    }
    return def;
  };
  // Simulated processes live in one ProcSet word; ballot ids stop at 63.
  constexpr std::uint64_t kMaxSimN = 63;
  const auto sim_n = [&](std::size_t i, int def) {
    return static_cast<int>(arg(i, "n", 2, kMaxSimN, def));
  };
  const auto ballot_cap = [&](std::size_t i, int def) {
    return static_cast<int>(arg(i, "cap", 1, INT_MAX, def));
  };

  if (run) {
    // Hostile-I/O fault injection (TSB_IO_FAULT=kind[:countdown]) arms the
    // layer every write-path syscall in the spill/checkpoint writers runs
    // through; a no-op without the env var.
    if (util::iofault::arm_from_env()) {
      std::cerr << "iofault: armed from TSB_IO_FAULT="
                << std::getenv("TSB_IO_FAULT") << "\n";
    }
    install_stop_handlers();
  }

  int rc = kExitUsage;
  try {
  if (cmd == "adversary") {
    const int n = sim_n(1, 4);
    rc = cmd_adversary(n, ballot_cap(2, default_ballot_cap(n)), obs_flags,
                       obs_flags.checkpoint_dir, /*resume=*/false);
  } else if (cmd == "resume" && args.size() >= 2) {
    const int n = sim_n(2, 4);
    rc = cmd_adversary(n, ballot_cap(3, default_ballot_cap(n)), obs_flags,
                       /*checkpoint_dir=*/args[1], /*resume=*/true);
  } else if (cmd == "check" && args.size() >= 2) {
    const int n = sim_n(2, 2);
    rc = cmd_check(args[1], n, ballot_cap(3, 2 * n));
  } else if (cmd == "search") {
    // A state id is one byte: 2 * modes <= 256.
    rc = cmd_search(static_cast<int>(arg(1, "modes", 1, 128, 1)),
                    static_cast<std::size_t>(arg(2, "cap", 0, SIZE_MAX, 0)));
  } else if (cmd == "mutex") {
    rc = cmd_mutex(static_cast<int>(arg(1, "n", 2, INT_MAX, 8)));
  } else if (cmd == "perturb") {
    rc = cmd_perturb(static_cast<int>(arg(1, "n", 2, INT_MAX, 5)));
  } else if (cmd == "chaos") {
    rc = cmd_chaos(obs_flags);
  } else if (cmd == "report" && obs_flags.compare) {
    if (args.size() != 3) {
      std::cerr << "tsb report " << cli::flag_for(&ObsFlags::compare).name
                << " needs exactly two stats files\n";
      return usage();
    }
    rc = report::compare_timelines(args[1], args[2], std::cout);
  } else if (cmd == "report" && obs_flags.chrome) {
    if (args.size() != 2) {
      std::cerr << "tsb report " << cli::flag_for(&ObsFlags::chrome).name
                << " needs exactly one trace file\n";
      return usage();
    }
    rc = report::export_chrome(args[1], std::cout, std::cerr);
  } else if (cmd == "report" && args.size() >= 2) {
    rc = report::analyze_files({args.begin() + 1, args.end()}, std::cout);
  } else if (cmd == "monitor" && args.size() >= 2) {
    run_monitor(args[1]);
  } else {
    return usage();
  }
  } catch (const util::UsageError& e) {
    // A bad positional or an unusable --spill-dir: refused before any
    // work, like a bad flag.
    std::cerr << "tsb: " << e.what() << "\n";
    rc = kExitUsage;
  } catch (const util::CheckpointInvalid& e) {
    // A refusal, never a degraded answer: resume (or a mid-run write that
    // discovered corruption on load) found state it cannot trust. The
    // teardown below still flushes every sink so the refusal is diagnosable.
    std::cerr << "checkpoint refused: " << e.what() << "\n";
    rc = kExitCkptInvalid;
  } catch (const util::CheckpointStop& e) {
    // The adversary catches this itself and reports a structured Result;
    // every other engine (check/search/mutex/perturb) lets the SIGTERM/
    // SIGINT unwind reach here. Same contract either way: exit 5 with the
    // sinks below flushed — never std::terminate.
    std::cerr << "stopped: " << e.what() << "\n";
    rc = kExitStopped;
  } catch (const util::BudgetExhausted& e) {
    // Budget/disk exhaustion (including a spill-write failure under
    // --spill-*) on a path with no engine-level catch: degrade to the
    // clean exit 4 the adversary path already produces.
    std::cerr << "budget exhausted: " << e.what() << "\n";
    rc = kExitBudget;
  }

  // The flight exit dump first, so the sinks below flush after all
  // introspection output. A failed exit-time write is a failed write
  // (exit 4, like the checkpoint and spill writers), never a violation.
  const auto wrote = [&rc](bool ok, const char* what, const std::string& to) {
    if (!ok) {
      std::cerr << "could not write " << what << " to " << to << "\n";
      if (rc == kExitOk) rc = kExitBudget;
    }
    return ok;
  };
  if (!obs_flags.flight_file.empty()) {
    wrote(obs::flight::dump(obs_flags.flight_file,
                            rc == kExitBudget    ? "budget"
                            : rc == kExitStopped ? "checkpoint"
                                                 : "exit"),
          "flight dump", obs_flags.flight_file);
  }
  if (obs::stats_enabled() && obs::MemLedger::global().total() > 0) {
    obs::MemLedger::global().emit_record();
  }
  if (stats_run) {
    // Final tick: short runs can finish inside the first heartbeat
    // interval, and watchers deserve a terminal state either way. It is
    // also the record whose ledger must match the exit report — nothing
    // allocates after it.
    obs::Sample last;
    last.phase = rc == kExitBudget    ? "budget-exhausted"
                 : rc == kExitStopped ? "checkpointed"
                                      : "done";
    obs::telemetry::tick(last);
    if (wrote(obs::stats_sink().close(), "stats", obs_flags.stats_file)) {
      std::cerr << "stats: " << obs::stats_sink().lines() << " records ("
                << obs::telemetry::ticks() << " telemetry ticks) -> "
                << obs_flags.stats_file << "\n";
    }
  }
  if (!obs_flags.chaos_file.empty() &&
      wrote(obs::chaos_sink().close(), "chaos records", obs_flags.chaos_file)) {
    std::cerr << "chaos: " << obs::chaos_sink().lines() << " records -> "
              << obs_flags.chaos_file << "\n";
  }
  if (!obs_flags.trace_file.empty()) {
    obs::TraceSink& sink = obs::TraceSink::global();
    sink.disable();
    if (wrote(sink.write_file(obs_flags.trace_file), "trace",
              obs_flags.trace_file)) {
      std::cerr << "trace: " << sink.size() << " events (dropped: "
                << sink.dropped(obs::Ph::kComplete) << " span, "
                << sink.dropped(obs::Ph::kInstant) << " instant, "
                << sink.dropped(obs::Ph::kCounter) << " counter) -> "
                << obs_flags.trace_file << "\n";
    }
  }
  if (obs_flags.metrics) obs::emit_metrics("tsb " + cmd);
  return rc;
}

// tsb — command-line front end to the library's machinery.
//
//   tsb adversary [n] [cap]        run Theorem 1's construction (narrated)
//   tsb resume <dir> [n] [cap]     resume a checkpointed adversary campaign
//   tsb check <proto> [n] [cap]    exhaustively model check a protocol
//   tsb search [modes] [cap]       sweep the 1-register protocol family
//   tsb mutex [n]                  canonical-cost + Burns-Lynch summary
//   tsb perturb [n]                JTT perturbation adversary on a counter
//   tsb chaos                      seeded fault-injection campaign (rt layer)
//   tsb report FILE...             analyze trace/stats/chaos/flight JSONL
//                                  artifacts, ending with a baseline: line
//   tsb report --compare A B       diff two --stats timelines (25% gate)
//   tsb monitor <stats-file>       repaint the telemetry section of
//                                  `tsb report <stats-file>` every 500 ms
//
// Observability flags (any position; outputs are opened before the run;
// every flag that takes a value takes it as --flag=V or --flag V):
//   --trace=FILE     record a trace; .jsonl gets JSONL (what `tsb report`
//                    reads), else Chrome trace_event JSON (for Perfetto)
//   --stats=FILE     the run's one record stream, JSONL (run commands
//                    only; each record opens with "type", "ts_ns"): engine
//                    records, one valency.pass per reachability pass, the
//                    adversary's Lemma 1-4 decision trail and certificate,
//                    checkpoint writes, the memory ledger, and one
//                    telemetry.tick per heartbeat (counters, ledger,
//                    rates, peak RSS, monotonic tick ids; flushed per tick,
//                    so a killed run keeps everything up to the last
//                    interval). The ticks are measurements only; `tsb
//                    report FILE` shows them in its telemetry section,
//                    with the alerts its rules derive from them (throughput
//                    collapse, spill thrash, memory-budget runaway,
//                    checkpoint stalls); `tsb monitor FILE` repaints that
//                    section live; `tsb report --compare A B` diffs two
//                    runs.
//   --metrics        print the metrics registry as one JSON line at exit
//   --progress       heartbeat lines on stderr during long computations
//
// In-flight introspection (see DESIGN.md "In-flight introspection"):
//   --progress-interval-ms=MS  heartbeat/telemetry cadence (default 1000)
//   --flight=FILE    enable the in-memory flight recorder (run commands
//                    only); rings dump to FILE on fatal signal, budget
//                    exhaustion, SIGUSR1, and exit. `tsb report` takes the
//                    dump as an input file and renders a narrative.
//   --valency-cap=N  valency oracle configuration cap (adversary only)
//
// Chaos flags (tsb chaos):
//   --runs=N --seed=S --n=P            campaign size / seed / processes
//   --targets=LIST   ballot,rounds,randomized,commit-adopt,leader,
//                    peterson,tournament,bakery (or "all")
//   --mix=LIST       crash,stall,yield (any subset, or "all")
//   --run-timeout-ms=MS  per-run wall-clock backstop
//   --out=FILE       per-run JSONL records (feeds tsb report)
//
// Budget flags (tsb adversary; graceful degradation instead of OOM/hang):
//   --mem-budget=BYTES[k|m|g]  cap on the valency engine's tracked heap
//                    bytes. The shared engine counts its whole graph,
//                    cumulatively across passes; --no-reuse's fresh BFS
//                    counts one pass's arena and frontier. Neither counts
//                    the valency memo or the root arena. Row and edge
//                    stores are charged for the records they have
//                    admitted (the pages they can have touched), not for
//                    the ~4 MiB segments they allocate, and spilled bytes
//                    are not charged.
//   --time-budget-ms=MS        wall-clock budget of the whole construction
//
// Out-of-core flags (tsb adversary; campaigns past the RAM wall):
//   --spill-threshold=BYTES[k|m|g]  cold arena and edge segments past this
//                    many resident bytes are delta/varint-compressed to
//                    unlinked backing files and read back through mmap
//                    (ledger: arena.spill, graph.spill). The arena and the
//                    edge arrays each spill down to it on their own, so
//                    resident spillable bytes can reach about twice it.
//   --spill-dir=DIR  where the backing files live (default "."; pick a
//                    real disk, not tmpfs, or spilling cannot free RAM); a
//                    directory that cannot hold one is refused with exit 2
//   --spill-seg-configs=N  configs per arena/edge segment (testing/CI:
//                    small values force spilling on small campaigns)
//
// Crash-safe campaigns (tsb adversary / tsb resume):
//   --checkpoint-dir=DIR    checkpoint the oracle's session state (roots,
//                    memo, shared graph) into DIR at the engines' quiescent
//                    points: versioned, per-section CRC-checked state file
//                    committed by an atomic manifest rename. SIGTERM/SIGINT
//                    then mean "write a final checkpoint and stop" (exit 5)
//                    instead of losing the campaign; `tsb resume DIR n cap`
//                    (same flags) warm-replays to the identical verdict,
//                    visited set and certificate. A corrupt, truncated or
//                    mismatched checkpoint is refused with exit 6 — never
//                    silently degraded. TSB_IO_FAULT=kind[:countdown]
//                    (enospc|short_write|eintr|torn_rename|bitflip) arms
//                    hostile-I/O injection on the checkpoint/spill writers.
//   --checkpoint-interval-ms=MS  wall-clock cadence (0 = off)
//   --checkpoint-every=N    expansion-count cadence (0 = off; with both
//                    cadences off, checkpoints are written only on a stop)
//
// Exit codes (distinct so CI can tell misuse from refutation):
//   0  success
//   1  violation / failed construction / report inconsistency
//   2  usage error: unknown subcommand, unknown protocol, bad flag, unusable
//      --spill-dir/--trace/--stats/--flight, --stats/--flight on a viewer,
//      a Chrome trace given to `tsb report`
//   3  chaos campaign clean of violations but some runs timed out
//   4  budget exhausted (adversary stopped by --mem-budget/--time-budget-ms)
//      or a failed write (checkpoint, spill, exit-time trace/flight dump,
//      the --stats or --out record stream)
//   5  checkpointed and stopped (SIGTERM/SIGINT at a quiescent point after
//      a final checkpoint; resume later with `tsb resume DIR`)
//   6  checkpoint refused (bad CRC, truncated section, format version or
//      flag-fingerprint mismatch — resume never runs on doubtful state)
//
// Protocols for `check`: ballot | racing-strict | racing-atleast | swap
#include <csignal>

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
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

// Subcommands that execute a run (vs read artifacts someone else wrote).
// --stats and --flight only make sense for the former: a viewer or analyzer
// must never truncate the file it is about to read.
bool cmd_is_run(const std::string& cmd) {
  return cmd != "report" && cmd != "monitor";
}

// An output written only at exit (or from a fatal-signal handler) is
// created now, like --stats, so an unusable path is refused before the run.
bool can_create(const std::string& path) {
  return std::ofstream(path).is_open();
}

int usage() {
  std::cerr
      << "usage:\n"
         "  tsb adversary [n=4] [cap=2n]     Theorem 1 construction\n"
         "  tsb resume <dir> [n=4] [cap=2n]  resume a checkpointed campaign\n"
         "      (pass the same n/cap/flags as the original run; a\n"
         "      fingerprint mismatch is refused with exit 6)\n"
         "  tsb check <proto> [n=2] [cap=2n] exhaustive model check\n"
         "      proto: ballot | racing-strict | racing-atleast | swap\n"
         "  tsb search [modes=1] [cap=0]     1-register protocol sweep\n"
         "  tsb mutex [n=8]                  mutex cost + covering summary\n"
         "  tsb perturb [n=5]                JTT adversary on the counter\n"
         "  tsb chaos                        seeded rt fault campaign\n"
         "  tsb report FILE...               analyze run artifacts (JSONL)\n"
         "  tsb report --compare A B         diff two --stats timelines\n"
         "                                   (exit 1 past a 25% regression)\n"
         "  tsb monitor <stats>              live telemetry section of report\n"
         "flags: --trace=FILE --stats=FILE --metrics --progress\n"
         "       --valency-cap=N\n"
         "introspection: --progress-interval-ms=MS --flight=FILE\n"
         "chaos: --runs=N --seed=S --n=P --targets=LIST|all --mix=LIST|all\n"
         "       --run-timeout-ms=MS --out=FILE\n"
         "adversary budgets: --mem-budget=BYTES[k|m|g] --time-budget-ms=MS\n"
         "adversary backend: --no-reuse (fresh-BFS valency; default is the\n"
         "                   shared-subgraph engine)\n"
         "out-of-core: --spill-threshold=BYTES[k|m|g] --spill-dir=DIR\n"
         "             --spill-seg-configs=N (segment size, testing)\n"
         "checkpointing: --checkpoint-dir=DIR --checkpoint-interval-ms=MS\n"
         "               --checkpoint-every=N (SIGTERM/SIGINT = checkpoint\n"
         "               and stop; continue with tsb resume DIR)\n"
         "exit codes: 0 ok, 1 violation/failed construction, 2 usage "
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
// overrides the flag form); everything else rides the shared flag set so a
// resumed run reconstructs the exact options — the manifest fingerprint
// check refuses anything that would change verdicts or state layout.
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
    const double mib = 1024.0 * 1024.0;
    std::cout << "spill: peak arena " << std::fixed << std::setprecision(1)
              << static_cast<double>(obs::MemLedger::global().peak(
                     obs::MemAccount::kArenaSpill)) /
                     mib
              << " MiB + graph "
              << static_cast<double>(obs::MemLedger::global().peak(
                     obs::MemAccount::kGraphSpill)) /
                     mib
              << " MiB on disk\n";
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
  opts.runs = obs_flags.runs;
  opts.seed = obs_flags.seed;
  opts.n = obs_flags.chaos_n;
  opts.run_timeout_ms = obs_flags.run_timeout_ms;
  if (!rt::chaos::parse_targets(obs_flags.targets, &opts.targets)) {
    std::cerr << "unknown target in --targets=" << obs_flags.targets << "\n";
    return usage();
  }
  if (!parse_mix(obs_flags.mix, &opts)) {
    std::cerr << "bad --mix=" << obs_flags.mix
              << " (want crash,stall,yield or all)\n";
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
  const bool run = cmd_is_run(cmd);
  if (!run && (!obs_flags.stats_file.empty() ||
               !obs_flags.flight_file.empty())) {
    std::cerr << "tsb " << cmd << " reads artifacts; "
              << (obs_flags.stats_file.empty() ? "--flight" : "--stats")
              << " is a run output (pass an artifact as a file)\n";
    return kExitUsage;
  }
  if (obs_flags.progress) obs::set_progress(true);
  obs::set_progress_interval(
      std::chrono::milliseconds(obs_flags.progress_interval_ms));
  for (const auto& [flag, file] :
       {std::pair{"--trace", &obs_flags.trace_file},
        std::pair{"--flight", &obs_flags.flight_file}}) {
    if (!file->empty() && !can_create(*file)) {
      std::cerr << "could not open " << flag << " file " << *file << "\n";
      return kExitUsage;
    }
  }
  if (!obs_flags.flight_file.empty()) {
    obs::flight::enable();
    obs::flight::set_dump_path(obs_flags.flight_file);
    obs::flight::install_signal_handlers();
  }
  if (!obs_flags.trace_file.empty()) obs::TraceSink::global().enable();
  const bool stats_run = !obs_flags.stats_file.empty();
  if (stats_run) {
    if (!obs::stats_sink().open(obs_flags.stats_file)) {
      std::cerr << "could not open stats file " << obs_flags.stats_file
                << "\n";
      return kExitUsage;
    }
    // A stats file is one run: its telemetry ticks start at 0. The budgets
    // they carry are set by the construction that enforces them.
    obs::telemetry::reset();
  }
  if (!obs_flags.chaos_file.empty() &&
      !obs::chaos_sink().open(obs_flags.chaos_file)) {
    std::cerr << "could not open chaos file " << obs_flags.chaos_file << "\n";
    return kExitUsage;
  }

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
    std::vector<std::string> files(args.begin() + 1, args.end());
    if (files.size() != 2) {
      std::cerr << "tsb report --compare needs exactly two stats files\n";
      return usage();
    }
    rc = report::compare_timelines(files[0], files[1], std::cout);
  } else if (cmd == "report") {
    const std::vector<std::string> files(args.begin() + 1, args.end());
    if (files.empty()) return usage();
    rc = report::analyze_files(files, std::cout);
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
  if (!obs_flags.flight_file.empty() &&
      !obs::flight::dump(obs_flags.flight_file,
                         rc == kExitBudget    ? "budget"
                         : rc == kExitStopped ? "checkpoint"
                                              : "exit")) {
    std::cerr << "could not write flight dump to " << obs_flags.flight_file
              << "\n";
    if (rc == kExitOk) rc = kExitBudget;
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
    if (!obs::stats_sink().close()) {
      std::cerr << "could not write stats to " << obs_flags.stats_file
                << "\n";
      if (rc == kExitOk) rc = kExitBudget;
    } else {
      std::cerr << "stats: " << obs::stats_sink().lines() << " records ("
                << obs::telemetry::ticks() << " telemetry ticks) -> "
                << obs_flags.stats_file << "\n";
    }
  }
  if (!obs_flags.chaos_file.empty()) {
    if (!obs::chaos_sink().close()) {
      std::cerr << "could not write chaos records to " << obs_flags.chaos_file
                << "\n";
      if (rc == kExitOk) rc = kExitBudget;
    } else {
      std::cerr << "chaos: " << obs::chaos_sink().lines() << " records -> "
                << obs_flags.chaos_file << "\n";
    }
  }
  if (!obs_flags.trace_file.empty()) {
    obs::TraceSink& sink = obs::TraceSink::global();
    sink.disable();
    if (!sink.write_file(obs_flags.trace_file)) {
      std::cerr << "could not write trace to " << obs_flags.trace_file << "\n";
      if (rc == kExitOk) rc = kExitBudget;
    } else {
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

// One benchmark operation in a fresh process: Zhu's Theorem 1 construction
// against BallotConsensus(5, 15), exactly as `tsb adversary 5` runs it,
// reported as one JSON line on stdout. run.py spawns this binary once per
// construction (so peak RSS never carries over) and once per set-up probe.
//
//   perfbench_runner --workload W --dir DIR --t0-ns NS [--setup-only] [--trace]
//
// --t0-ns is the parent's CLOCK_MONOTONIC reading just before it spawned us:
// set-up time runs from there to the start of the construction. --dir is a
// fresh directory the parent owns and deletes; spill segments, checkpoints
// and the certificate go there. --trace swaps in a forwarding protocol that
// counts and samples step-semantics calls and records the program's own
// spans to DIR/trace.jsonl and its stats records (per-query reuse, checkpoint
// writes, the memory ledger) to DIR/stats.jsonl; it is never used for
// end-to-end numbers.

#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/certificate.hpp"
#include "consensus/ballot.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "util/checkpoint.hpp"

namespace {

using namespace tsb;

// The configuration `tsb adversary 5` uses (default_ballot_cap and
// default_valency_cap in tools/tsb_cli.cpp).
constexpr int kN = 5;
constexpr int kBallotCap = 15;
constexpr std::size_t kValencyCap = 2'000'000;

// campaign5: out of core with a work-count checkpoint cadence. A wall-clock
// cadence would change how many checkpoints a faster build writes. The
// construction dequeues between 200k and 300k BFS entries, so this cadence
// writes exactly two checkpoints of the session state. The threshold and
// segment size are small enough that both the arena and the edge arrays
// spill.
constexpr std::size_t kSpillThreshold = 1ull << 20;
constexpr std::size_t kSpillSegConfigs = 512;
constexpr std::uint64_t kCheckpointEvery = 100'000;

// Trace buffer: adv5_t4 records a pool.wait and a pool.task span per worker
// per parallel BFS level, about 6,400 in all, past the sink's default
// capacity.
constexpr std::size_t kTraceCapacity = 1u << 17;

struct Workload {
  const char* name;
  int threads;
  bool campaign;
};
constexpr Workload kWorkloads[] = {
    {"adv5", 1, false}, {"adv5_t4", 4, false}, {"campaign5", 1, true}};

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t tv_ns(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1'000;
}

// One field of /proc/self/io (0 where the kernel does not provide it).
std::int64_t proc_io(const char* field) {
  std::ifstream in("/proc/self/io");
  std::string key;
  std::int64_t value = 0;
  while (in >> key >> value) {
    if (key.size() == std::strlen(field) + 1 && key.rfind(field, 0) == 0) {
      return value;
    }
  }
  return 0;
}

std::string u64_array(const std::vector<std::uint64_t>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(xs[i]);
  }
  return s + "]";
}

// Forwarding protocol for the traced run: counts every step-semantics call
// the engines make and times one in kSampleEvery, so the protocol layer is
// measured from outside the library. Each thread counts into its own slot;
// slots are merged only after run() returns, when the worker pool that also
// steps the protocol (adv5_t4) has been joined.
class CountingProtocol final : public sim::Protocol {
 public:
  static constexpr std::uint64_t kSampleEvery = 4096;

  explicit CountingProtocol(const sim::Protocol& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  int num_processes() const override { return inner_.num_processes(); }
  int num_registers() const override { return inner_.num_registers(); }
  sim::Value initial_register() const override {
    return inner_.initial_register();
  }
  bool symmetric() const override { return inner_.symmetric(); }
  sim::State initial_state(sim::ProcId p, sim::Value input) const override {
    return inner_.initial_state(p, input);
  }
  sim::PendingOp poised(sim::ProcId p, sim::State s) const override {
    Slot& sl = slot();
    if (++sl.poised % kSampleEvery != 0) return inner_.poised(p, s);
    const std::int64_t t0 = mono_ns();
    const sim::PendingOp op = inner_.poised(p, s);
    sl.poised_ns.push_back(static_cast<std::uint64_t>(mono_ns() - t0));
    return op;
  }
  sim::State after_read(sim::ProcId p, sim::State s,
                        sim::Value observed) const override {
    Slot& sl = slot();
    if (++sl.steps % kSampleEvery != 0) return inner_.after_read(p, s, observed);
    const std::int64_t t0 = mono_ns();
    const sim::State next = inner_.after_read(p, s, observed);
    sl.step_ns.push_back(static_cast<std::uint64_t>(mono_ns() - t0));
    return next;
  }
  sim::State after_write(sim::ProcId p, sim::State s) const override {
    Slot& sl = slot();
    if (++sl.steps % kSampleEvery != 0) return inner_.after_write(p, s);
    const std::int64_t t0 = mono_ns();
    const sim::State next = inner_.after_write(p, s);
    sl.step_ns.push_back(static_cast<std::uint64_t>(mono_ns() - t0));
    return next;
  }
  sim::State after_swap(sim::ProcId p, sim::State s,
                        sim::Value observed) const override {
    return inner_.after_swap(p, s, observed);
  }

  struct Totals {
    std::uint64_t poised = 0;
    std::uint64_t steps = 0;
    std::vector<std::uint64_t> poised_ns;
    std::vector<std::uint64_t> step_ns;
  };
  /// Merged counts; call only once every stepping thread has been joined.
  Totals totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    Totals t;
    for (const auto& sl : slots_) {
      t.poised += sl->poised;
      t.steps += sl->steps;
      t.poised_ns.insert(t.poised_ns.end(), sl->poised_ns.begin(),
                         sl->poised_ns.end());
      t.step_ns.insert(t.step_ns.end(), sl->step_ns.begin(), sl->step_ns.end());
    }
    return t;
  }

 private:
  struct Slot {
    std::uint64_t poised = 0;
    std::uint64_t steps = 0;
    std::vector<std::uint64_t> poised_ns;
    std::vector<std::uint64_t> step_ns;
  };
  // The thread_local is shared by all instances: the runner makes one.
  Slot& slot() const {
    thread_local Slot* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<Slot>());
      mine = slots_.back().get();
    }
    return *mine;
  }

  const sim::Protocol& inner_;
  mutable std::mutex mu_;  // guards slots_ (the vector, not the slots)
  mutable std::vector<std::unique_ptr<Slot>> slots_;
};

// Median cost of the timing pair wrapped around each sampled call, which
// run.py subtracts from the samples.
std::uint64_t timer_overhead_ns() {
  std::vector<std::int64_t> d(2001);
  for (auto& x : d) {
    const std::int64_t t0 = mono_ns();
    x = mono_ns() - t0;
  }
  std::nth_element(d.begin(), d.begin() + 1000, d.end());
  return static_cast<std::uint64_t>(d[1000]);
}

int usage() {
  std::cerr << "usage: perfbench_runner --workload adv5|adv5_t4|campaign5 "
               "--dir DIR --t0-ns NS [--setup-only] [--trace]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* wl = nullptr;
  std::string dir;
  std::int64_t t0 = -1;
  bool setup_only = false;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const std::string w = argv[++i];
      for (const Workload& k : kWorkloads) {
        if (w == k.name) wl = &k;
      }
    } else if (a == "--dir" && has_value) {
      dir = argv[++i];
    } else if (a == "--t0-ns" && has_value) {
      t0 = std::atoll(argv[++i]);
    } else if (a == "--setup-only") {
      setup_only = true;
    } else if (a == "--trace") {
      trace = true;
    } else {
      return usage();
    }
  }
  if (wl == nullptr || dir.empty() || t0 < 0) return usage();

  // --- set-up: everything a user pays before the construction starts ---
  bound::SpaceBoundAdversary::Options opts;
  opts.valency_max_configs = kValencyCap;
  // Never more threads than the machine has cores.
  opts.threads = std::min<int>(
      wl->threads, std::max(1u, std::thread::hardware_concurrency()));
  if (wl->campaign) {
    opts.spill_dir = dir + "/spill";
    opts.spill_threshold_bytes = kSpillThreshold;
    opts.spill_seg_configs = kSpillSegConfigs;
    opts.checkpoint_dir = dir + "/ckpt";
    opts.checkpoint_every = kCheckpointEvery;
    if (::mkdir(opts.spill_dir.c_str(), 0755) != 0 ||
        ::mkdir(opts.checkpoint_dir.c_str(), 0755) != 0) {
      std::cerr << "cannot create the campaign directories under " << dir
                << ": " << std::strerror(errno) << "\n";
      return 1;
    }
  }
  const consensus::BallotConsensus ballot(kN, kBallotCap);
  std::unique_ptr<CountingProtocol> counting;
  if (trace) counting = std::make_unique<CountingProtocol>(ballot);
  const sim::Protocol& proto =
      counting ? static_cast<const sim::Protocol&>(*counting) : ballot;
  bound::SpaceBoundAdversary adversary(proto, opts);
  // The traced run opens its sinks here, so allocating the trace buffer is
  // not timed as part of the construction.
  const std::string stats_file = dir + "/stats.jsonl";
  if (trace) {
    if (!obs::stats_sink().open(stats_file)) {
      std::cerr << "cannot open " << stats_file << "\n";
      return 1;
    }
    obs::TraceSink::global().enable(kTraceCapacity);
  }

  const std::int64_t begin = mono_ns();
  obs::JsonObj out;
  out.str("workload", wl->name).num("setup_ns", begin - t0);
  if (setup_only) {
    std::cout << out.render() << std::endl;
    return 0;
  }

  // --- the construction: start until the certificate is verified ---
  const std::int64_t wchar0 = proc_io("wchar");
  const std::int64_t wbytes0 = proc_io("write_bytes");
  const bound::SpaceBoundAdversary::Result r = adversary.run();
  const std::int64_t end = mono_ns();
  if (trace) {
    obs::TraceSink::global().disable();
    obs::MemLedger::global().emit_record();
    obs::stats_sink().close();
  }

  // The verified certificate is the run's product; saving it is part of
  // the run's disk cost (the only part on the resident workloads).
  std::vector<int> steps(r.certificate.schedule.steps().begin(),
                         r.certificate.schedule.steps().end());
  std::vector<int> inputs(r.certificate.inputs.begin(),
                          r.certificate.inputs.end());
  std::string covering = "[";
  for (const auto& [p, reg] : r.certificate.covering) {
    if (covering.size() > 1) covering += ',';
    covering += "[" + std::to_string(p) + "," + std::to_string(reg) + "]";
  }
  covering += "]";
  {
    obs::JsonObj cert;
    cert.str("protocol", r.certificate.protocol)
        .raw("inputs", obs::json_int_array(inputs))
        .raw("schedule", obs::json_int_array(steps))
        .raw("covering", covering);
    std::ofstream f(dir + "/certificate.json");
    if (!(f << cert.render() << "\n").flush()) {
      std::cerr << "cannot write the certificate under " << dir << "\n";
      return 1;
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const util::ckpt::CheckpointService& ckpt =
      util::ckpt::CheckpointService::global();

  out.num("wall_ns", end - begin)
      .boolean("ok", r.ok)
      .boolean("budget_exhausted", r.budget_exhausted)
      .boolean("stopped", r.stopped)
      .str("error", r.error)
      .boolean("check_ok", r.check.ok)
      .num("distinct_registers", r.check.distinct_registers)
      .raw("inputs", obs::json_int_array(inputs))
      .raw("schedule", obs::json_int_array(steps))
      .raw("covering", covering)
      .num("valency_queries", static_cast<std::int64_t>(r.valency_queries))
      .num("valency_cache_hits",
           static_cast<std::int64_t>(r.valency_cache_hits))
      .num("reach_expanded", static_cast<std::int64_t>(r.reach_expanded))
      .num("reach_reused", static_cast<std::int64_t>(r.reach_reused))
      .num("reach_nodes", static_cast<std::int64_t>(r.reach_graph_nodes))
      .num("lemma1_calls", static_cast<std::int64_t>(r.lemma_stats.lemma1_calls))
      .num("lemma3_calls", static_cast<std::int64_t>(r.lemma_stats.lemma3_calls))
      .num("lemma4_calls", static_cast<std::int64_t>(r.lemma_stats.lemma4_calls))
      .num("solo_escapes", static_cast<std::int64_t>(r.lemma_stats.solo_escapes))
      // Named counters, so a layer a later change deletes reads as absent
      // instead of breaking this build.
      .raw("counters", obs::Registry::global().counters_json())
      .num("ckpt_writes", static_cast<std::int64_t>(ckpt.checkpoints_written()))
      .num("ckpt_bytes", static_cast<std::int64_t>(ckpt.bytes_written()))
      .num("ckpt_write_ms", static_cast<std::int64_t>(ckpt.write_ms_total()))
      .num("wchar", proc_io("wchar") - wchar0)
      .num("write_bytes", proc_io("write_bytes") - wbytes0)
      .num("maxrss_kb", ru.ru_maxrss)
      .num("utime_ns", tv_ns(ru.ru_utime))
      .num("stime_ns", tv_ns(ru.ru_stime))
      .num("minflt", ru.ru_minflt)
      .num("majflt", ru.ru_majflt)
      .num("nvcsw", ru.ru_nvcsw)
      .num("nivcsw", ru.ru_nivcsw);

  if (trace) {
    // The public certificate checker, timed on its own against the plain
    // protocol (the run above already checked it once, counted).
    const std::int64_t c0 = mono_ns();
    const bound::CertificateCheck again =
        bound::check_certificate(ballot, r.certificate);
    out.num("certify_ns", mono_ns() - c0).boolean("recheck_ok", again.ok);

    const CountingProtocol::Totals t = counting->totals();
    out.num("poised_calls", static_cast<std::int64_t>(t.poised))
        .num("steps", static_cast<std::int64_t>(t.steps))
        .num("timer_ns", static_cast<std::int64_t>(timer_overhead_ns()))
        .raw("poised_ns", u64_array(t.poised_ns))
        .raw("step_ns", u64_array(t.step_ns));

    const obs::TraceSink& sink = obs::TraceSink::global();
    const std::string trace_file = dir + "/trace.jsonl";
    if (!sink.write_file(trace_file)) {
      std::cerr << "cannot write " << trace_file << "\n";
      return 1;
    }
    out.str("trace_file", trace_file)
        .str("stats_file", stats_file)
        .num("trace_dropped", static_cast<std::int64_t>(sink.dropped()));
  }
  std::cout << out.render() << std::endl;
  return 0;
}

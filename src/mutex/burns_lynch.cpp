#include "mutex/burns_lynch.hpp"

#include <cassert>

namespace tsb::mutex {

MutexCoveringAdversary::Result MutexCoveringAdversary::run() {
  Result out;
  const int n = alg_.num_processes();
  MutexConfig cfg = mutex_initial(alg_);
  std::set<sim::RegId> covered;

  for (sim::ProcId p = 0; p < n; ++p) {
    const auto up = static_cast<std::size_t>(p);
    cfg.states[up] = alg_.begin_trying(p, cfg.states[up]);

    bool escaped = false;
    for (std::size_t step = 0; step < opts_.step_cap; ++step) {
      const Section sec = alg_.section(p, cfg.states[up]);
      if (sec == Section::kCritical) {
        // Entered the CS with every write obliterable: Burns-Lynch's
        // invisibility — the algorithm cannot be a correct mutex.
        out.invisible_entrant = p;
        out.narrative += 'p' + std::to_string(p) +
                         " reached the CS writing only covered registers — "
                         "invisible to the covering processes\n";
        out.distinct_registers = static_cast<int>(covered.size());
        return out;
      }
      const sim::PendingOp op = alg_.poised(p, cfg.states[up]);
      if (op.is_write() && covered.count(op.reg) == 0) {
        covered.insert(op.reg);
        out.covering.emplace_back(p, op.reg);
        out.narrative += 'p' + std::to_string(p) + " covers R" +
                         std::to_string(op.reg) + " after " +
                         std::to_string(step) + " solo steps\n";
        escaped = true;
        break;  // p parks here, poised; it takes no further steps
      }
      cfg = mutex_step(alg_, cfg, p).config;
    }
    if (!escaped) {
      out.narrative += 'p' + std::to_string(p) +
                       " exhausted its step budget without escaping\n";
      out.distinct_registers = static_cast<int>(covered.size());
      return out;
    }
  }

  out.distinct_registers = static_cast<int>(covered.size());
  out.complete = out.distinct_registers == n;
  return out;
}

// ---------------------------------------------------------------------------
// NaiveLock
// ---------------------------------------------------------------------------

Section NaiveLock::section(sim::ProcId, sim::State s) const {
  switch (s) {
    case 0:
    case 5:
      return Section::kRemainder;
    case 3:
      return Section::kCritical;
    case 4:
      return Section::kExit;
    default:
      return Section::kTrying;
  }
}

sim::PendingOp NaiveLock::poised(sim::ProcId, sim::State s) const {
  switch (s) {
    case 1:
      return sim::PendingOp::read(0);
    case 2:
      return sim::PendingOp::write(0, 1);  // the non-atomic "set"
    case 4:
      return sim::PendingOp::write(0, 0);
    default:
      assert(false && "no pending memory operation");
      return sim::PendingOp::read(0);
  }
}

sim::State NaiveLock::after_read(sim::ProcId, sim::State s,
                                 sim::Value observed) const {
  assert(s == 1);
  (void)s;
  return observed == 0 ? 2 : 1;  // free: go take it; taken: spin
}

sim::State NaiveLock::after_write(sim::ProcId, sim::State s) const {
  if (s == 2) return 3;  // "acquired" (or so it believes)
  assert(s == 4);
  return 5;
}

sim::State NaiveLock::begin_trying(sim::ProcId, sim::State s) const {
  assert(s == 0 || s == 5);
  (void)s;
  return 1;
}

sim::State NaiveLock::begin_exit(sim::ProcId, sim::State s) const {
  assert(s == 3);
  (void)s;
  return 4;
}

}  // namespace tsb::mutex

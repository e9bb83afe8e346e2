#include "sim/engine.hpp"

#include <cassert>

#include "obs/metrics.hpp"

namespace tsb::sim {

namespace {
// Step counts by op kind; a lower bound's "work" is steps, so every future
// perf PR reads these. Looked up once, then relaxed sharded adds.
struct StepCounters {
  obs::Counter& read = obs::Registry::global().counter("sim.steps.read");
  obs::Counter& write = obs::Registry::global().counter("sim.steps.write");
  obs::Counter& swap = obs::Registry::global().counter("sim.steps.swap");
  obs::Counter& decided_noop =
      obs::Registry::global().counter("sim.steps.decided_noop");
};
StepCounters& step_counters() {
  static StepCounters c;
  return c;
}
}  // namespace

std::string PendingOp::to_string() const {
  switch (kind) {
    case OpKind::kRead:
      return "read(R" + std::to_string(reg) + ")";
    case OpKind::kWrite:
      return "write(R" + std::to_string(reg) + ", " + std::to_string(value) +
             ")";
    case OpKind::kDecide:
      return "decide(" + std::to_string(value) + ")";
    case OpKind::kSwap:
      return "swap(R" + std::to_string(reg) + ", " + std::to_string(value) +
             ")";
  }
  return "?";
}

std::string StepRecord::to_string() const {
  std::string out = 'p' + std::to_string(proc) + ": " + op.to_string();
  if (op.is_read() || op.is_swap()) {
    out += " -> " + std::to_string(read_result);
  }
  return out;
}

Value apply_op(const Protocol& proto, const PendingOp& op, ProcId p,
               Value* states, Value* regs) {
  assert(!op.is_decide());
  assert(op.reg >= 0 && op.reg < proto.num_registers());
  const State s = states[p];
  if (op.is_read()) {
    step_counters().read.add();
    const Value observed = regs[op.reg];
    states[p] = proto.after_read(p, s, observed);
    return observed;
  }
  if (op.is_swap()) {
    step_counters().swap.add();
    const Value overwritten = regs[op.reg];
    regs[op.reg] = op.value;
    states[p] = proto.after_swap(p, s, overwritten);
    return overwritten;
  }
  step_counters().write.add();
  regs[op.reg] = op.value;
  states[p] = proto.after_write(p, s);
  return 0;
}

Config step(const Protocol& proto, const Config& c, ProcId p, Trace* trace) {
  assert(p >= 0 && p < proto.num_processes());
  const State s = c.states[static_cast<std::size_t>(p)];
  const PendingOp op = proto.poised(p, s);

  if (op.is_decide()) {
    // Decided processes have terminated; stepping them changes nothing.
    step_counters().decided_noop.add();
    return c;
  }

  Config next = c;
  StepRecord rec{p, op, 0};
  rec.read_result = apply_op(proto, op, p, next.states.data(), next.regs.data());
  if (trace != nullptr) trace->records.push_back(rec);
  return next;
}

Config run(const Protocol& proto, const Config& c, const Schedule& alpha,
           Trace* trace) {
  Config cur = c;
  for (ProcId p : alpha.steps()) cur = step(proto, cur, p, trace);
  return cur;
}

SoloRun run_solo(const Protocol& proto, const Config& c, ProcId p,
                 std::size_t max_steps) {
  SoloRun out;
  out.final = c;
  for (std::size_t i = 0; i < max_steps; ++i) {
    if (auto d = decision_of(proto, out.final, p)) {
      out.decided = true;
      out.decision = *d;
      return out;
    }
    out.final = step(proto, out.final, p, &out.trace);
    out.schedule.push(p);
  }
  if (auto d = decision_of(proto, out.final, p)) {
    out.decided = true;
    out.decision = *d;
  }
  return out;
}

bool some_decided(const Protocol& proto, const Config& c, Value v) {
  for (ProcId q = 0; q < proto.num_processes(); ++q) {
    auto d = decision_of(proto, c, q);
    if (d && *d == v) return true;
  }
  return false;
}

ProcSet decided_set(const Protocol& proto, const Config& c) {
  ProcSet out;
  for (ProcId q = 0; q < proto.num_processes(); ++q) {
    if (decision_of(proto, c, q)) out = out.with(q);
  }
  return out;
}

}  // namespace tsb::sim

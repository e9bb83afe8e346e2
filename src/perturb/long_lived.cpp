#include "perturb/long_lived.hpp"

#include <cassert>

#include "util/require.hpp"

namespace tsb::perturb {

LLConfig ll_initial(const LongLivedObject& obj) {
  LLConfig c;
  const auto n = static_cast<std::size_t>(obj.num_processes());
  c.states.reserve(n);
  for (sim::ProcId p = 0; p < obj.num_processes(); ++p) {
    c.states.push_back(obj.initial_state(p));
  }
  c.regs.assign(static_cast<std::size_t>(obj.num_registers()),
                obj.initial_register());
  c.completed.assign(n, 0);
  c.last_result.assign(n, 0);
  return c;
}

LLConfig ll_step(const LongLivedObject& obj, const LLConfig& c, sim::ProcId p,
                 sim::Trace* trace) {
  const auto up = static_cast<std::size_t>(p);
  const sim::State s = c.states[up];
  const sim::PendingOp op = obj.poised(p, s);

  LLConfig next = c;
  sim::StepRecord rec{p, op, 0};
  switch (op.kind) {
    case sim::OpKind::kRead: {
      const sim::Value observed = c.regs[static_cast<std::size_t>(op.reg)];
      rec.read_result = observed;
      next.states[up] = obj.after_read(p, s, observed);
      break;
    }
    case sim::OpKind::kWrite:
      next.regs[static_cast<std::size_t>(op.reg)] = op.value;
      next.states[up] = obj.after_write(p, s);
      break;
    case sim::OpKind::kDecide:  // operation completion
      next.completed[up] += 1;
      next.last_result[up] = op.value;
      next.states[up] = obj.after_complete(p, s);
      break;
    case sim::OpKind::kSwap:
      // Long-lived objects run on read/write registers only.
      TSB_REQUIRE(false, "long-lived object " + obj.name() +
                             " issued a swap; only reads and writes step");
  }
  if (trace != nullptr) trace->records.push_back(rec);
  return next;
}

std::optional<LLSoloRun> ll_run_ops(const LongLivedObject& obj,
                                    const LLConfig& c, sim::ProcId p,
                                    std::int64_t ops, std::size_t max_steps) {
  LLSoloRun out;
  out.config = c;
  const std::int64_t target = c.completed[static_cast<std::size_t>(p)] + ops;
  while (out.config.completed[static_cast<std::size_t>(p)] < target) {
    if (out.steps++ >= max_steps) return std::nullopt;
    out.config = ll_step(obj, out.config, p);
  }
  out.last_result = out.config.last_result[static_cast<std::size_t>(p)];
  return out;
}

std::optional<sim::RegId> ll_covered_register(const LongLivedObject& obj,
                                              const LLConfig& c,
                                              sim::ProcId p) {
  const sim::PendingOp op =
      obj.poised(p, c.states[static_cast<std::size_t>(p)]);
  if (op.is_write()) return op.reg;
  return std::nullopt;
}

}  // namespace tsb::perturb

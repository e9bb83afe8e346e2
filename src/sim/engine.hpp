#pragma once

#include <optional>

#include "sim/config.hpp"
#include "sim/schedule.hpp"
#include "sim/trace.hpp"

namespace tsb::sim {

/// Execution engine: applies steps and schedules to configurations.
///
/// The engine is the single owner of the model's operational semantics;
/// the valency analyzer, the adversary, the model checker and the
/// certificate checker all go through these functions, so there is exactly
/// one definition of "what a step does" in the repository.

/// Apply one step by process p at configuration c. If p has decided, the
/// step is a no-op (decided processes take no further steps). If `trace`
/// is non-null the executed step is appended.
Config step(const Protocol& proto, const Config& c, ProcId p,
            Trace* trace = nullptr);

/// Apply an already-fetched pending operation (must not be kDecide) of
/// process p directly to a configuration's words in place: `states` is the
/// n state words, `regs` the m register words. Returns the value the
/// operation observed (register contents for a read, overwritten value for
/// a swap, 0 for a write). This is step()'s mutation core, exposed so the
/// packed-arena explorers can expand configurations without materializing
/// Config objects; there is still exactly one definition of "what a step
/// does".
Value apply_op(const Protocol& proto, const PendingOp& op, ProcId p,
               Value* states, Value* regs);

/// Apply a schedule (left to right). C-alpha in the paper's notation.
Config run(const Protocol& proto, const Config& c, const Schedule& alpha,
           Trace* trace = nullptr);

/// Result of running a process solo until it decides (or a step cap).
struct SoloRun {
  bool decided = false;
  Value decision = 0;
  Schedule schedule;  ///< the {p}-only schedule executed
  Trace trace;
  Config final;
};

/// Run p solo from c for at most `max_steps` steps, stopping when p decides.
/// For an obstruction-free (nondeterministic solo terminating) protocol,
/// p decides before any reasonable cap; a cap hit is reported, not fatal,
/// so callers can flag non-conforming protocols.
SoloRun run_solo(const Protocol& proto, const Config& c, ProcId p,
                 std::size_t max_steps);

/// True iff some process (any) has decided v in c.
bool some_decided(const Protocol& proto, const Config& c, Value v);

/// The set of processes that have decided in c.
ProcSet decided_set(const Protocol& proto, const Config& c);

}  // namespace tsb::sim

#include "bound/adversary.hpp"

#include <chrono>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_sink.hpp"
#include "util/checkpoint.hpp"
#include "util/require.hpp"

namespace tsb::bound {

SpaceBoundAdversary::Result SpaceBoundAdversary::run() {
  try {
    return run_impl();
  } catch (const util::RequirementFailed& e) {
    // A lemma's precondition or postcondition failed: either the protocol
    // is not a correct solo-terminating consensus protocol, or a capped
    // simulation ran out of headroom. Either way: no certificate.
    Result out;
    out.error = e.what();
    return out;
  } catch (const util::BudgetExhausted& e) {
    // A configured memory/time budget tripped mid-construction. Nothing is
    // wrong with the protocol — the run is truncated cleanly, reported
    // with its own status (and exit code at the CLI), never an OOM/hang.
    Result out;
    out.budget_exhausted = true;
    out.error = e.what();
    if (obs::stats_enabled()) {
      obs::JsonObj ev = obs::audit_event("adversary.budget_exhausted");
      ev.str("protocol", proto_.name()).str("detail", e.what());
      obs::stats_sink().write(ev.render());
    }
    return out;
  } catch (const util::CheckpointStop& e) {
    // Graceful stop at a quiescent point; the final checkpoint (if a
    // directory is configured) was committed before the throw. The CLI
    // maps this to its own "checkpointed and stopped" exit code.
    Result out;
    out.stopped = true;
    out.error = e.what();
    if (obs::stats_enabled()) {
      obs::JsonObj ev = obs::audit_event("adversary.stopped");
      ev.str("protocol", proto_.name()).str("detail", e.what());
      obs::stats_sink().write(ev.render());
    }
    return out;
  }
  // util::CheckpointInvalid and util::UsageError deliberately propagate: a
  // corrupt or mismatched checkpoint and an unusable spill directory are
  // refusals, not run outcomes.
}

SpaceBoundAdversary::Result SpaceBoundAdversary::run_impl() {
  obs::Span span("adversary.run");
  Result out;
  const int n = proto_.num_processes();
  if (n < 2) {
    out.error = "theorem requires n >= 2";
    return out;
  }

  // The construction's one stopping policy: the wall-clock budget starts
  // here, and the engines enforce the same deadline the ticks report.
  using Clock = sim::Limits::Clock;
  const sim::Limits limits{
      .max_configs = opts_.valency_max_configs,
      .max_bytes = opts_.valency_max_arena_bytes,
      .deadline = opts_.valency_time_budget_ms == 0
                      ? Clock::time_point::max()
                      : Clock::now() + std::chrono::milliseconds(
                                           opts_.valency_time_budget_ms),
      .spill = {.dir = opts_.spill_dir,
                .threshold_bytes = opts_.spill_threshold_bytes,
                .seg_configs = opts_.spill_seg_configs}};
  obs::telemetry::set_budgets(limits.max_bytes, limits.deadline);
  ValencyOracle oracle(proto_, {.limits = limits, .reuse = opts_.reuse});

  // Checkpoint/resume wiring. The serializer captures the oracle by
  // reference, so it must be unregistered on every exit path before the
  // oracle dies — including the CheckpointStop unwind itself.
  util::ckpt::CheckpointService& ckpt = util::ckpt::CheckpointService::global();
  struct WriterGuard {
    ~WriterGuard() {
      util::ckpt::CheckpointService::global().set_writer(nullptr);
    }
  } writer_guard;
  if (!opts_.checkpoint_dir.empty()) {
    ckpt.configure(opts_.checkpoint_dir, opts_.checkpoint_interval_ms,
                   opts_.checkpoint_every, oracle.state_fingerprint());
  }
  if (opts_.resume) {
    const std::uint64_t generation =
        ckpt.resume([&oracle](util::ckpt::SectionReader& r) {
              oracle.restore_state(r);
            }).generation;
    if (obs::stats_enabled()) {
      obs::JsonObj ev = obs::audit_event("adversary.resume");
      ev.str("protocol", proto_.name())
          .str("dir", opts_.checkpoint_dir)
          .num("generation", static_cast<std::int64_t>(generation))
          .num("memo_entries",
               static_cast<std::int64_t>(oracle.memo_entries()));
      obs::stats_sink().write(ev.render());
    }
  }
  ckpt.set_writer(
      [&oracle](util::ckpt::SectionWriter& w) { oracle.save_state(w); });

  LemmaToolkit lemmas(proto_, oracle);
  lemmas.enable_narrative(opts_.narrative);

  if (obs::stats_enabled()) {
    obs::JsonObj ev = obs::audit_event("adversary.begin");
    ev.str("protocol", proto_.name())
        .num("n", n)
        .num("registers", proto_.num_registers())
        .boolean("reuse", opts_.reuse)
        .boolean("spill", opts_.spill_threshold_bytes != 0)
        .boolean("symmetric", proto_.symmetric());
    obs::stats_sink().write(ev.render());
  }

  // Proposition 2: initial bivalent configuration.
  obs::flight::record(obs::flight::Ev::kPhase, 0);
  auto init = lemmas.proposition2();
  const ProcSet everyone = ProcSet::first_n(n);

  out.certificate.protocol = proto_.name();
  out.certificate.inputs = init.inputs;

  if (n == 2) {
    // Theorem 1, n = 2 case: if p0 decided without writing, p1 could not
    // tell p0 took steps and would decide 1 from the indistinguishable
    // configuration, violating Agreement. So p0's solo run reaches a write:
    // one covered register = n - 1.
    obs::flight::record(obs::flight::Ev::kPhase, 3);
    auto esc = lemmas.solo_escape(init.config, /*z=*/0, /*covered=*/{});
    if (!esc.found) {
      out.error = "p0 decided without ever writing: protocol violates "
                  "Agreement (or is not solo terminating)";
      return out;
    }
    out.certificate.schedule = esc.zeta_prime;
    out.certificate.covering = {{0, esc.escape_reg}};
  } else {
    // Lemma 4 from the initial configuration: a pair Q bivalent from
    // I-alpha with the other n-2 processes covering distinct registers.
    obs::flight::record(obs::flight::Ev::kPhase, 1);
    auto l4 = lemmas.lemma4(init.config, everyone);
    const Config c0 = sim::run(proto_, init.config, l4.alpha);
    const ProcSet r = everyone - l4.q;

    // Lemma 3: a Q-only alpha' and q in Q with R u {q} bivalent from
    // C0-alpha'-beta.
    obs::flight::record(obs::flight::Ev::kPhase, 2);
    auto l3 = lemmas.lemma3(c0, everyone, r);
    const Config cq = sim::run(proto_, c0, l3.phi);

    // Lemma 2: z in Q - {q} writes outside R's covered registers in its
    // solo terminating execution from C0-alpha'.
    const ProcId z = (l4.q.without(l3.q)).min();
    const auto covered = covered_registers(proto_, cq, r);
    if (obs::stats_enabled()) {
      // The construction's claim going into the final escape: R covers
      // these registers at C0-alpha'; z's escape register must join them.
      // `tsb report` checks this narrative against the certificate event
      // (whose registers come from the independent replay).
      std::vector<int> regs(covered.begin(), covered.end());
      obs::JsonObj ev = obs::audit_event("covering.pre_escape");
      ev.num("config", static_cast<std::int64_t>(oracle.audit_id(cq)))
          .raw("procs", obs::json_int_array(r.to_vector()))
          .raw("regs", obs::json_int_array(regs))
          .num("z", z);
      obs::stats_sink().write(ev.render());
    }
    obs::flight::record(obs::flight::Ev::kPhase, 3);
    auto esc = lemmas.solo_escape(cq, z, covered);
    if (!esc.found) {
      out.error = "Lemma 2 escape not found: the protocol is not a correct "
                  "solo-terminating consensus protocol";
      return out;
    }

    out.certificate.schedule = l4.alpha + l3.phi + esc.zeta_prime;
    const Config final_cfg = sim::run(proto_, cq, esc.zeta_prime);
    r.for_each([&](int p) {
      out.certificate.covering.emplace_back(
          p, *covered_register(proto_, final_cfg, p));
    });
    out.certificate.covering.emplace_back(z, esc.escape_reg);
  }

  // The full covering is in place: n-1 distinct registers (the certificate
  // checker re-verifies this claim below against the raw engine).
  obs::TraceSink::global().counter("covered", n - 1);

  out.lemma_stats = lemmas.stats();
  out.valency_queries = oracle.queries();
  out.valency_cache_hits = oracle.cache_hits();
  out.reach_expanded = oracle.edges_expanded();
  out.reach_reused = oracle.edges_reused();
  out.reach_fact_answers = oracle.fact_answers();
  out.reach_fact_subsumed = oracle.fact_subsumed();
  out.reach_graph_nodes = oracle.graph_nodes();
  out.graph_spilled_bytes = oracle.graph_spilled_bytes();
  out.narrative = lemmas.narrative();

  obs::Registry& reg = obs::Registry::global();
  reg.counter("bound.valency_queries").add(out.valency_queries);
  reg.counter("bound.valency_cache_hits").add(out.valency_cache_hits);
  reg.counter("bound.reach_expanded").add(out.reach_expanded);
  reg.counter("bound.reach_reused").add(out.reach_reused);
  reg.counter("bound.reach_fact_answers").add(out.reach_fact_answers);
  reg.counter("bound.reach_fact_subsumed").add(out.reach_fact_subsumed);
  reg.counter("bound.reach_graph_nodes").add(out.reach_graph_nodes);
  reg.counter("bound.lemma1_calls").add(out.lemma_stats.lemma1_calls);
  reg.counter("bound.lemma3_calls").add(out.lemma_stats.lemma3_calls);
  reg.counter("bound.lemma4_calls").add(out.lemma_stats.lemma4_calls);
  reg.counter("bound.solo_escapes").add(out.lemma_stats.solo_escapes);
  reg.counter("bound.di_stages").add(out.lemma_stats.total_di_stages);

  if (oracle.ever_truncated()) {
    out.error = "valency oracle hit its configuration cap; results unsound";
    return out;
  }

  // Independent verification through the raw engine.
  out.check = check_certificate(proto_, out.certificate);
  if (obs::stats_enabled()) {
    // Registers come from the replay verification, NOT from the
    // construction: `tsb report` compares the two and fails loudly if the
    // adversary's narrative and the checked certificate ever disagree.
    std::vector<int> regs(out.check.registers.begin(),
                          out.check.registers.end());
    obs::JsonObj ev = obs::audit_event("certificate");
    ev.str("protocol", out.certificate.protocol)
        .boolean("verified",
                 out.check.ok && out.check.distinct_registers >= n - 1)
        .num("distinct_registers", out.check.distinct_registers)
        .raw("registers", obs::json_int_array(regs))
        .num("clones",
             static_cast<std::int64_t>(out.lemma_stats.solo_escapes))
        .num("schedule_len",
             static_cast<std::int64_t>(out.certificate.schedule.size()));
    if (!out.check.ok) ev.str("error", out.check.error);
    obs::stats_sink().write(ev.render());
  }
  if (!out.check.ok) {
    out.error = "certificate check failed: " + out.check.error;
    return out;
  }
  if (out.check.distinct_registers < n - 1) {
    out.error = "certificate covers fewer than n-1 registers";
    return out;
  }
  out.ok = true;
  obs::TraceSink::global().instant("certificate.verified",
                                   out.check.distinct_registers);
  span.set_value(out.check.distinct_registers);
  return out;
}

}  // namespace tsb::bound

#include "bound/lemmas.hpp"

#include <cassert>

#include "obs/jsonl_sink.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "util/require.hpp"

namespace tsb::bound {

namespace {
std::vector<int> regs_vec(const std::set<RegId>& regs) {
  return std::vector<int>(regs.begin(), regs.end());
}
}  // namespace

void LemmaToolkit::note(const std::string& line) {
  if (!narrate_) return;
  narrative_.append(static_cast<std::size_t>(2 * depth_), ' ');
  narrative_ += line;
  narrative_ += '\n';
}

LemmaToolkit::InitialBivalent LemmaToolkit::proposition2() {
  const int n = proto_.num_processes();
  assert(n >= 2);
  InitialBivalent out;
  out.inputs.assign(static_cast<std::size_t>(n), 0);
  out.inputs[1] = 1;  // p0 starts with 0, p1 with 1, the rest with 0
  out.config = sim::initial_config(proto_, out.inputs);

  // By Validity, I is indistinguishable from the all-v configuration to pv,
  // so {pv} is v-univalent from I. We verify rather than trust.
  TSB_REQUIRE(oracle_.univalent_on(out.config, ProcSet::single(0), 0),
              "Validity violated: {p0} not 0-univalent from I");
  TSB_REQUIRE(oracle_.univalent_on(out.config, ProcSet::single(1), 1),
              "Validity violated: {p1} not 1-univalent from I");
  note("Proposition 2: initial configuration with inputs(p0)=0, inputs(p1)=1 "
       "is bivalent for {p0,p1}");
  if (obs::stats_enabled()) {
    obs::JsonObj ev = obs::audit_event("prop2");
    ev.num("config",
           static_cast<std::int64_t>(oracle_.intern_root(out.config)))
        .raw("inputs", obs::json_int_array(
                           std::vector<int>(out.inputs.begin(),
                                            out.inputs.end())));
    obs::stats_sink().write(ev.render());
  }
  return out;
}

LemmaToolkit::Lemma1Result LemmaToolkit::lemma1(const Config& c, ProcSet p) {
  ++stats_.lemma1_calls;
  TSB_REQUIRE(p.size() >= 3, "Lemma 1 needs |P| >= 3");
  TSB_REQUIRE(oracle_.bivalent(c, p), "Lemma 1 precondition: P bivalent");
  auto audit = [&](const char* how, const Lemma1Result& res) {
    if (!obs::stats_enabled()) return;
    obs::JsonObj ev = obs::audit_event("lemma1");
    ev.num("config", static_cast<std::int64_t>(oracle_.intern_root(c)))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .str("how", how)
        .num("z", res.z)
        .num("phi_len", static_cast<std::int64_t>(res.phi.size()));
    obs::stats_sink().write(ev.render());
  };

  // Pick any two processes of P (we take the two largest ids so the pair
  // that survives the recursion tends to be the low ids — purely cosmetic).
  const auto members = p.to_vector();
  const ProcId z1 = members[members.size() - 1];
  const ProcId z2 = members[members.size() - 2];
  const ProcSet q1 = p.without(z1);
  const ProcSet q2 = p.without(z2);

  // Q1 n Q2 can decide some v from C; then both Q1 and Q2 can decide v.
  const Value v = oracle_.some_decidable(c, q1 & q2);
  const Value vbar = 1 - v;

  // If either Qi can also decide the complement, it is bivalent already.
  if (oracle_.can_decide(c, q1, vbar)) {
    note("Lemma 1: Q1 = P-{p" + std::to_string(z1) +
         "} already bivalent; phi is empty");
    Lemma1Result res{Schedule{}, z1};
    audit("q1_bivalent", res);
    return res;
  }
  if (oracle_.can_decide(c, q2, vbar)) {
    note("Lemma 1: Q2 = P-{p" + std::to_string(z2) +
         "} already bivalent; phi is empty");
    Lemma1Result res{Schedule{}, z2};
    audit("q2_bivalent", res);
    return res;
  }

  // Both Q1 and Q2 are v-univalent from C. P is bivalent, so take a P-only
  // execution psi deciding vbar, and the longest prefix psi' after which
  // both Q1 and Q2 are still v-univalent.
  auto psi = oracle_.deciding_schedule(c, p, vbar);
  TSB_REQUIRE(psi.has_value(), "P bivalent but no deciding execution found");

  std::size_t longest = 0;
  {
    Config cur = c;
    for (std::size_t i = 0; i <= psi->size(); ++i) {
      if (i > 0) cur = sim::step(proto_, cur, (*psi)[i - 1]);
      if (oracle_.univalent_on(cur, q1, v) &&
          oracle_.univalent_on(cur, q2, v)) {
        longest = i;
      }
    }
  }
  // psi' != psi: at the end vbar has been decided, so neither set is
  // v-univalent there.
  TSB_REQUIRE(longest < psi->size(),
              "both sets stayed univalent along a vbar-deciding execution");

  const ProcId sigma_proc = (*psi)[longest];
  const Schedule phi = psi->prefix(longest + 1);

  // If sigma is by a process of Q1 (anything but z1), Q1 stays v-univalent
  // across it, so by maximality Q2 can now decide vbar; and Q1 n Q2 subset
  // of Q1 is v-univalent, so Q2 can also decide v: Q2 = P - {z2} is
  // bivalent. Symmetric otherwise.
  const ProcId z = (sigma_proc != z1) ? z2 : z1;
  TSB_REQUIRE(oracle_.bivalent(sim::run(proto_, c, phi), p.without(z)),
              "Lemma 1 postcondition failed");
  note("Lemma 1: after phi (" + std::to_string(phi.size()) +
       " steps), P-{p" + std::to_string(z) + "} is bivalent");
  Lemma1Result res{phi, z};
  audit("longest_prefix", res);
  return res;
}

LemmaToolkit::SoloEscape LemmaToolkit::solo_escape(
    const Config& c, ProcId z, const std::set<RegId>& covered,
    std::size_t max_steps) {
  ++stats_.solo_escapes;
  SoloEscape out;
  // The hidden insertion of Lemma 2 — the construction's "clone" step: z's
  // solo prefix will be obliterated by the next block write, so P - {z}
  // cannot distinguish the run with it from the run without it. One audit
  // event per attempt; `tsb report` counts the found ones as clones.
  auto audit = [&] {
    if (!obs::stats_enabled()) return;
    obs::JsonObj ev = obs::audit_event("solo_escape");
    ev.num("config", static_cast<std::int64_t>(oracle_.intern_root(c)))
        .num("z", z)
        .raw("covered", obs::json_int_array(regs_vec(covered)))
        .boolean("found", out.found)
        .num("steps", static_cast<std::int64_t>(out.zeta_prime.size()));
    if (out.found) ev.num("escape_reg", out.escape_reg);
    obs::stats_sink().write(ev.render());
  };
  Config cur = c;
  for (std::size_t i = 0; i < max_steps; ++i) {
    const sim::PendingOp op = sim::poised_in(proto_, cur, z);
    if (op.is_decide()) {
      audit();
      return out;  // precondition violated; found = false
    }
    if (op.is_write() && covered.count(op.reg) == 0) {
      out.found = true;
      out.escape_reg = op.reg;
      note("Lemma 2: p" + std::to_string(z) + " poised to write R" +
           std::to_string(op.reg) + " outside the covered set after " +
           std::to_string(out.zeta_prime.size()) + " solo steps");
      audit();
      return out;
    }
    cur = sim::step(proto_, cur, z);
    out.zeta_prime.push(z);
  }
  audit();
  return out;  // step cap hit: protocol is not solo terminating
}

LemmaToolkit::Lemma3Result LemmaToolkit::lemma3(const Config& c, ProcSet p,
                                                ProcSet r) {
  ++stats_.lemma3_calls;
  TSB_REQUIRE(!r.is_empty(), "Lemma 3 needs a non-empty covering set");
  TSB_REQUIRE(r.subset_of(p), "R must be a subset of P");
  TSB_REQUIRE(is_covering_set(proto_, c, r), "R must cover registers in C");
  const ProcSet q_set = p - r;
  TSB_REQUIRE(oracle_.bivalent(c, q_set), "Lemma 3 precondition: Q bivalent");
  auto audit = [&](const char* how, const Lemma3Result& res) {
    if (!obs::stats_enabled()) return;
    obs::JsonObj ev = obs::audit_event("lemma3");
    ev.num("config", static_cast<std::int64_t>(oracle_.intern_root(c)))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .raw("covering_procs", obs::json_int_array(r.to_vector()))
        .raw("covered",
             obs::json_int_array(regs_vec(covered_registers(proto_, c, r))))
        .str("how", how)
        .num("q", res.q)
        .num("phi_len", static_cast<std::int64_t>(res.phi.size()));
    obs::stats_sink().write(ev.render());
  };

  const Schedule beta = block_write(r);
  const Config c_beta = sim::run(proto_, c, beta);

  // R can decide some v from C-beta.
  const Value v = oracle_.some_decidable(c_beta, r);
  if (oracle_.can_decide(c_beta, r, 1 - v)) {
    // R itself is bivalent from C-beta; any superset R u {q} is too.
    note("Lemma 3: R already bivalent after its block write; phi is empty");
    Lemma3Result res{Schedule{}, q_set.min()};
    audit("r_bivalent", res);
    return res;
  }
  const Value vbar = 1 - v;

  // Q is bivalent from C: take a Q-only execution psi deciding vbar. R takes
  // no steps in psi, so its block write applies at every prefix. Find the
  // longest prefix phi with R still able to decide v from C-phi-beta.
  auto psi = oracle_.deciding_schedule(c, q_set, vbar);
  TSB_REQUIRE(psi.has_value(), "Q bivalent but no deciding execution found");

  std::size_t longest = 0;
  bool found = false;
  {
    Config cur = c;
    for (std::size_t i = 0; i <= psi->size(); ++i) {
      if (i > 0) cur = sim::step(proto_, cur, (*psi)[i - 1]);
      const Config after_block = sim::run(proto_, cur, beta);
      if (oracle_.can_decide(after_block, r, v)) {
        longest = i;
        found = true;
      }
    }
  }
  TSB_REQUIRE(found, "the empty prefix must qualify");
  TSB_REQUIRE(longest < psi->size(),
              "R can still decide v after Q decided vbar");

  // The next step sigma is by some q in Q; the proof shows it must be a
  // write outside R's covered set, and that R u {q} is bivalent from
  // C-phi-beta.
  const ProcId q = (*psi)[longest];
  const Schedule phi = psi->prefix(longest);
  TSB_REQUIRE(oracle_.bivalent(sim::run(proto_, c, phi + beta), r.with(q)),
              "Lemma 3 postcondition failed");
  note("Lemma 3: after phi (" + std::to_string(phi.size()) +
       " steps) and the block write by " + r.to_string() + ", R u {p" +
       std::to_string(q) + "} is bivalent");
  Lemma3Result res{phi, q};
  audit("longest_prefix", res);
  return res;
}

LemmaToolkit::Lemma4Result LemmaToolkit::lemma4(const Config& c, ProcSet p) {
  obs::Span span("lemma4");
  span.set_value(p.size());
  ++stats_.lemma4_calls;
  TSB_REQUIRE(p.size() >= 2, "Lemma 4 needs |P| >= 2");
  TSB_REQUIRE(oracle_.bivalent(c, p), "Lemma 4 precondition: P bivalent");
  if (obs::stats_enabled()) {
    obs::JsonObj ev = obs::audit_event("lemma4.enter");
    ev.num("config", static_cast<std::int64_t>(oracle_.intern_root(c)))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .num("depth", depth_);
    obs::stats_sink().write(ev.render());
  }

  if (p.size() == 2) {
    note("Lemma 4 base: |P| = 2, alpha empty, Q = " + p.to_string());
    if (obs::stats_enabled()) {
      obs::JsonObj ev = obs::audit_event("lemma4.done");
      ev.raw("procs", obs::json_int_array(p.to_vector()))
          .raw("bivalent_pair", obs::json_int_array(p.to_vector()))
          .num("alpha_len", 0)
          .num("depth", depth_);
      obs::stats_sink().write(ev.render());
    }
    return {Schedule{}, p};
  }

  note("Lemma 4 on P = " + p.to_string() + ":");
  ++depth_;

  // Lemma 1: peel off z; P - {z} is bivalent from D = C-gamma.
  auto [gamma, z] = lemma1(c, p);
  const ProcSet pz = p.without(z);
  const Config d = sim::run(proto_, c, gamma);

  // Build the chain D_0, D_1, ... : each D_i comes with a bivalent pair
  // Q_i subset of P-{z} and a well-spread covering set R_i = (P-{z}) - Q_i,
  // and D_{i+1} is reached from D_i by alpha_i = phi_i beta_i psi_i.
  struct Stage {
    Config d_i;
    ProcSet q_i;
    ProcSet r_i;
    std::set<RegId> covered;
    // How the chain continues from here (set when stage i+1 is built):
    Schedule phi_i;
    Schedule beta_i;
    Schedule psi_i;
  };
  std::vector<Stage> stages;

  obs::Heartbeat hb("lemma4");
  auto push_stage = [&](const Config& d_i, ProcSet q_i) {
    Stage s;
    s.d_i = d_i;
    s.q_i = q_i;
    s.r_i = pz - q_i;
    s.covered = covered_registers(proto_, d_i, s.r_i);
    TSB_REQUIRE(well_spread(proto_, d_i, s.r_i),
                "induction hypothesis: R_i must be well spread");
    // The covering being forced, live: each D_i stage's distinct covered
    // registers as a Chrome counter track.
    obs::TraceSink::global().counter(
        "covered", static_cast<std::int64_t>(s.covered.size()));
    hb.beat([&] {
      return "|P|=" + std::to_string(p.size()) + " stage " +
             std::to_string(stages.size()) + " covered=" +
             std::to_string(stages.empty() ? 0 : stages.back().covered.size());
    });
    if (obs::stats_enabled()) {
      obs::JsonObj ev = obs::audit_event("lemma4.stage");
      ev.num("config", static_cast<std::int64_t>(oracle_.intern_root(s.d_i)))
          .num("stage", static_cast<std::int64_t>(stages.size()))
          .num("depth", depth_)
          .raw("bivalent_pair", obs::json_int_array(s.q_i.to_vector()))
          .raw("covering_procs", obs::json_int_array(s.r_i.to_vector()))
          .raw("covered", obs::json_int_array(regs_vec(s.covered)));
      obs::stats_sink().write(ev.render());
    }
    stages.push_back(std::move(s));
    ++stats_.total_di_stages;
  };

  // D_0 by the induction hypothesis applied to P - {z} at D.
  {
    auto base = lemma4(d, pz);
    push_stage(sim::run(proto_, d, base.alpha), base.q);
    stages.back().phi_i = base.alpha;  // temporarily: eta lives here; moved
    // Keep eta separate for readability:
  }
  const Schedule eta = stages[0].phi_i;
  stages[0].phi_i = Schedule{};

  // Extend the chain until two stages' covering sets coincide (pigeonhole:
  // there are finitely many registers).
  std::size_t rep_i = 0, rep_j = 0;
  for (std::size_t j = 1;; ++j) {
    // Construct stage j from stage j-1.
    Stage& prev = stages[j - 1];
    if (prev.r_i.is_empty()) {
      // Paper: D_{i+1} = D_i with an empty alpha_i. The covering set is
      // empty both times, so the repeat fires immediately.
      push_stage(prev.d_i, prev.q_i);
    } else {
      auto l3 = lemma3(prev.d_i, pz, prev.r_i);
      prev.phi_i = l3.phi;
      prev.beta_i = block_write(prev.r_i);
      const Config after_block =
          sim::run(proto_, prev.d_i, prev.phi_i + prev.beta_i);
      if (obs::stats_enabled()) {
        // This block write joins the constructed execution (the probes
        // inside lemma3 do not): it obliterates R_{j-1}'s covered
        // registers, which is what hides z's insertions later.
        obs::JsonObj ev = obs::audit_event("block_write");
        ev.num("config",
               static_cast<std::int64_t>(oracle_.intern_root(after_block)))
            .num("stage", static_cast<std::int64_t>(j - 1))
            .num("depth", depth_)
            .raw("procs", obs::json_int_array(prev.r_i.to_vector()))
            .raw("regs", obs::json_int_array(regs_vec(prev.covered)));
        obs::stats_sink().write(ev.render());
      }
      // R_i u {q} bivalent => superset P - {z} bivalent: hypothesis applies.
      auto sub = lemma4(after_block, pz);
      prev.psi_i = sub.alpha;
      push_stage(sim::run(proto_, after_block, sub.alpha), sub.q);
    }

    // Pigeonhole check: some earlier stage covering the same register set?
    bool done = false;
    for (std::size_t i = 0; i < j; ++i) {
      if (stages[i].covered == stages[j].covered) {
        rep_i = i;
        rep_j = j;
        done = true;
        break;
      }
    }
    if (done) break;
  }
  stats_.max_di_stages = std::max(stats_.max_di_stages, stages.size());
  note("pigeonhole: stages " + std::to_string(rep_i) + " and " +
       std::to_string(rep_j) + " cover the same registers");
  if (obs::stats_enabled()) {
    obs::JsonObj ev = obs::audit_event("lemma4.pigeonhole");
    ev.num("depth", depth_)
        .num("stage_i", static_cast<std::int64_t>(rep_i))
        .num("stage_j", static_cast<std::int64_t>(rep_j))
        .raw("covered", obs::json_int_array(regs_vec(stages[rep_i].covered)));
    obs::stats_sink().write(ev.render());
  }

  // Insert z's hidden steps: run z solo from D_i-phi_i until it is poised
  // to write outside V (Lemma 2 guarantees this); its covered writes are
  // then obliterated by the block write beta_i, so P - {z} cannot tell and
  // the chain's remaining schedule applies unchanged.
  Stage& si = stages[rep_i];
  const Config d_phi = sim::run(proto_, si.d_i, si.phi_i);
  auto esc = solo_escape(d_phi, z, si.covered);
  TSB_REQUIRE(esc.found,
              "Lemma 2 violated: the protocol cannot be a correct "
              "solo-terminating consensus protocol");

  Schedule alpha = gamma + eta;
  for (std::size_t k = 0; k < rep_i; ++k) {
    alpha.append(stages[k].phi_i);
    alpha.append(stages[k].beta_i);
    alpha.append(stages[k].psi_i);
  }
  alpha.append(si.phi_i);
  alpha.append(esc.zeta_prime);
  alpha.append(si.beta_i);
  alpha.append(si.psi_i);
  for (std::size_t k = rep_i + 1; k < rep_j; ++k) {
    alpha.append(stages[k].phi_i);
    alpha.append(stages[k].beta_i);
    alpha.append(stages[k].psi_i);
  }

  // Sanity: C-alpha is indistinguishable from D_j to P - {z}; Q_j is
  // bivalent from it and P - Q_j covers |P| - 2 distinct registers
  // (R_j covers V, z covers its escape register outside V).
  const Config c_alpha = sim::run(proto_, c, alpha);
  const ProcSet q_j = stages[rep_j].q_i;
  TSB_REQUIRE(sim::indistinguishable(c_alpha, stages[rep_j].d_i, pz),
              "hidden insertion of z was detected by P - {z}");
  TSB_REQUIRE(oracle_.bivalent(c_alpha, q_j), "Q_j lost bivalence");
  TSB_REQUIRE(well_spread(proto_, c_alpha, p - q_j),
              "P - Q_j is not well spread in C-alpha");
  TSB_REQUIRE(static_cast<int>(
                  covered_registers(proto_, c_alpha, p - q_j).size()) ==
                  p.size() - 2,
              "covering size mismatch");
  // z's hidden escape write joined the covering: |P| - 2 at this level.
  obs::TraceSink::global().counter(
      "covered", static_cast<std::int64_t>(p.size() - 2));

  stats_.longest_alpha = std::max(stats_.longest_alpha, alpha.size());
  --depth_;
  note("Lemma 4 done: |alpha| = " + std::to_string(alpha.size()) +
       ", bivalent pair " + q_j.to_string() + ", covering " +
       describe_covering(proto_, c_alpha, p - q_j));
  if (obs::stats_enabled()) {
    obs::JsonObj ev = obs::audit_event("lemma4.done");
    ev.num("config",
           static_cast<std::int64_t>(oracle_.intern_root(c_alpha)))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .raw("bivalent_pair", obs::json_int_array(q_j.to_vector()))
        .raw("covered", obs::json_int_array(
                            regs_vec(covered_registers(proto_, c_alpha,
                                                       p - q_j))))
        .num("alpha_len", static_cast<std::int64_t>(alpha.size()))
        .num("depth", depth_);
    obs::stats_sink().write(ev.render());
  }
  return {alpha, q_j};
}

}  // namespace tsb::bound

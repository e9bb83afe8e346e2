#include "bound/valency.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "util/checkpoint.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace tsb::bound {

namespace {
// One audit record per public valency query: which configuration (root id
// in the oracle's arena), which processes, which value, the verdict,
// whether the memo answered, and the witness configuration the verdict
// rests on. `tsb report` aggregates these into the cache-stats table and
// cross-links them to lemma events through the config field.
void audit_query(const char* op, sim::ConfigId root, ProcSet p, Value v,
                 bool answer, bool memo_hit, sim::ConfigId witness) {
  obs::JsonObj ev = obs::audit_event("valency");
  ev.str("op", op)
      .num("config", static_cast<std::int64_t>(root))
      .raw("procs", obs::json_int_array(p.to_vector()))
      .num("v", static_cast<std::int64_t>(v))
      .boolean("answer", answer)
      .boolean("memo_hit", memo_hit);
  if (witness != sim::kNoConfig) {
    ev.num("witness", static_cast<std::int64_t>(witness));
  }
  obs::stats_sink().write(ev.render());
}
}  // namespace

std::size_t ValencyOracle::PairKeyHash::operator()(const PairKey& k) const {
  std::uint64_t h = static_cast<std::uint64_t>(k.root);
  h = util::hash_combine(h, k.pbits);
  return static_cast<std::size_t>(h);
}

bool ValencyOracle::can_decide(const Config& c, ProcSet p, Value v) {
  TSB_REQUIRE(v == 0 || v == 1, "valency queries are binary");
  ++queries_;
  const PairAnswer& a = lookup(c, p);
  if (obs::stats_enabled()) {
    audit_query("can_decide", last_audit_id_, p, v, a.can[v], last_lookup_hit_,
                a.witness_id[v]);
  }
  return a.can[v];
}

Value ValencyOracle::some_decidable(const Config& c, ProcSet p) {
  if (can_decide(c, p, 0)) return 0;
  TSB_REQUIRE(can_decide(c, p, 1),
              "Proposition 1(i) violated: some set can decide nothing — the "
              "protocol is not solo terminating at a queried configuration "
              "(for capped protocols: raise the cap)");
  return 1;
}

std::optional<Schedule> ValencyOracle::deciding_schedule(const Config& c,
                                                         ProcSet p, Value v) {
  TSB_REQUIRE(v == 0 || v == 1, "valency queries are binary");
  ++queries_;
  const PairAnswer& a = lookup(c, p);
  if (obs::stats_enabled()) {
    audit_query("deciding_schedule", last_audit_id_, p, v, a.can[v],
                last_lookup_hit_, a.witness_id[v]);
  }
  if (!a.can[v]) return std::nullopt;
  return decanonicalize(a.witness[v], last_perm_);
}

Schedule ValencyOracle::decanonicalize(const Schedule& s,
                                       sim::ProcPerm pi) const {
  if (pi.is_identity()) return s;
  const sim::ProcPerm inv = pi.inverse();
  std::vector<sim::ProcId> steps;
  steps.reserve(s.size());
  for (const sim::ProcId q : s.steps()) steps.push_back(inv(q));
  return Schedule(std::move(steps));
}

sim::ReachGraph& ValencyOracle::ensure_graph() {
  if (!graph_) {
    graph_ = std::make_unique<sim::ReachGraph>(
        proto_, sim::ReachGraph::Options{.limits = opts_.limits});
  }
  return *graph_;
}

void ValencyOracle::update_memo_ledger() const {
  obs::MemLedger::global().set(
      obs::MemAccount::kValencyMemo,
      obs::node_map_bytes(memo_) + memo_witness_bytes_ +
          roots_.memory_bytes() +
          (audit_ids_ ? audit_ids_->memory_bytes() : 0));
}

sim::ConfigId ValencyOracle::audit_id(const Config& c) {
  if (!audit_ids_) {
    audit_ids_.emplace(proto_.num_processes(), proto_.num_registers(),
                       "audit ids");
  }
  return audit_ids_->intern(c).id;
}

ValencyOracle::PairKey ValencyOracle::memo_key(const Config& c, ProcSet p,
                                               sim::ProcPerm* perm) {
  *perm = sim::ProcPerm::identity();
  if (!opts_.reuse) return PairKey{roots_.intern(c).id, p.bits()};
  // Memoize on the canonical projected (config, ProcSet-orbit, ambient)
  // triple, so any two queries the engine cannot distinguish — same
  // P-states, registers, frozen-process decide bits — share one entry;
  // audit ids stay in the original space. Ambient rides in bits 60..61,
  // which no P mask reaches: the constructor refuses reuse for n > 60.
  const sim::ReachGraph::Node node = ensure_graph().intern_node(c, p, perm);
  return PairKey{node.id,
                 node.pbits | (static_cast<std::uint64_t>(node.ambient) << 60)};
}

const ValencyOracle::PairAnswer& ValencyOracle::lookup(const Config& c,
                                                       ProcSet p) {
  const PairKey key = memo_key(c, p, &last_perm_);
  // Without stats, the flight record names the memo key's root: the graph
  // node with reuse, the interned root without.
  last_audit_id_ = obs::stats_enabled() ? audit_id(c) : key.root;
  if (auto it = memo_.find(key); it != memo_.end()) {
    ++cache_hits_;
    last_lookup_hit_ = true;
    obs::flight::record(obs::flight::Ev::kValencyQuery,
                        static_cast<std::int64_t>(last_audit_id_), 1);
    return it->second;
  }
  last_lookup_hit_ = false;
  obs::flight::record(obs::flight::Ev::kValencyQuery,
                      static_cast<std::int64_t>(last_audit_id_), 0);
  sim::ReachGraph::QueryResult pass;  // the shared engine's counters
  bool replay_ok = true;
  PairAnswer answer = opts_.reuse
                          ? compute_pair_shared(c, p, &pass, &replay_ok)
                          : compute_pair(c, p);
  if (obs::stats_enabled()) {
    // One record per reachability pass, on both backends: the verdicts,
    // and with reuse what the pass paid (expanded = fresh protocol steps)
    // versus consumed for free (reused = stored edges, from_facts = no
    // graph work at all).
    obs::JsonObj ev = obs::audit_event("valency.pass");
    ev.num("config", static_cast<std::int64_t>(last_audit_id_))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .boolean("can0", answer.can[0])
        .boolean("can1", answer.can[1]);
    if (opts_.reuse) {
      ev.num("expanded", static_cast<std::int64_t>(pass.expanded))
          .num("reused", static_cast<std::int64_t>(pass.reused))
          .num("visited", static_cast<std::int64_t>(pass.visited))
          .boolean("from_facts", pass.from_facts)
          .boolean("truncated", pass.truncated)
          .boolean("replay_ok", replay_ok)
          .num("graph_nodes", static_cast<std::int64_t>(graph_->nodes()))
          .num("facts", static_cast<std::int64_t>(graph_->fact_entries()));
      if (graph_->symmetric()) {
        ev.num("canonical", static_cast<std::int64_t>(key.root))
            .boolean("identity", last_perm_.is_identity());
      }
    }
    obs::stats_sink().write(ev.render());
  }
  // The record above is written first so `tsb report` can flag the failure
  // from artifacts even though the run itself dies right here.
  TSB_REQUIRE(replay_ok,
              "shared-graph witness failed de-canonicalized replay — "
              "reachability engine or a Protocol::symmetric() declaration "
              "is unsound");
  answer.root = opts_.reuse ? roots_.intern(c).id : key.root;
  answer.procs = p.bits();
  const PairAnswer& stored = memo_.emplace(key, std::move(answer)).first->second;
  // Memo growth only happens here (one entry per miss), so this is the
  // natural ledger refresh point.
  for (int v = 0; v < 2; ++v) {
    memo_witness_bytes_ += stored.witness[v].size() * sizeof(sim::ProcId);
  }
  update_memo_ledger();
  return stored;
}

ValencyOracle::PairAnswer ValencyOracle::compute_pair_shared(
    const Config& c, ProcSet p, sim::ReachGraph::QueryResult* qr,
    bool* replay_ok) {
  ++explorations_;
  sim::ProcPerm perm;
  *qr = graph_->query(c, p, &perm);
  last_perm_ = perm;
  if (qr->truncated) ever_truncated_ = true;

  PairAnswer answer;
  for (int v = 0; v < 2; ++v) {
    if (!qr->can[v]) continue;
    answer.can[v] = true;
    answer.witness_id[v] = qr->witness_id[v];
    answer.witness[v] = std::move(qr->witness[v]);
    // De-canonicalized replay through the raw engine: the canonical-frame
    // witness, translated into the caller's process ids, must decide v
    // from the *original* configuration. This is the soundness check on
    // the whole reuse/symmetry machinery, run on every fresh witness.
    const Schedule w = decanonicalize(answer.witness[v], perm);
    const Config end = sim::run(proto_, c, w);
    *replay_ok = *replay_ok && sim::some_decided(proto_, end, v);
  }
  return answer;
}

ValencyOracle::PairAnswer ValencyOracle::compute_pair(const Config& c,
                                                      ProcSet p) {
  ++explorations_;
  const int n = proto_.num_processes();
  sim::ConfigId found[2] = {sim::kNoConfig, sim::kNoConfig};
  // One pass answers both values: scan each visited configuration for
  // deciding processes (matching some_decided) and keep going until both
  // a 0-deciding and a 1-deciding configuration have been seen — or the
  // P-only space is exhausted, which makes the negative answers exact.
  auto visit = [&](const sim::ConfigView& cv) {
    for (sim::ProcId q = 0; q < n; ++q) {
      const sim::PendingOp op = proto_.poised(q, cv.states[q]);
      if (!op.is_decide()) continue;
      const sim::Value v = op.value;
      if ((v == 0 || v == 1) && found[v] == sim::kNoConfig) found[v] = cv.id;
    }
    return found[0] == sim::kNoConfig || found[1] == sim::kNoConfig;
  };

  if (!seq_) seq_.emplace(proto_, sim::Explorer::Options{opts_.limits});
  const sim::ExploreResult res = seq_->explore(c, p, visit);

  // A truncated pass can only under-report; positive answers found before
  // the cap are still sound. (A budget trip never gets here: it throws
  // out of explore().)
  if (res.truncated) ever_truncated_ = true;
  PairAnswer answer;
  for (int v = 0; v < 2; ++v) {
    if (found[v] == sim::kNoConfig) continue;
    answer.can[v] = true;
    answer.witness_id[v] = found[v];
    auto w = seq_->witness_by_id(found[v]);
    assert(w.has_value());
    answer.witness[v] = std::move(*w);
  }
  return answer;
}

// --- checkpoint/resume ----------------------------------------------------

std::string ValencyOracle::state_fingerprint() const {
  // Everything that changes verdicts or the serialized layout; formatted
  // as stable text so the manifest diff on a mismatch is human-readable.
  return "proto=" + proto_.name() +
         " n=" + std::to_string(proto_.num_processes()) +
         " m=" + std::to_string(proto_.num_registers()) +
         " cap=" + std::to_string(opts_.limits.max_configs) +
         " reuse=" + (opts_.reuse ? std::string("1") : std::string("0")) +
         " ckpt_fmt=" + std::to_string(util::ckpt::kFormatVersion);
}

void ValencyOracle::save_state(util::ckpt::SectionWriter& w) const {
  w.begin("oracle");
  w.put_u32(static_cast<std::uint32_t>(proto_.num_processes()));
  w.put_u32(static_cast<std::uint32_t>(proto_.num_registers()));
  w.put_u8(opts_.reuse ? 1 : 0);
  w.end();

  std::vector<const PairAnswer*> entries;
  entries.reserve(memo_.size());
  for (const auto& kv : memo_) entries.push_back(&kv.second);
  std::sort(entries.begin(), entries.end(),
            [](const PairAnswer* a, const PairAnswer* b) {
              return std::tie(a->root, a->procs) < std::tie(b->root, b->procs);
            });
  std::vector<Value> words(roots_.words_per_config());
  w.begin("memo");
  w.put_u64(entries.size());
  for (const PairAnswer* a : entries) {
    roots_.decode(a->root, words.data());
    for (const Value x : words) w.put_i64(x);
    w.put_u64(a->procs);
    for (int v = 0; v < 2; ++v) {
      w.put_u8(a->can[v] ? 1 : 0);
      const auto& steps = a->witness[v].steps();
      w.put_u32(static_cast<std::uint32_t>(steps.size()));
      for (const sim::ProcId q : steps) {
        w.put_u8(static_cast<std::uint8_t>(q));
      }
    }
  }
  w.end();
}

bool ValencyOracle::witness_decides(const Config& c, ProcSet p,
                                    const Schedule& w, Value v) const {
  // sim::run, with each step's process and register checked first: the
  // schedule and the root came off the disk (steps already name processes
  // below n).
  Config cur = c;
  for (const sim::ProcId q : w.steps()) {
    if (!p.contains(q)) return false;
    const sim::PendingOp op =
        proto_.poised(q, cur.states[static_cast<std::size_t>(q)]);
    if (!op.is_decide() &&
        (op.reg < 0 || op.reg >= proto_.num_registers())) {
      return false;
    }
    cur = sim::step(proto_, cur, q);
  }
  return sim::some_decided(proto_, cur, v);
}

void ValencyOracle::restore_state(util::ckpt::SectionReader& r) {
  TSB_REQUIRE(roots_.size() == 0 && memo_.empty() && !graph_,
              "ValencyOracle::restore_state requires a fresh oracle");
  const int n = proto_.num_processes();
  const int m = proto_.num_registers();
  r.expect("oracle");
  const std::uint32_t saved_n = r.get_u32();
  const std::uint32_t saved_m = r.get_u32();
  const bool saved_reuse = r.get_u8() != 0;
  r.done();
  if (saved_n != static_cast<std::uint32_t>(n) ||
      saved_m != static_cast<std::uint32_t>(m)) {
    throw util::CheckpointInvalid(
        "checkpoint was written for " + std::to_string(saved_n) +
        " processes and " + std::to_string(saved_m) +
        " registers, but this protocol has " + std::to_string(n) + " and " +
        std::to_string(m));
  }
  if (saved_reuse != opts_.reuse) {
    throw util::CheckpointInvalid(
        "checkpoint was written with --reuse " +
        std::string(saved_reuse ? "on" : "off") +
        " but this run has it " + (opts_.reuse ? "on" : "off") +
        "; memo keys are not comparable across modes");
  }

  r.expect("memo");
  const std::uint64_t count = r.get_u64();
  // An entry is at least its root words, its P and two empty witnesses.
  const std::size_t words = static_cast<std::size_t>(n + m);
  const std::size_t min_entry = 8 * words + 8 + 2 * 5;
  if (count > r.remaining() / min_entry) {
    throw util::CheckpointInvalid(
        "checkpoint memo claims " + std::to_string(count) +
        " entries but its section has " + std::to_string(r.remaining()) +
        " bytes left");
  }
  const std::uint64_t all = ProcSet::first_n(n).bits();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string where = "checkpoint memo entry " + std::to_string(i);
    Config c;
    c.states.resize(static_cast<std::size_t>(n));
    c.regs.resize(static_cast<std::size_t>(m));
    for (Value& x : c.states) {
      x = r.get_i64();
      if (x == sim::ReachGraph::kMaskedState) {
        throw util::CheckpointInvalid(where +
                                      " holds the masked-state word");
      }
    }
    for (Value& x : c.regs) x = r.get_i64();
    const std::uint64_t pbits = r.get_u64();
    if (pbits == 0 || (pbits & ~all) != 0) {
      throw util::CheckpointInvalid(
          where + " names process set " + std::to_string(pbits) + " of " +
          std::to_string(n) + " processes");
    }
    const ProcSet p(pbits);
    PairAnswer a;
    for (int v = 0; v < 2; ++v) {
      a.can[v] = r.get_u8() != 0;
      // The length and the steps are read off the disk: one byte per step
      // must be left in the section before anything is reserved.
      const std::uint32_t len = r.get_u32();
      if (len > r.remaining() || (!a.can[v] && len != 0)) {
        throw util::CheckpointInvalid(
            where + " claims a " + std::to_string(len) + "-step witness for " +
            (a.can[v] ? "a positive" : "a negative") + " answer with " +
            std::to_string(r.remaining()) + " bytes left");
      }
      const std::uint8_t* bytes = r.get_bytes(len);
      std::vector<sim::ProcId> steps(bytes, bytes + len);
      for (const sim::ProcId q : steps) {
        if (q >= n) {
          throw util::CheckpointInvalid(where + "'s witness steps process " +
                                        std::to_string(q) + " of " +
                                        std::to_string(n));
        }
      }
      a.witness[v] = Schedule(std::move(steps));
    }
    // Re-key as lookup() keys a query: with reuse, the canonical projected
    // node, whose frame the witnesses are stored in.
    PairKey key;
    sim::ProcPerm perm;
    a.procs = pbits;
    try {
      key = memo_key(c, p, &perm);
      a.root = opts_.reuse ? roots_.intern(c).id : key.root;
    } catch (const util::BudgetExhausted& e) {
      // Only a hostile file names more distinct words than the run that
      // wrote it could intern.
      throw util::CheckpointInvalid(where + " does not fit an arena: " +
                                    e.what());
    }
    for (int v = 0; v < 2; ++v) {
      if (a.can[v] &&
          !witness_decides(c, p, decanonicalize(a.witness[v], perm), v)) {
        throw util::CheckpointInvalid(where + "'s witness does not decide " +
                                      std::to_string(v) + " from its root");
      }
      memo_witness_bytes_ += a.witness[v].size() * sizeof(sim::ProcId);
    }
    if (!memo_.emplace(key, std::move(a)).second) {
      throw util::CheckpointInvalid(where +
                                    " re-keys to a pair already restored");
    }
  }
  r.done();
  update_memo_ledger();
}

}  // namespace tsb::bound

#include "bound/valency.hpp"

#include <cassert>
#include <cstring>

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
    audit_query("can_decide", last_root_id_, p, v, a.can[v], last_lookup_hit_,
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
    audit_query("deciding_schedule", last_root_id_, p, v, a.can[v],
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

void ValencyOracle::check_deadline() const {
  // Wall-clock watchdog: don't even start a pass past the deadline. Both
  // backends re-check it mid-pass, so a single long pass cannot hang
  // either.
  if (deadline_ != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline_) {
    throw util::BudgetExhausted(
        "valency oracle wall-clock budget exhausted (" +
        std::to_string(opts_.time_budget_ms) + " ms)");
  }
}

sim::ReachGraph& ValencyOracle::ensure_graph() {
  if (!graph_) {
    graph_ = std::make_unique<sim::ReachGraph>(
        proto_, sim::ReachGraph::Options{
                    .max_configs = opts_.max_configs,
                    .max_arena_bytes = opts_.max_arena_bytes,
                    .spill_dir = opts_.spill_dir,
                    .spill_threshold_bytes = opts_.spill_threshold_bytes,
                    .spill_seg_configs = opts_.spill_seg_configs,
                    .graph_spill = opts_.graph_spill});
    graph_->set_deadline(deadline_);
  }
  return *graph_;
}

const ValencyOracle::PairAnswer& ValencyOracle::lookup(const Config& c,
                                                       ProcSet p) {
  roots_.pack(c, roots_.scratch());
  last_root_id_ = roots_.intern_scratch().id;
  last_perm_ = sim::ProcPerm::identity();
  PairKey key{last_root_id_, p.bits()};
  if (opts_.reuse) {
    ensure_graph();
    // Memoize on the canonical projected (config, ProcSet-orbit, ambient)
    // triple, so any two queries the engine cannot distinguish — same
    // P-states, registers, frozen-process decide bits — share one entry;
    // audit ids stay in the roots_ space above. Ambient rides in bits the
    // P mask can never reach (n <= 28 whenever facts/ambient are live).
    const sim::ReachGraph::Node node = graph_->intern_node(c, p, &last_perm_);
    key = PairKey{node.id,
                  node.pbits | (static_cast<std::uint64_t>(node.ambient) << 60)};
  }
  if (auto it = memo_.find(key); it != memo_.end()) {
    ++cache_hits_;
    last_lookup_hit_ = true;
    obs::flight::record(obs::flight::Ev::kValencyQuery,
                        static_cast<std::int64_t>(last_root_id_), 1);
    return it->second;
  }
  last_lookup_hit_ = false;
  obs::flight::record(obs::flight::Ev::kValencyQuery,
                      static_cast<std::int64_t>(last_root_id_), 0);
  PairAnswer answer =
      opts_.reuse ? compute_pair_shared(c, p) : compute_pair(c, p);
  if (obs::stats_enabled()) {
    obs::JsonObj ev = obs::audit_event("valency.explore");
    ev.num("config", static_cast<std::int64_t>(last_root_id_))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .boolean("can0", answer.can[0])
        .boolean("can1", answer.can[1]);
    obs::stats_sink().write(ev.render());
  }
  const PairAnswer& stored = memo_.emplace(key, std::move(answer)).first->second;
  // Memo growth only happens here (one entry per miss), so this is the
  // natural ledger refresh point. An approximation: node + entry bytes per
  // bucket, the witness schedules' steps (accumulated — entries are never
  // evicted), and the root-id arena.
  for (int v = 0; v < 2; ++v) {
    memo_witness_bytes_ += stored.witness[v].size() * sizeof(sim::ProcId);
  }
  const std::size_t memo_bytes =
      memo_.bucket_count() * sizeof(void*) +
      memo_.size() *
          (sizeof(PairKey) + sizeof(PairAnswer) + 2 * sizeof(void*)) +
      memo_witness_bytes_;
  obs::MemLedger::global().set(obs::MemAccount::kValencyMemo,
                               memo_bytes + roots_.memory_bytes());
  return stored;
}

ValencyOracle::PairAnswer ValencyOracle::compute_pair_shared(const Config& c,
                                                             ProcSet p) {
  ++explorations_;
  check_deadline();
  sim::ProcPerm perm;
  sim::ReachGraph::QueryResult qr = graph_->query(c, p, &perm);
  last_perm_ = perm;
  if (qr.truncated) ever_truncated_ = true;

  PairAnswer answer;
  bool replay_ok = true;
  for (int v = 0; v < 2; ++v) {
    if (!qr.can[v]) continue;
    answer.can[v] = true;
    answer.witness_id[v] = qr.witness_id[v];
    answer.witness[v] = std::move(qr.witness[v]);
    // De-canonicalized replay through the raw engine: the canonical-frame
    // witness, translated into the caller's process ids, must decide v
    // from the *original* configuration. This is the soundness check on
    // the whole reuse/symmetry machinery, run on every fresh witness.
    const Schedule w = decanonicalize(answer.witness[v], perm);
    const Config end = sim::run(proto_, c, w);
    replay_ok = replay_ok && sim::some_decided(proto_, end, v);
  }

  if (obs::stats_enabled()) {
    obs::JsonObj rec;
    rec.str("type", "valency.reuse")
        .num("config", static_cast<std::int64_t>(last_root_id_))
        .raw("procs", obs::json_int_array(p.to_vector()))
        .num("expanded", static_cast<std::int64_t>(qr.expanded))
        .num("reused", static_cast<std::int64_t>(qr.reused))
        .num("visited", static_cast<std::int64_t>(qr.visited))
        .boolean("from_facts", qr.from_facts)
        .boolean("truncated", qr.truncated)
        .boolean("can0", qr.can[0])
        .boolean("can1", qr.can[1])
        .boolean("replay_ok", replay_ok)
        .num("graph_nodes", static_cast<std::int64_t>(graph_->nodes()))
        .num("facts", static_cast<std::int64_t>(graph_->fact_entries()));
    obs::stats_sink().write(rec.render());
    if (graph_->symmetric()) {
      obs::JsonObj orb;
      orb.str("type", "canonical.orbit")
          .num("config", static_cast<std::int64_t>(last_root_id_))
          .num("canonical",
               static_cast<std::int64_t>(graph_->intern_node(c, p, nullptr).id))
          .raw("procs", obs::json_int_array(p.to_vector()))
          .boolean("identity", perm.is_identity());
      obs::stats_sink().write(orb.render());
    }
  }
  // The record above is written first so `tsb report` can flag the failure
  // from artifacts even though the run itself dies right here.
  TSB_REQUIRE(replay_ok,
              "shared-graph witness failed de-canonicalized replay — "
              "reachability engine or a Protocol::symmetric() declaration "
              "is unsound");
  return answer;
}

ValencyOracle::PairAnswer ValencyOracle::compute_pair(const Config& c,
                                                      ProcSet p) {
  ++explorations_;
  check_deadline();
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

  if (!seq_) {
    seq_.emplace(proto_, sim::Explorer::Options{opts_.max_configs});
    seq_->set_budget(opts_.max_arena_bytes, deadline_);
    if (opts_.spill_threshold_bytes != 0 && !opts_.spill_dir.empty()) {
      seq_->set_spill(opts_.spill_dir, opts_.spill_threshold_bytes,
                      opts_.spill_seg_configs);
    }
  }
  const sim::ExploreResult res = seq_->explore(c, p, visit);

  // A truncated pass can only under-report; positive answers found before
  // the cap are still sound. A *budget* truncation with a value still
  // unresolved must not produce a negative answer at all — the
  // graceful-degradation contract is a distinct failure, not a verdict.
  if (res.budget_exhausted &&
      (found[0] == sim::kNoConfig || found[1] == sim::kNoConfig)) {
    throw util::BudgetExhausted(
        "valency query exceeded its memory/time budget with a value "
        "undetermined; negative answers would be unsound");
  }
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
         " cap=" + std::to_string(opts_.max_configs) +
         " reuse=" + (opts_.reuse ? std::string("1") : std::string("0")) +
         " spill_thresh=" + std::to_string(opts_.spill_threshold_bytes) +
         " spill_seg=" + std::to_string(opts_.spill_seg_configs) +
         " ckpt_fmt=" + std::to_string(util::ckpt::kFormatVersion);
}

void ValencyOracle::save_state(util::ckpt::SectionWriter& w) const {
  w.begin("oracle");
  w.put_u8(opts_.reuse ? 1 : 0);
  w.put_u8(graph_ ? 1 : 0);
  w.end();

  w.begin("roots");
  const std::size_t W = roots_.words_per_config();
  const std::size_t count = roots_.size();
  w.put_u64(count);
  for (std::size_t id = 0; id < count; ++id) {
    w.put_bytes(roots_.words(static_cast<sim::ConfigId>(id)),
                W * sizeof(sim::Value));
  }
  w.end();

  w.begin("memo");
  w.put_u64(memo_.size());
  for (const auto& [key, a] : memo_) {
    w.put_u32(key.root);
    w.put_u64(key.pbits);
    for (int v = 0; v < 2; ++v) {
      w.put_u8(a.can[v] ? 1 : 0);
      w.put_u32(a.witness_id[v]);
      const auto& steps = a.witness[v].steps();
      w.put_u32(static_cast<std::uint32_t>(steps.size()));
      for (const sim::ProcId q : steps) {
        w.put_u8(static_cast<std::uint8_t>(q));
      }
    }
  }
  w.end();

  if (graph_) graph_->save(w);
}

void ValencyOracle::restore_state(util::ckpt::SectionReader& r) {
  TSB_REQUIRE(roots_.size() == 0 && memo_.empty() && !graph_,
              "ValencyOracle::restore_state requires a fresh oracle");
  r.expect("oracle");
  const bool saved_reuse = r.get_u8() != 0;
  const bool has_graph = r.get_u8() != 0;
  r.done();
  if (saved_reuse != opts_.reuse) {
    throw util::CheckpointInvalid(
        "checkpoint was written with --reuse " +
        std::string(saved_reuse ? "on" : "off") +
        " but this run has it " + (opts_.reuse ? "on" : "off") +
        "; memo keys are not comparable across modes");
  }

  r.expect("roots");
  const std::size_t W = roots_.words_per_config();
  const std::uint64_t root_count = r.get_u64();
  for (std::uint64_t i = 0; i < root_count; ++i) {
    std::memcpy(roots_.scratch(), r.get_bytes(W * sizeof(sim::Value)),
                W * sizeof(sim::Value));
    const auto res = roots_.intern_scratch();
    if (!res.inserted || static_cast<std::uint64_t>(res.id) != i) {
      throw util::CheckpointInvalid(
          "checkpoint roots section re-interned to a different id (root " +
          std::to_string(i) + " -> " + std::to_string(res.id) + ")");
    }
  }
  r.done();

  r.expect("memo");
  const std::uint64_t memo_count = r.get_u64();
  for (std::uint64_t i = 0; i < memo_count; ++i) {
    PairKey key{};
    key.root = r.get_u32();
    key.pbits = r.get_u64();
    PairAnswer a;
    for (int v = 0; v < 2; ++v) {
      a.can[v] = r.get_u8() != 0;
      a.witness_id[v] = r.get_u32();
      const std::uint32_t len = r.get_u32();
      std::vector<sim::ProcId> steps;
      steps.reserve(len);
      for (std::uint32_t s = 0; s < len; ++s) {
        steps.push_back(static_cast<sim::ProcId>(r.get_u8()));
      }
      a.witness[v] = Schedule(std::move(steps));
      memo_witness_bytes_ += a.witness[v].size() * sizeof(sim::ProcId);
    }
    if (!memo_.emplace(key, std::move(a)).second) {
      throw util::CheckpointInvalid(
          "checkpoint memo section carries a duplicate pair key");
    }
  }
  r.done();

  if (has_graph) {
    if (!opts_.reuse) {
      throw util::CheckpointInvalid(
          "checkpoint carries a reachability graph but reuse is off");
    }
    ensure_graph().restore(r);
  }

  const std::size_t memo_bytes =
      memo_.bucket_count() * sizeof(void*) +
      memo_.size() *
          (sizeof(PairKey) + sizeof(PairAnswer) + 2 * sizeof(void*)) +
      memo_witness_bytes_;
  obs::MemLedger::global().set(obs::MemAccount::kValencyMemo,
                               memo_bytes + roots_.memory_bytes());
}

}  // namespace tsb::bound

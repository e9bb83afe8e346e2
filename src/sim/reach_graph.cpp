#include "sim/reach_graph.hpp"

#include <algorithm>
#include <cassert>
#include <string>

#include "obs/flight.hpp"
#include "obs/memledger.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "util/checkpoint.hpp"
#include "util/require.hpp"

namespace tsb::sim {

namespace {
inline std::uint64_t mix64(std::uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}
}  // namespace

// ---------------------------------------------------------------- FactMap

const std::uint32_t* ReachGraph::FactMap::find(std::uint64_t key) const {
  if (slots_.empty()) return nullptr;
  std::size_t i = mix64(key) & mask_;
  while (true) {
    const Slot& s = slots_[i];
    if (s.key == 0) return nullptr;
    if (s.key == key) return &s.val;
    i = (i + 1) & mask_;
  }
}

std::uint32_t& ReachGraph::FactMap::at_or_insert(std::uint64_t key) {
  if (slots_.empty() || (count_ + 1) * 10 >= slots_.size() * 7) grow();
  std::size_t i = mix64(key) & mask_;
  while (true) {
    Slot& s = slots_[i];
    if (s.key == 0) {
      s.key = key;
      ++count_;
      return s.val;
    }
    if (s.key == key) return s.val;
    i = (i + 1) & mask_;
  }
}

void ReachGraph::FactMap::grow() {
  const std::size_t cap = slots_.empty() ? 1024 : slots_.size() * 2;
  std::vector<Slot> bigger(cap);
  const std::size_t mask = cap - 1;
  for (const Slot& s : slots_) {
    if (s.key == 0) continue;
    std::size_t i = mix64(s.key) & mask;
    while (bigger[i].key != 0) i = (i + 1) & mask;
    bigger[i] = s;
  }
  slots_ = std::move(bigger);
  mask_ = mask;
}

// -------------------------------------------------------------- ReachGraph

ReachGraph::ReachGraph(const Protocol& proto, Options opts)
    : proto_(proto),
      opts_(opts),
      n_(proto.num_processes()),
      words_(static_cast<std::size_t>(proto.num_processes()) +
             static_cast<std::size_t>(proto.num_registers())),
      sym_(proto.symmetric() && proto.num_processes() <= ProcPerm::kMaxProcs),
      // Fact keys pack P and the ambient bits above the 32-bit id; for
      // n > 28 (no experiment goes near it) facts are simply disabled —
      // edge reuse still works.
      facts_on_(proto.num_processes() <= 28),
      arena_(proto.num_processes(), proto.num_registers()),
      stage_(words_, 0),
      sub_stage_(words_, 0),
      exp_words_(words_ * static_cast<std::size_t>(proto.num_processes()), 0) {
  flags_.init("graph.flags", 1, 0);
  succ_.init("graph.succ", static_cast<std::size_t>(n_), kUnexpanded);
  if (sym_) {
    perm_.init("graph.perm", static_cast<std::size_t>(n_),
               ProcPerm::identity().packed());
  }
  if (opts_.spill_threshold_bytes != 0 && !opts_.spill_dir.empty()) {
    arena_.set_spill(opts_.spill_dir, opts_.spill_threshold_bytes,
                     opts_.spill_seg_configs);
    if (opts_.graph_spill) {
      // The edge stores share the arena's segment-size hint so CI smoke
      // runs that shrink segments to force spilling force it everywhere.
      edge_spill_on_ =
          flags_.set_spill(opts_.spill_dir, opts_.spill_seg_configs) &&
          succ_.set_spill(opts_.spill_dir, opts_.spill_seg_configs) &&
          (!sym_ || perm_.set_spill(opts_.spill_dir, opts_.spill_seg_configs));
    }
  }
}

std::size_t ReachGraph::memory_bytes() const {
  return arena_.memory_bytes() + edge_resident_bytes() +
         facts_.memory_bytes() + entries_.capacity() * sizeof(Entry) +
         entry_perm_.capacity() * sizeof(ProcPerm) +
         edges_.capacity() * sizeof(EdgeRec) +
         (mark_epoch_.capacity() + mark_idx_.capacity()) *
             sizeof(std::uint32_t);
}

void ReachGraph::update_ledger() const {
  // Accounts mirror memory_bytes() exactly, so the exit-4 budget report
  // attributes 100% of the graph's tracked bytes to named subsystems.
  obs::MemLedger& ledger = obs::MemLedger::global();
  ledger.set(obs::MemAccount::kReachNodes, arena_.memory_bytes());
  ledger.set(obs::MemAccount::kReachEdges, edge_resident_bytes());
  ledger.set(obs::MemAccount::kReachFacts, facts_.memory_bytes());
  ledger.set(obs::MemAccount::kReachQuery,
             entries_.capacity() * sizeof(Entry) +
                 entry_perm_.capacity() * sizeof(ProcPerm) +
                 edges_.capacity() * sizeof(EdgeRec) +
                 (mark_epoch_.capacity() + mark_idx_.capacity()) *
                     sizeof(std::uint32_t));
  if (arena_.spill_enabled() || arena_.spilled_bytes() != 0) {
    // Disk-resident and mmap-resident bytes are tracked separately: the
    // spill file is not RAM (excluded from memory_bytes/budget), while
    // mapped read-back pages are reclaimable page cache.
    ledger.set(obs::MemAccount::kArenaSpill, arena_.spilled_bytes());
    ledger.set(obs::MemAccount::kArenaMapped, arena_.mapped_bytes());
  }
  if (edge_spill_on_ || edge_spilled_bytes() != 0) {
    ledger.set(obs::MemAccount::kGraphSpill, edge_spilled_bytes());
    ledger.set(obs::MemAccount::kGraphMapped, edge_mapped_bytes());
  }
}

void ReachGraph::check_budget() {
  // The budget poll doubles as the ledger refresh and a flight-recorder
  // breadcrumb: every 256 BFS steps, current tracked bytes vs budget.
  update_ledger();
  const std::size_t bytes = memory_bytes();
  obs::flight::record(obs::flight::Ev::kBudgetCheck,
                      static_cast<std::int64_t>(bytes),
                      static_cast<std::int64_t>(opts_.max_arena_bytes));
  if (opts_.max_arena_bytes != 0 && bytes >= opts_.max_arena_bytes) {
    obs::flight::record(obs::flight::Ev::kBudgetTrip,
                        static_cast<std::int64_t>(bytes),
                        static_cast<std::int64_t>(opts_.max_arena_bytes));
    throw util::BudgetExhausted(
        "reachability engine memory budget exhausted (" +
        std::to_string(opts_.max_arena_bytes) +
        " bytes; the shared graph is cumulative across queries) after " +
        std::to_string(arena_.size()) + " graph nodes; ledger: " +
        obs::MemLedger::global().attribution(3));
  }
  if (deadline_ != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline_) {
    obs::flight::record(obs::flight::Ev::kBudgetTrip,
                        static_cast<std::int64_t>(bytes), 0);
    throw util::BudgetExhausted(
        "valency wall-clock budget exhausted during a shared-graph query; "
        "ledger: " +
        obs::MemLedger::global().attribution(3));
  }
}

void ReachGraph::save(util::ckpt::SectionWriter& w) const {
  w.begin("graph");
  w.put_u32(static_cast<std::uint32_t>(n_));
  w.put_u32(static_cast<std::uint32_t>(words_));
  w.put_u8(sym_ ? 1 : 0);
  w.put_u8(facts_on_ ? 1 : 0);
  const std::size_t count = arena_.size();
  w.put_u64(count);
  // Logical node words in id order; arena_.words() decodes spilled
  // segments transparently, so the checkpoint is independent of which
  // segments happen to be on disk at write time. The edge stores stream
  // record by record through read() for the same reason: a checkpoint
  // taken while edge segments sit on disk is byte-identical to one taken
  // fully resident.
  for (std::size_t id = 0; id < count; ++id) {
    w.put_bytes(arena_.words(static_cast<ConfigId>(id)),
                words_ * sizeof(Value));
  }
  for (std::size_t id = 0; id < count; ++id) w.put_bytes(flags_.read(id), 1);
  for (std::size_t id = 0; id < count; ++id) {
    w.put_bytes(succ_.read(id), static_cast<std::size_t>(n_) * sizeof(ConfigId));
  }
  if (sym_) {
    for (std::size_t id = 0; id < count; ++id) {
      w.put_bytes(perm_.read(id),
                  static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
    }
  }
  w.put_u64(facts_.size());
  facts_.for_each([&](std::uint64_t key, std::uint32_t val) {
    w.put_u64(key);
    w.put_u32(val);
  });
  w.put_u64(edges_expanded_);
  w.put_u64(edges_reused_);
  w.put_u64(fact_answers_);
  w.put_u64(fact_subsumed_);
  w.end();
}

void ReachGraph::restore(util::ckpt::SectionReader& r) {
  TSB_REQUIRE(arena_.size() == 0,
              "ReachGraph::restore requires a freshly constructed engine");
  r.expect("graph");
  if (r.get_u32() != static_cast<std::uint32_t>(n_) ||
      r.get_u32() != static_cast<std::uint32_t>(words_) ||
      r.get_u8() != (sym_ ? 1 : 0) || r.get_u8() != (facts_on_ ? 1 : 0)) {
    throw util::CheckpointInvalid(
        "checkpoint graph section disagrees with the protocol's shape "
        "(process count, word count, or symmetry mode)");
  }
  const std::uint64_t count = r.get_u64();
  // Re-intern in id order: the arena's dedup table (and any spill
  // segmentation) rebuilds itself, and ids are stable because interning
  // order defines them.
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint8_t* p = r.get_bytes(words_ * sizeof(Value));
    std::memcpy(stage_.data(), p, words_ * sizeof(Value));
    const auto [id, inserted] = arena_.intern_words(stage_.data());
    if (!inserted || static_cast<std::uint64_t>(id) != i) {
      throw util::CheckpointInvalid(
          "checkpoint graph section re-interned to a different id (node " +
          std::to_string(i) + " -> " + std::to_string(id) +
          "): duplicate or reordered node words");
    }
  }
  // Bulk-load flags/edges/facts without register_config: the stored
  // values already carry its decide scan. Everything lands resident
  // (restore runs on a fresh engine); the trailing maybe_spill_edges()
  // re-establishes the memory plan before the first query.
  const std::size_t edge_count = count * static_cast<std::size_t>(n_);
  flags_.ensure(count);
  succ_.ensure(count);
  if (sym_) perm_.ensure(count);
  if (count != 0) {
    const std::uint8_t* fb = r.get_bytes(count);
    for (std::uint64_t i = 0; i < count; ++i) *flags_.write_ptr(i) = fb[i];
    const std::uint8_t* sb = r.get_bytes(edge_count * sizeof(ConfigId));
    for (std::uint64_t i = 0; i < count; ++i) {
      std::memcpy(succ_.write_ptr(i),
                  sb + i * static_cast<std::size_t>(n_) * sizeof(ConfigId),
                  static_cast<std::size_t>(n_) * sizeof(ConfigId));
    }
    if (sym_) {
      const std::uint8_t* pb = r.get_bytes(edge_count * sizeof(std::uint64_t));
      for (std::uint64_t i = 0; i < count; ++i) {
        std::memcpy(perm_.write_ptr(i),
                    pb + i * static_cast<std::size_t>(n_) * sizeof(std::uint64_t),
                    static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
      }
    }
  }
  const std::uint64_t fact_count = r.get_u64();
  for (std::uint64_t i = 0; i < fact_count; ++i) {
    const std::uint64_t key = r.get_u64();
    const std::uint32_t val = r.get_u32();
    if (key == 0) {
      throw util::CheckpointInvalid(
          "checkpoint graph section carries an empty-sentinel fact key");
    }
    facts_.at_or_insert(key) = val;
  }
  edges_expanded_ = r.get_u64();
  edges_reused_ = r.get_u64();
  fact_answers_ = r.get_u64();
  fact_subsumed_ = r.get_u64();
  r.done();
  maybe_spill_edges();
  update_ledger();
}

void ReachGraph::register_config(ConfigId id) {
  flags_.ensure(arena_.size());
  succ_.ensure(arena_.size());
  if (sym_) perm_.ensure(arena_.size());
  // Decide scan happens once per configuration ever (the fresh-BFS oracle
  // pays it once per visit per pass); decided processes get their "no edge"
  // marker now so expansion never re-derives it. Masked slots are frozen
  // processes outside the projection's P — their (query-constant) decide
  // contribution is query_ambient_, not a per-node flag. A fresh id always
  // lands in the resident tail segment, so these write_ptrs never fault.
  const Value* st = arena_.words(id);
  ConfigId* srow = succ_.write_ptr(id);
  std::uint8_t flags = 0;
  for (int q = 0; q < n_; ++q) {
    if (st[q] == kMaskedState) continue;
    const PendingOp op = proto_.poised(q, st[q]);
    if (!op.is_decide()) continue;
    if (op.value == 0 || op.value == 1) {
      flags |= static_cast<std::uint8_t>(1u << op.value);
    }
    srow[q] = kNoConfig;
  }
  *flags_.write_ptr(id) = flags;
}

ReachGraph::Node ReachGraph::intern_node(const Config& c, ProcSet p,
                                         ProcPerm* perm_out) {
  arena_.pack(c, stage_.data());
  // Project: ambient decide bits from the frozen processes, then mask
  // their state slots so nodes are shared by every query whose root agrees
  // on (P-states, registers) — the whole of what P-only dynamics see.
  std::uint8_t ambient = 0;
  for (int q = 0; q < n_; ++q) {
    if (p.contains(q)) continue;
    const PendingOp op = proto_.poised(q, stage_[static_cast<std::size_t>(q)]);
    if (op.is_decide() && (op.value == 0 || op.value == 1)) {
      ambient |= static_cast<std::uint8_t>(1u << op.value);
    }
    stage_[static_cast<std::size_t>(q)] = kMaskedState;
  }
  ProcPerm pi;
  std::uint64_t pbits = p.bits();
  if (sym_) {
    const ProcPerm rho = canonicalize_states(stage_.data(), n_);
    ProcSet pc;
    const ProcPerm tau = refine_procset(stage_.data(), n_, rho.apply(p), &pc);
    pi = ProcPerm::compose(rho, tau);
    pbits = pc.bits();
  }
  const auto [id, inserted] = arena_.intern_words(stage_.data());
  if (inserted) register_config(id);
  if (perm_out) *perm_out = pi;
  return Node{id, pbits, ambient};
}

void ReachGraph::compute_successor(ConfigId id, int q, Value* out,
                                   ProcPerm* sigma) const {
  std::memcpy(out, arena_.words(id), words_ * sizeof(Value));
  // register_config() pre-marked decided processes kNoConfig, so the op
  // here is never a decide.
  const PendingOp op = proto_.poised(q, out[q]);
  apply_op(proto_, op, q, out, out + n_);
  *sigma = sym_ ? canonicalize_states(out, n_) : ProcPerm::identity();
}

void ReachGraph::ensure_marks(ConfigId id) {
  if (static_cast<std::size_t>(id) < mark_epoch_.size()) return;
  // Geometric growth: ids arrive in insertion order, so growing to the
  // arena's size exactly would mean one resize call per new configuration.
  const std::size_t ns = std::max(arena_.size(), mark_epoch_.size() * 2);
  mark_epoch_.resize(ns, 0);
  mark_idx_.resize(ns, kNoEntry);
}

void ReachGraph::maybe_spill_edges() {
  if (!edge_spill_on_) return;
  const std::size_t target = opts_.spill_threshold_bytes;
  std::size_t resident = edge_resident_bytes();
  if (resident <= target) return;
  std::size_t over = resident - target;
  std::size_t released = 0;
  // Coldest stores first: renamings (largest per record, read only when an
  // edge is reused in symmetric mode), then successor rows, then the decide
  // flags last — one byte per node but touched on every dequeue. Each store
  // spills down only by the remaining overshoot, so a hot flags store stays
  // resident while perm/succ can cover the plan. No pin: the shared graph
  // has no cold-prefix structure, and the drain pass never spills.
  const auto spill_one = [&](auto& store) {
    if (over == 0) return;
    const std::size_t cur = store.resident_bytes();
    const std::size_t want = cur > over ? cur - over : 0;
    const std::size_t rel =
        store.maybe_spill(want, std::numeric_limits<std::size_t>::max());
    released += rel;
    over -= rel < over ? rel : over;
  };
  spill_one(perm_);
  spill_one(succ_);
  spill_one(flags_);
  if (released != 0) {
    obs::flight::record(obs::flight::Ev::kSpill,
                        static_cast<std::int64_t>(released),
                        static_cast<std::int64_t>(edge_spilled_bytes()));
  }
}

std::uint8_t ReachGraph::subsume_root_bits(const Config& c, ProcSet p) {
  // For each q0 outside P, look up the exact stored fact of the superset
  // projection P ∪ {q0} at this configuration — find() only, never intern:
  // a probe must not grow the graph. Negative bits transfer to P:
  // monotonicity (every P-only execution is a (P ∪ {q0})-only execution)
  // rules out deciding inside P, and the negative itself rules out the two
  // ways the ambient context could differ — an outside-everything decider
  // would have made the superset fact positive via its ambient bit, and a
  // poised q0 would have made the superset root self-deciding. Positive
  // facts do NOT transfer (their witness may schedule q0).
  std::uint8_t neg = 0;
  for (int q0 = 0; q0 < n_ && neg != 0x3; ++q0) {
    if (p.contains(q0)) continue;
    const ProcSet sup = p.with(q0);
    arena_.pack(c, sub_stage_.data());
    std::uint8_t ambient = 0;
    for (int q = 0; q < n_; ++q) {
      if (sup.contains(q)) continue;
      const PendingOp op =
          proto_.poised(q, sub_stage_[static_cast<std::size_t>(q)]);
      if (op.is_decide() && (op.value == 0 || op.value == 1)) {
        ambient |= static_cast<std::uint8_t>(1u << op.value);
      }
      sub_stage_[static_cast<std::size_t>(q)] = kMaskedState;
    }
    std::uint64_t pbits = sup.bits();
    if (sym_) {
      const ProcPerm rho = canonicalize_states(sub_stage_.data(), n_);
      ProcSet pc;
      refine_procset(sub_stage_.data(), n_, rho.apply(sup), &pc);
      pbits = pc.bits();
    }
    const ConfigId id = arena_.find(sub_stage_.data());
    if (id == kNoConfig) continue;
    const std::uint32_t* f = facts_.find(
        (pbits << 34) | (static_cast<std::uint64_t>(ambient) << 32) | id);
    if (f == nullptr) continue;
    for (int v = 0; v < 2; ++v) {
      if (((*f >> v) & 1) && !((*f >> (2 + v)) & 1)) {
        neg |= static_cast<std::uint8_t>(1u << v);
      }
    }
  }
  return neg;
}

ReachGraph::QueryResult ReachGraph::query(const Config& c, ProcSet p,
                                          ProcPerm* perm_out) {
  obs::Span span("valency.query");
  check_budget();
  QueryResult res;
  ProcPerm pi0;
  const Node root = intern_node(c, p, &pi0);
  obs::flight::record(obs::flight::Ev::kReachQuery,
                      static_cast<std::int64_t>(root.id),
                      static_cast<std::int64_t>(root.pbits));
  if (perm_out) *perm_out = pi0;
  query_pbits_ = root.pbits;
  query_ambient_ = root.ambient;  // before any fact_probe: it keys on this
  recording_ = facts_on_;

  entries_.clear();
  entry_perm_.clear();
  edges_.clear();
  if (sym_) {
    visited_.clear();
  } else if (++epoch_ == 0) {
    std::fill(mark_epoch_.begin(), mark_epoch_.end(), 0);
    epoch_ = 1;
  }

  // Enter a node occurrence, deduplicating per query. Entry perms are
  // relative to the *canonical root* (identity there), so witnesses come
  // out in the canonical frame and memoize cleanly; callers translate via
  // pi0^-1.
  auto enter = [&](ConfigId id, std::uint8_t pb, std::uint32_t parent,
                   std::uint8_t via, ProcPerm perm) -> std::uint32_t {
    if (sym_) {
      const std::uint64_t key = (static_cast<std::uint64_t>(id) << 8) | pb;
      const auto [it, fresh] =
          visited_.try_emplace(key, static_cast<std::uint32_t>(entries_.size()));
      if (!fresh) return it->second;
    } else {
      ensure_marks(id);
      if (mark_epoch_[id] == epoch_) return mark_idx_[id];
      mark_epoch_[id] = epoch_;
      mark_idx_[id] = static_cast<std::uint32_t>(entries_.size());
    }
    const std::uint64_t fpb = sym_ ? pb : query_pbits_;
    entries_.push_back(Entry{id, parent, via, pb, fact_probe(id, fpb)});
    if (sym_) entry_perm_.push_back(perm);
    ++res.visited;
    return static_cast<std::uint32_t>(entries_.size() - 1);
  };

  enter(root.id, static_cast<std::uint8_t>(sym_ ? root.pbits : 0), kNoEntry, 0,
        ProcPerm::identity());

  // Root-level fact subsumption: a stored exact negative for a superset
  // projection P ∪ {q0} at this configuration transfers to the strictly
  // smaller P (P-only executions are a subset of the superset's, and the
  // negative rules out both an ambient decider and a poised q0). Bits the
  // root's own exact fact already knows are skipped so fact_subsumed_
  // counts only queries where subsumption added information.
  std::uint8_t neg_known = 0;
  if (facts_on_ && (entries_[0].fact & 0x3) != 0x3) {
    neg_known = static_cast<std::uint8_t>(subsume_root_bits(c, p) &
                                          ~entries_[0].fact & 0x3);
    if (neg_known != 0) {
      ++fact_subsumed_;
      entries_[0].fact |= neg_known;  // known, can stays 0
      // Persist into the root's exact fact slot so the next identical
      // query answers without re-probing the superset keys.
      std::uint32_t& slot = facts_.at_or_insert(fact_key(root.id, root.pbits));
      slot |= neg_known;
    }
  }

  std::uint32_t found[2] = {kNoEntry, kNoEntry};
  bool by_fact[2] = {false, false};
  bool early = false;
  obs::Heartbeat hb("valency.reach");

  std::size_t head = 0;
  std::uint64_t steps = 0;
  while (head < entries_.size()) {
    if ((++steps & 0xFF) == 1) {
      check_budget();
      // Quiescent point: every arena read in the loop body copies or
      // probes synchronously, so cold full segments can be compressed out
      // to disk here, and the whole engine state is consistent for a
      // checkpoint (per-query
      // scratch excluded — resume replays the in-flight query over the
      // restored edges). No pin — the shared graph has no cold-prefix
      // structure, so the oldest full segments go first.
      util::ckpt::CheckpointService::global().poll(256);
      if (arena_.spill_needed()) {
        const std::size_t released = arena_.maybe_spill(kNoConfig);
        if (released != 0) {
          obs::flight::record(obs::flight::Ev::kSpill,
                              static_cast<std::int64_t>(released),
                              static_cast<std::int64_t>(arena_.spilled_bytes()));
        }
      }
      maybe_spill_edges();
      hb.beat(
          [&] {
            return "nodes=" + std::to_string(arena_.size()) +
                   " entries=" + std::to_string(entries_.size()) +
                   " facts=" + std::to_string(facts_.size());
          },
          [&](obs::Sample& s) {
            s.frontier = static_cast<std::int64_t>(entries_.size() - head);
            s.visited = static_cast<std::int64_t>(arena_.size());
            s.cap = static_cast<std::int64_t>(opts_.max_configs);
          });
    }
    const std::uint32_t cur = static_cast<std::uint32_t>(head++);
    const Entry e = entries_[cur];  // copy: entries_ grows below

    // Self-decision first — matches the fresh-BFS explorers' "first
    // deciding configuration in discovery order" witness choice — then
    // persisted facts. Ambient bits count as decisions at every node
    // (frozen processes stay poised throughout the P-only subgraph).
    const std::uint8_t df =
        static_cast<std::uint8_t>(*flags_.read(e.id) | query_ambient_);
    for (int v = 0; v < 2; ++v) {
      if (found[v] == kNoEntry && ((df >> v) & 1)) found[v] = cur;
    }
    for (int v = 0; v < 2; ++v) {
      if (found[v] == kNoEntry && ((e.fact >> v) & 1) &&
          ((e.fact >> (2 + v)) & 1)) {
        found[v] = cur;
        by_fact[v] = true;
      }
    }
    // A value covered by a subsumed negative can never be found; treat it
    // as settled so e.g. a bivalence probe stops at the first witness of
    // the other value instead of draining the subgraph.
    if ((found[0] != kNoEntry || (neg_known & 0x1)) &&
        (found[1] != kNoEntry || (neg_known & 0x2))) {
      early = true;
      break;
    }
    // A fully known fact settles the entire subtree: skipping it keeps the
    // pass exact, because the skipped node's answers are themselves exact.
    if ((e.fact & 0x3) == 0x3) continue;

    if (entries_.size() >= opts_.max_configs) {
      res.truncated = true;
      break;
    }
    if (recording_ && entries_.size() > opts_.fact_entry_cap) {
      recording_ = false;
      edges_.clear();  // keeps capacity, which stays O(fact_entry_cap)
    }

    const std::uint64_t pb = sym_ ? e.pbits : query_pbits_;
    const ProcPerm eperm = sym_ ? entry_perm_[cur] : ProcPerm::identity();
    // Snapshot this entry's successor (and renaming) row into locals: a
    // spilled row decodes into a thread-local buffer that later store reads
    // would clobber, and the interning below can grow the stores. Edge
    // writes go through lazily fetched write pointers — write_ptr faults a
    // spilled segment back resident, and the heap row it returns is stable
    // across store growth (segments never move).
    ConfigId srow[64];
    std::memcpy(srow, succ_.read(e.id),
                static_cast<std::size_t>(n_) * sizeof(ConfigId));
    std::uint64_t prow[64];
    if (sym_) {
      std::memcpy(prow, perm_.read(e.id),
                  static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
    }
    ConfigId* wrow = nullptr;
    std::uint64_t* pwrow = nullptr;
    // Inline expansion is two-phase: first compute, hash and prefetch
    // every unexpanded successor of this entry, then intern them. The
    // dedup table dwarfs the cache at adversary scale, so overlapping up
    // to |P| probe misses (instead of paying them serially) is worth more
    // than any saving inside a single intern.
    ProcPerm pend_sigma[64];
    std::uint64_t pend_h[64];
    int npend = 0;
    ProcSet(pb).for_each([&](int q) {
      const ConfigId s = srow[q];
      if (s == kUnexpanded) {
        Value* buf =
            exp_words_.data() + static_cast<std::size_t>(npend) * words_;
        compute_successor(e.id, q, buf, &pend_sigma[npend]);
        pend_h[npend] = arena_.hash_words(buf);
        arena_.prefetch(pend_h[npend]);
        ++npend;
      } else if (s != kNoConfig && !sym_ &&
                 static_cast<std::size_t>(s) < mark_epoch_.size()) {
        __builtin_prefetch(&mark_epoch_[s]);
      }
    });
    int pend = 0;
    ProcSet(pb).for_each([&](int q) {
      ConfigId s = srow[q];
      if (s == kNoConfig) return;  // q decided here: no edge
      ProcPerm sigma;
      if (s == kUnexpanded) {
        const Value* buf =
            exp_words_.data() + static_cast<std::size_t>(pend) * words_;
        sigma = pend_sigma[pend];
        const auto [sid, inserted] = arena_.intern_prehashed(buf, pend_h[pend]);
        ++pend;
        if (inserted) register_config(sid);
        if (!wrow) wrow = succ_.write_ptr(e.id);
        wrow[q] = sid;
        if (sym_) {
          if (!pwrow) pwrow = perm_.write_ptr(e.id);
          pwrow[q] = sigma.packed();
        }
        ++edges_expanded_;
        s = sid;
        ++res.expanded;
      } else {
        ++res.reused;
        ++edges_reused_;
        if (sym_) sigma = ProcPerm(prow[q]);
      }
      std::uint32_t child;
      if (sym_) {
        ProcSet cpbs;
        const ProcPerm tau = refine_procset(
            arena_.words(s), n_, sigma.apply(ProcSet(pb)), &cpbs);
        const ProcPerm cperm =
            ProcPerm::compose(ProcPerm::compose(eperm, sigma), tau);
        child = enter(s, static_cast<std::uint8_t>(cpbs.bits()), cur,
                      static_cast<std::uint8_t>(q), cperm);
      } else {
        child = enter(s, 0, cur, static_cast<std::uint8_t>(q),
                      ProcPerm::identity());
      }
      if (recording_) {
        edges_.push_back(EdgeRec{cur, child, static_cast<std::uint8_t>(q)});
      }
    });
  }

  // Witness chase: extend a path from `ent` by following per-value
  // next-hop facts to a self-deciding configuration. Terminates because a
  // hop's target was already fact-positive (or self-deciding) when the hop
  // was recorded — hops strictly descend in (recording pass, hop distance).
  auto chase = [&](std::uint32_t ent, int v,
                   std::vector<ProcId>& out) -> ConfigId {
    ConfigId id = entries_[ent].id;
    std::uint64_t pb = sym_ ? entries_[ent].pbits : query_pbits_;
    ProcPerm pi = sym_ ? entry_perm_[ent] : ProcPerm::identity();
    while (true) {
      if (((*flags_.read(id) | query_ambient_) >> v) & 1) return id;
      const std::uint32_t* f = facts_.find(fact_key(id, pb));
      TSB_REQUIRE(f != nullptr && ((*f >> v) & 1) && ((*f >> (2 + v)) & 1),
                  "fact chase hit a node without a positive fact");
      const int q = static_cast<int>((*f >> (8 + 8 * v)) & 0xFF);
      TSB_REQUIRE(q != kWpUnset && q != kWpSelf && q < n_,
                  "fact chase: malformed next-hop");
      out.push_back(sym_ ? pi.inverse()(q) : q);
      const ConfigId s = succ_.read(id)[q];
      TSB_REQUIRE(s != kUnexpanded && s != kNoConfig,
                  "fact chase: next-hop edge missing");
      if (sym_) {
        const ProcPerm sigma(perm_.read(id)[q]);
        ProcSet cpbs;
        const ProcPerm tau = refine_procset(arena_.words(s), n_,
                                            sigma.apply(ProcSet(pb)), &cpbs);
        pb = cpbs.bits();
        pi = ProcPerm::compose(ProcPerm::compose(pi, sigma), tau);
      }
      id = s;
    }
  };

  // Path from the canonical root to entry `t`, in the canonical frame.
  auto path_to = [&](std::uint32_t t, std::vector<ProcId>& out) {
    const std::size_t base = out.size();
    while (entries_[t].parent != kNoEntry) {
      const Entry& et = entries_[t];
      out.push_back(sym_ ? entry_perm_[et.parent].inverse()(et.via)
                         : static_cast<ProcId>(et.via));
      t = et.parent;
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
  };

  for (int v = 0; v < 2; ++v) {
    if (found[v] == kNoEntry) continue;
    res.can[v] = true;
    std::vector<ProcId> steps_out;
    path_to(found[v], steps_out);
    if (by_fact[v]) {
      res.witness_id[v] = chase(found[v], v, steps_out);
    } else {
      res.witness_id[v] = entries_[found[v]].id;
    }
    res.witness[v] = Schedule(std::move(steps_out));
  }
  TSB_REQUIRE((neg_known & ((res.can[0] ? 1u : 0u) | (res.can[1] ? 2u : 0u))) ==
                  0,
              "subsumed superset negative contradicts a found witness");
  // "Answered from facts": no graph work at all, and persisted facts (not
  // just the root configuration deciding by itself) carried the verdicts —
  // including a subsumed superset negative settling its value for free.
  res.from_facts = res.expanded == 0 && res.reused == 0 &&
                   (by_fact[0] || by_fact[1] || neg_known != 0 ||
                    (entries_[0].fact & 0x3) == 0x3);
  if (res.from_facts) ++fact_answers_;

  if (facts_on_) {
    if (recording_ && !early && !res.truncated) {
      // The pass drained: every visited entry's answers are exact (skipped
      // subtrees were behind fully known facts). Propagate decisions
      // backward over this pass's edges and persist the results.
      const std::size_t ne = entries_.size();
      rev_off_.assign(ne + 1, 0);
      for (const EdgeRec& er : edges_) ++rev_off_[er.to + 1];
      for (std::size_t i = 1; i <= ne; ++i) rev_off_[i] += rev_off_[i - 1];
      rev_cursor_.assign(rev_off_.begin(), rev_off_.end() - 1);
      rev_from_.resize(edges_.size());
      rev_via_.resize(edges_.size());
      for (const EdgeRec& er : edges_) {
        const std::uint32_t slot = rev_cursor_[er.to]++;
        rev_from_[slot] = er.from;
        rev_via_[slot] = er.via;
      }
      pos_.assign(ne, 0);
      wtmp_.assign(ne * 2, kWpUnset);
      for (int v = 0; v < 2; ++v) {
        work_.clear();
        for (std::size_t i = 0; i < ne; ++i) {
          const Entry& ei = entries_[i];
          const bool self = ((*flags_.read(ei.id) | query_ambient_) >> v) & 1;
          const bool fact_pos =
              ((ei.fact >> v) & 1) && ((ei.fact >> (2 + v)) & 1);
          if (!self && !fact_pos) continue;
          pos_[i] |= static_cast<std::uint8_t>(1u << v);
          if (self) wtmp_[i * 2 + v] = kWpSelf;
          work_.push_back(static_cast<std::uint32_t>(i));
        }
        for (std::size_t k = 0; k < work_.size(); ++k) {
          const std::uint32_t t = work_[k];
          for (std::uint32_t s = rev_off_[t]; s < rev_off_[t + 1]; ++s) {
            const std::uint32_t u = rev_from_[s];
            if ((pos_[u] >> v) & 1) continue;
            pos_[u] |= static_cast<std::uint8_t>(1u << v);
            wtmp_[u * 2 + v] = rev_via_[s];
            work_.push_back(u);
          }
        }
      }
      for (std::size_t i = 0; i < ne; ++i) {
        const Entry& ei = entries_[i];
        std::uint32_t& slot =
            facts_.at_or_insert(fact_key(ei.id, sym_ ? ei.pbits : query_pbits_));
        for (int v = 0; v < 2; ++v) {
          if ((slot >> v) & 1) continue;  // never overwrite a known fact
          slot |= 1u << v;
          if ((pos_[i] >> v) & 1) {
            slot |= 1u << (2 + v);
            std::uint8_t w = wtmp_[i * 2 + v];
            if (w == kWpUnset) w = kWpSelf;
            slot |= static_cast<std::uint32_t>(w) << (8 + 8 * v);
          }
        }
      }
    } else {
      // Interrupted pass (early exit or cap) or one past fact_entry_cap:
      // only the found witness paths are certainly positive; record those
      // so prefix-pattern queries (the lemma peel loops) land on facts
      // next time.
      for (int v = 0; v < 2; ++v) {
        if (found[v] == kNoEntry || by_fact[v]) continue;
        std::uint32_t t = found[v];
        std::uint8_t via_down = kWpSelf;  // found entry decides itself
        while (true) {
          const Entry& et = entries_[t];
          std::uint32_t& slot = facts_.at_or_insert(
              fact_key(et.id, sym_ ? et.pbits : query_pbits_));
          if (!((slot >> v) & 1)) {
            slot |= (1u << v) | (1u << (2 + v));
            slot |= static_cast<std::uint32_t>(via_down) << (8 + 8 * v);
          }
          if (et.parent == kNoEntry) break;
          via_down = et.via;
          t = et.parent;
        }
      }
    }
  }

  return res;
}

}  // namespace tsb::sim

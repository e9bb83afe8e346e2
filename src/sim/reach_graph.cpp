#include "sim/reach_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
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

/// Symmetric-mode visit key: a node and its P-orbit bits.
inline std::uint64_t orbit_key(ConfigId id, std::uint8_t pb) {
  return (static_cast<std::uint64_t>(id) << 8) | pb;
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
      arena_(proto.num_processes(), proto.num_registers(), "reach graph"),
      stage_(words_, 0),
      sub_stage_(words_, 0),
      pvals_(words_, 0),
      pcodes_(words_, 0),
      exp_codes_(words_ * static_cast<std::size_t>(proto.num_processes()), 0),
      exp_states_(static_cast<std::size_t>(proto.num_processes()) *
                      static_cast<std::size_t>(proto.num_processes()),
                  0) {
  flags_.init("graph.flags", 1, 0);
  succ_.init("graph.succ", static_cast<std::size_t>(n_), kUnexpanded);
  if (sym_) {
    perm_.init("graph.perm", static_cast<std::size_t>(n_),
               ProcPerm::identity().packed());
  }
  const Limits::Spill& spill = opts_.limits.spill;
  if (spill.armed()) {
    // The edge stores share the arena's segment-size hint so CI smoke
    // runs that shrink segments to force spilling force it everywhere.
    if (!arena_.set_spill(spill.dir, spill.threshold_bytes,
                          spill.seg_configs) ||
        !flags_.set_spill(spill.dir, spill.seg_configs) ||
        !succ_.set_spill(spill.dir, spill.seg_configs) ||
        (sym_ && !perm_.set_spill(spill.dir, spill.seg_configs))) {
      util::spill::throw_unusable_dir(spill.dir, errno);
    }
  }
}

std::size_t ReachGraph::query_bytes() const {
  return entries_.capacity() * sizeof(Entry) +
         entry_perm_.capacity() * sizeof(ProcPerm) +
         (mark_idx_.size() << kMarkShift) * sizeof(std::uint32_t) +
         mark_idx_.capacity() * sizeof(mark_idx_[0]) +
         obs::node_map_bytes(visited_) + drain_bytes_;
}

std::size_t ReachGraph::memory_bytes() const {
  return arena_.memory_bytes() + edge_charged_bytes() +
         facts_.memory_bytes() + query_bytes();
}

void ReachGraph::update_ledger() const {
  // Accounts mirror memory_bytes() exactly, so the exit-4 budget report
  // attributes 100% of the graph's tracked bytes to named subsystems.
  obs::MemLedger& ledger = obs::MemLedger::global();
  ledger.set(obs::MemAccount::kReachNodes, arena_.memory_bytes());
  ledger.set(obs::MemAccount::kReachEdges, edge_charged_bytes());
  ledger.set(obs::MemAccount::kReachFacts, facts_.memory_bytes());
  ledger.set(obs::MemAccount::kReachQuery, query_bytes());
  if (arena_.spill_enabled() || arena_.spilled_bytes() != 0) {
    // Disk-resident and mmap-resident bytes are tracked separately: the
    // spill file is not RAM (excluded from memory_bytes/budget), while
    // mapped read-back pages are reclaimable page cache.
    ledger.set(obs::MemAccount::kArenaSpill, arena_.spilled_bytes());
    ledger.set(obs::MemAccount::kArenaMapped, arena_.mapped_bytes());
  }
  if (arena_.spill_enabled() || edge_spilled_bytes() != 0) {
    ledger.set(obs::MemAccount::kGraphSpill, edge_spilled_bytes());
    ledger.set(obs::MemAccount::kGraphMapped, edge_mapped_bytes());
  }
}

void ReachGraph::check_budget() {
  // The budget poll doubles as the ledger refresh: the check's breadcrumb
  // and any trip message then carry the graph's current tracked bytes.
  update_ledger();
  opts_.limits.check(memory_bytes(), "reach graph");
}

void ReachGraph::register_config(ConfigId id, const Value* st) {
  flags_.ensure(arena_.size());
  succ_.ensure(arena_.size());
  if (sym_) perm_.ensure(arena_.size());
  // Decide scan happens once per configuration ever (the fresh-BFS oracle
  // pays it once per visit per pass); decided processes get their "no edge"
  // marker now so expansion never re-derives it. Masked slots are frozen
  // processes outside the projection's P — their (query-constant) decide
  // contribution is query_ambient_, not a per-node flag. A fresh id always
  // lands in the resident tail segment, so these write_ptrs never fault.
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
  const auto [id, inserted] = arena_.intern(stage_.data());
  if (inserted) register_config(id, stage_.data());
  if (perm_out) *perm_out = pi;
  return Node{id, pbits, ambient};
}

Value ReachGraph::compute_successor(int q, Code* scodes, Value* sstates,
                                    ProcPerm* sigma) {
  // register_config() pre-marked decided processes kNoConfig, so the op
  // here is never a decide.
  const std::size_t qs = static_cast<std::size_t>(q);
  const PendingOp op = proto_.poised(q, pvals_[qs]);
  const ConfigArena::StepUndo undo =
      arena_.step(proto_, op, q, pvals_.data(), pcodes_.data(), scodes);
  const Value q_state = pvals_[qs];
  *sigma = ProcPerm::identity();
  if (sym_) {
    // Canonicalize on the words (the sort order is the values'), then move
    // the state codes along the same renaming.
    std::copy_n(pvals_.data(), n_, sstates);
    *sigma = canonicalize_states(sstates, n_);
    Code sorted[ProcPerm::kMaxProcs];
    for (int p = 0; p < n_; ++p) sorted[(*sigma)(p)] = scodes[p];
    std::memcpy(scodes, sorted, static_cast<std::size_t>(n_) * sizeof(Code));
  }
  undo.apply(pvals_.data());
  return q_state;
}

void ReachGraph::ensure_marks(ConfigId id) {
  // Zero-filled: any word is a valid stale mark, the id check rejects it.
  while (static_cast<std::size_t>(id) >= mark_idx_.size() << kMarkShift) {
    mark_idx_.push_back(std::make_unique<std::uint32_t[]>(1u << kMarkShift));
  }
}

std::uint8_t ReachGraph::fact_filter(std::uint64_t pbits,
                                     std::uint8_t ambient) {
  return static_cast<std::uint8_t>(4u << (mix64((pbits << 2) | ambient) % 6));
}

const std::uint32_t* ReachGraph::fact_find(ConfigId id, std::uint64_t pbits,
                                           std::uint8_t ambient) const {
  if (!facts_on_ || (*flags_.read(id) & fact_filter(pbits, ambient)) == 0) {
    return nullptr;
  }
  return facts_.find(fact_key(id, pbits, ambient));
}

std::uint32_t& ReachGraph::fact_slot(ConfigId id, std::uint64_t pbits,
                                     std::uint8_t ambient) {
  // Read first: write_ptr faults a spilled flags segment back resident,
  // which a bit that is already set does not need.
  const std::uint8_t bit = fact_filter(pbits, ambient);
  if ((*flags_.read(id) & bit) == 0) *flags_.write_ptr(id) |= bit;
  return facts_.at_or_insert(fact_key(id, pbits, ambient));
}

std::uint8_t ReachGraph::child_pbits(ConfigId s, ProcPerm sigma,
                                     std::uint64_t pb, ProcPerm* tau) {
  ProcSet cpbs;
  arena_.decode(s, sub_stage_.data());
  *tau = refine_procset(sub_stage_.data(), n_, sigma.apply(ProcSet(pb)), &cpbs);
  return static_cast<std::uint8_t>(cpbs.bits());
}

template <class Fn>
void ReachGraph::for_each_pass_edge(Fn&& fn) {
  const std::uint32_t ne = static_cast<std::uint32_t>(entries_.size());
  for (std::uint32_t i = 0; i < ne; ++i) {
    const Entry& e = entries_[i];
    if ((e.fact & 0x3) == 0x3) continue;  // the walk skipped it too
    const std::uint64_t pb = sym_ ? e.pbits : query_pbits_;
    // Row snapshots, as in the walk: a spilled row decodes into a
    // thread-local buffer that the next store read would clobber.
    ConfigId srow[64];
    std::memcpy(srow, succ_.read(e.id),
                static_cast<std::size_t>(n_) * sizeof(ConfigId));
    std::uint64_t prow[64];
    if (sym_) {
      std::memcpy(prow, perm_.read(e.id),
                  static_cast<std::size_t>(n_) * sizeof(std::uint64_t));
    }
    ProcSet(pb).for_each([&](int q) {
      const ConfigId s = srow[q];
      if (s == kNoConfig) return;  // q decided here: no edge
      TSB_REQUIRE(s != kUnexpanded, "drained pass left an edge unexpanded");
      std::uint32_t child;
      if (sym_) {
        ProcPerm tau;
        const auto it =
            visited_.find(orbit_key(s, child_pbits(s, ProcPerm(prow[q]), pb,
                                                   &tau)));
        TSB_REQUIRE(it != visited_.end(),
                    "drained pass left a successor unvisited");
        child = it->second;
      } else {
        child = mark(s);
      }
      fn(i, child, static_cast<std::uint8_t>(q));
    });
  }
}

void ReachGraph::maybe_spill_edges() {
  if (!arena_.spill_enabled()) return;
  const std::size_t target = opts_.limits.spill.threshold_bytes;
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
    const std::uint32_t* f = fact_find(id, pbits, ambient);
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
  if (sym_) visited_.clear();

  // Enter a node occurrence, deduplicating per query. Entry perms are
  // relative to the *canonical root* (identity there), so witnesses come
  // out in the canonical frame and memoize cleanly; callers translate via
  // pi0^-1.
  auto enter = [&](ConfigId id, std::uint8_t pb, std::uint32_t parent,
                   std::uint8_t via, ProcPerm perm) {
    if (sym_) {
      if (!visited_.try_emplace(orbit_key(id, pb),
                                static_cast<std::uint32_t>(entries_.size()))
               .second) {
        return;
      }
    } else {
      ensure_marks(id);
      std::uint32_t& m = mark(id);
      if (m < entries_.size() && entries_[m].id == id) return;
      m = static_cast<std::uint32_t>(entries_.size());
    }
    const std::uint64_t fpb = sym_ ? pb : query_pbits_;
    entries_.push_back(Entry{id, parent, via, pb, fact_probe(id, fpb)});
    if (sym_) entry_perm_.push_back(perm);
    ++res.visited;
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
      fact_slot(root.id, root.pbits, root.ambient) |= neg_known;
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
      // to disk here, and the oracle's memo is consistent for a
      // checkpoint (this in-flight query is not in it; resume re-runs it
      // from its root). No pin — the shared graph has no cold-prefix
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
      hb.beat([&](obs::Sample& s) {
        s.frontier = static_cast<std::int64_t>(entries_.size() - head);
        s.visited = static_cast<std::int64_t>(arena_.size());
        s.cap = static_cast<std::int64_t>(opts_.limits.max_configs);
      });
    }
    const std::uint32_t cur = static_cast<std::uint32_t>(head++);
    const Entry e = entries_[cur];  // copy: entries_ grows below

    // Self-decision first — matches the fresh-BFS explorers' "first
    // deciding configuration in discovery order" witness choice — then
    // persisted facts. Ambient bits count as decisions at every node
    // (frozen processes stay poised throughout the P-only subgraph).
    const std::uint8_t df =
        static_cast<std::uint8_t>((*flags_.read(e.id) & 0x3) | query_ambient_);
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

    if (entries_.size() >= opts_.limits.max_configs) {
      res.truncated = true;
      break;
    }
    if (recording_ && entries_.size() > opts_.fact_entry_cap) {
      recording_ = false;
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
    Value pend_state[64];  ///< q's state in the successor
    int npend = 0;
    ProcSet(pb).for_each([&](int q) {
      const ConfigId s = srow[q];
      if (s == kUnexpanded) {
        if (npend == 0) arena_.load(e.id, pcodes_.data(), pvals_.data());
        Code* buf =
            exp_codes_.data() + static_cast<std::size_t>(npend) * words_;
        pend_state[npend] = compute_successor(
            q, buf, exp_states_.data() + npend * n_, &pend_sigma[npend]);
        pend_h[npend] = arena_.hash_codes(buf);
        arena_.prefetch(pend_h[npend]);
        ++npend;
      } else if (s != kNoConfig && !sym_ &&
                 static_cast<std::size_t>(s >> kMarkShift) < mark_idx_.size()) {
        __builtin_prefetch(&mark(s));
      }
    });
    int pend = 0;
    ProcSet(pb).for_each([&](int q) {
      ConfigId s = srow[q];
      if (s == kNoConfig) return;  // q decided here: no edge
      ProcPerm sigma;
      if (s == kUnexpanded) {
        sigma = pend_sigma[pend];
        const auto [sid, inserted] = arena_.intern_prehashed(
            exp_codes_.data() + static_cast<std::size_t>(pend) * words_,
            pend_h[pend]);
        if (inserted && sym_) {
          register_config(sid, exp_states_.data() + pend * n_);
        } else if (inserted) {
          // The successor's states are the parent's with q's replaced.
          const Value parent_state = pvals_[static_cast<std::size_t>(q)];
          pvals_[static_cast<std::size_t>(q)] = pend_state[pend];
          register_config(sid, pvals_.data());
          pvals_[static_cast<std::size_t>(q)] = parent_state;
        }
        ++pend;
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
      if (sym_) {
        ProcPerm tau;
        const std::uint8_t cpb = child_pbits(s, sigma, pb, &tau);
        const ProcPerm cperm =
            ProcPerm::compose(ProcPerm::compose(eperm, sigma), tau);
        enter(s, cpb, cur, static_cast<std::uint8_t>(q), cperm);
      } else {
        enter(s, 0, cur, static_cast<std::uint8_t>(q), ProcPerm::identity());
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
      if ((((*flags_.read(id) & 0x3) | query_ambient_) >> v) & 1) return id;
      const std::uint32_t* f = fact_find(id, pb, query_ambient_);
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
        ProcPerm tau;
        pb = child_pbits(s, sigma, pb, &tau);
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
      // backward over this pass's edges and persist the results. The
      // reverse edges are a counting sort of the walk's edges by target,
      // re-derived from the stored successor rows in walk order, so each
      // target's list keeps the (source, process) order the walk met it in.
      // Counts land two slots up, so after the prefix sum rev_off[t + 1]
      // is t's fill cursor and ends as the start of t + 1: target t's
      // sources are [rev_off[t], rev_off[t + 1]). The scratch is local: the
      // blocks go back to the allocator for the graph's own growth.
      const std::size_t ne = entries_.size();
      std::vector<std::uint32_t> rev_off(ne + 2, 0);
      std::size_t nedges = 0;
      for_each_pass_edge([&](std::uint32_t, std::uint32_t to, std::uint8_t) {
        ++rev_off[to + 2];
        ++nedges;
      });
      for (std::size_t i = 2; i <= ne + 1; ++i) rev_off[i] += rev_off[i - 1];
      std::vector<std::uint32_t> rev_from(nedges);
      std::vector<std::uint8_t> rev_via(nedges);
      for_each_pass_edge(
          [&](std::uint32_t from, std::uint32_t to, std::uint8_t via) {
            const std::uint32_t slot = rev_off[to + 1]++;
            rev_from[slot] = from;
            rev_via[slot] = via;
          });
      std::vector<std::uint8_t> pos(ne, 0);     // bit v: can decide v
      std::vector<std::uint8_t> wtmp(ne * 2, kWpUnset);  // next-hop procs
      std::vector<std::uint32_t> work;
      for (int v = 0; v < 2; ++v) {
        work.clear();
        for (std::size_t i = 0; i < ne; ++i) {
          const Entry& ei = entries_[i];
          const bool self =
              (((*flags_.read(ei.id) & 0x3) | query_ambient_) >> v) & 1;
          const bool fact_pos =
              ((ei.fact >> v) & 1) && ((ei.fact >> (2 + v)) & 1);
          if (!self && !fact_pos) continue;
          pos[i] |= static_cast<std::uint8_t>(1u << v);
          if (self) wtmp[i * 2 + v] = kWpSelf;
          work.push_back(static_cast<std::uint32_t>(i));
        }
        for (std::size_t k = 0; k < work.size(); ++k) {
          const std::uint32_t t = work[k];
          for (std::uint32_t s = rev_off[t]; s < rev_off[t + 1]; ++s) {
            const std::uint32_t u = rev_from[s];
            if ((pos[u] >> v) & 1) continue;
            pos[u] |= static_cast<std::uint8_t>(1u << v);
            wtmp[u * 2 + v] = rev_via[s];
            work.push_back(u);
          }
        }
      }
      // The scratch is at its peak here: count it against the budget
      // before the fact writes, and drop it from the ledger after them.
      drain_bytes_ = (rev_off.capacity() + rev_from.capacity() +
                      work.capacity()) *
                         sizeof(std::uint32_t) +
                     rev_via.capacity() + pos.capacity() + wtmp.capacity();
      check_budget();
      for (std::size_t i = 0; i < ne; ++i) {
        const Entry& ei = entries_[i];
        std::uint32_t& slot =
            fact_slot(ei.id, sym_ ? ei.pbits : query_pbits_, query_ambient_);
        for (int v = 0; v < 2; ++v) {
          if ((slot >> v) & 1) continue;  // never overwrite a known fact
          slot |= 1u << v;
          if ((pos[i] >> v) & 1) {
            slot |= 1u << (2 + v);
            std::uint8_t w = wtmp[i * 2 + v];
            if (w == kWpUnset) w = kWpSelf;
            slot |= static_cast<std::uint32_t>(w) << (8 + 8 * v);
          }
        }
      }
      drain_bytes_ = 0;
      update_ledger();
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
          std::uint32_t& slot =
              fact_slot(et.id, sym_ ? et.pbits : query_pbits_, query_ambient_);
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

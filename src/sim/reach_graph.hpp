#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/canonical.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "sim/limits.hpp"
#include "util/spill_store.hpp"

namespace tsb::sim {

/// Persistent shared-subgraph reachability engine behind the valency oracle.
///
/// The fresh-BFS oracle re-explores from scratch for every (C, P) pair even
/// though the P-only subgraphs of an adversary run overlap almost
/// completely. The overlap is invisible in full-configuration space: the
/// lemma peel loops advance the query root by steps of processes *outside*
/// P, so consecutive roots disagree on some frozen process's state and
/// their raw subgraphs share no configuration at all. It becomes literal
/// sharing under projection. During a P-only execution the states of
/// processes outside P are frozen and inert — every step, register value
/// and P-decision depends only on (P-states, registers) — so Definition 1
/// valency is a function of the *projected* configuration: P's states, the
/// registers, and two "ambient" bits recording which values some frozen
/// process is already poised to decide (Proposition 1(iv) counts those as
/// decided along every P-only execution). This engine therefore keeps one
/// session-long successor graph over interned *projected* configurations
/// (non-P state slots masked to kMaskedState):
///
///  * Edges are per (projected configuration, process) and lazily expanded
///    exactly once. A query for (C, P) walks the stored graph and only pays
///    protocol steps on the frontier no earlier query touched. Two queries
///    whose roots differ only in frozen-process state hit the *same* nodes,
///    edges and facts; peel-loop neighbours that differ in one register
///    value re-merge as soon as P overwrites it, and everything past the
///    merge point is answered from the store.
///
///  * After a pass that drains its frontier (so its negative answers are
///    exact), decided-value facts are propagated backward along the pass's
///    edges and persisted per (configuration, P): "P can / cannot decide v
///    from here", plus the next-hop process of a deciding execution. Later
///    queries consume facts mid-walk — a hit on a node with both values
///    known settles its entire subtree without touching it, and a hit on
///    the root answers the query with zero expansion. Witnesses are rebuilt
///    by chasing next-hops; chains always terminate because a next-hop's
///    target was already fact-positive (or self-deciding) when the hop was
///    recorded, so hops strictly descend in (recording pass, hop distance)
///    order.
///
///  * For symmetric protocols (Protocol::symmetric(), n <= 8) the graph is
///    quotiented by process renaming: nodes are canonical (sorted-states)
///    configurations and queries are canonical (config, ProcSet-orbit)
///    pairs (sim/canonical.hpp), shrinking the stored graph by up to n!.
///    Every stored edge carries the renaming its canonicalization applied,
///    and every BFS entry the composed renaming from the canonical root, so
///    witnesses de-canonicalize back to replayable schedules in the
///    caller's frame. Renaming soundness: a symmetric protocol's step
///    relation commutes with every process permutation, so orbit-translated
///    queries have literally the same P-only execution trees.
///
/// Single-threaded: node ids, discovery order (entry order, ascending
/// process id) and witnesses are a function of the query sequence alone.
class ReachGraph {
 public:
  struct Options {
    /// The per-query visited cap (BFS entries; hitting it truncates the
    /// query, negative answers unsound — callers surface ever_truncated),
    /// the memory/time budget and the spill plan (sim::Limits). The byte
    /// budget covers the whole engine, cumulatively across queries — the
    /// shared graph is the point — so once tripped, every later query
    /// throws util::BudgetExhausted too. With the spill plan armed, the
    /// node arena and each per-node edge store (successor ids, per-edge
    /// renamings, decide flags) compress their cold full segments to
    /// unlinked backing files, each down to the threshold on its own, so
    /// resident spillable bytes can reach about twice it. Unlike the
    /// explorer's cold-prefix pattern, re-probes of spilled nodes pay a
    /// decode: spilling trades query speed for the ability to finish at
    /// all. An unusable spill directory throws util::UsageError.
    Limits limits{};
    /// Passes with at most this many entries persist full fact coverage on
    /// drain (edges recorded, decisions back-propagated, every entry
    /// facted). Bigger passes only persist their witness paths: the lemma
    /// peel loops that facts exist for run small passes, while a
    /// multi-million-entry univalent pass would pay tens of MB of edge
    /// records and fact-map churn for entries no later query probes.
    /// Facts are an optimization — any cap is sound.
    std::size_t fact_entry_cap = 1u << 16;
  };

  ReachGraph(const Protocol& proto, Options opts);

  /// Canonical (projected configuration, ProcSet-orbit, ambient) triple:
  /// the memo key space. For asymmetric protocols the id interns the
  /// P-masked words and pbits is P itself; `ambient` bit v is set iff some
  /// process outside P is poised to decide v in c — part of the key
  /// because it changes the verdicts but not the projected dynamics.
  struct Node {
    ConfigId id = kNoConfig;
    std::uint64_t pbits = 0;
    std::uint8_t ambient = 0;
    bool operator==(const Node&) const = default;
  };

  /// Intern (c, p)'s canonical projected triple. `perm_out` (if non-null)
  /// receives the renaming pi mapping the caller's process ids to canonical
  /// slots; schedules in the canonical frame translate back via pi^-1.
  Node intern_node(const Config& c, ProcSet p, ProcPerm* perm_out);

  struct QueryResult {
    bool can[2] = {false, false};
    /// Deciding schedules in the canonical-root frame (meaningful iff
    /// can[v]); de-canonicalize with the perm intern_node/query returned.
    Schedule witness[2];
    /// Engine id of the deciding *projected* configuration (kNoConfig when
    /// !can[v]).
    ConfigId witness_id[2] = {kNoConfig, kNoConfig};
    bool truncated = false;   ///< hit max_configs; negatives unsound
    bool from_facts = false;  ///< answered with zero new expansion
    std::uint64_t expanded = 0;  ///< edges expanded (protocol steps paid)
    std::uint64_t reused = 0;    ///< stored edges consumed
    std::uint64_t visited = 0;   ///< BFS entries this query
  };

  /// Definition 1 for both values of (c, p) in one walk.
  QueryResult query(const Config& c, ProcSet p, ProcPerm* perm_out);

  bool symmetric() const { return sym_; }
  std::size_t nodes() const { return arena_.size(); }
  std::uint64_t edges_expanded() const { return edges_expanded_; }
  std::uint64_t edges_reused() const { return edges_reused_; }
  /// Queries answered entirely from persisted facts (zero expansion).
  std::uint64_t fact_answers() const { return fact_answers_; }
  /// Queries where a superset projection's stored negative transferred to
  /// the (strictly smaller) query ProcSet at the root.
  std::uint64_t fact_subsumed() const { return fact_subsumed_; }
  std::size_t fact_entries() const { return facts_.size(); }
  std::size_t memory_bytes() const;

  /// Edge-store spill accounting (graph.spill / graph.mapped ledger
  /// accounts): compressed bytes of the spilled edge segments on disk,
  /// their mmap'd read-back pages, and the resident remainder — all of it
  /// for the spill trigger, the touched part for the ledger and budget.
  std::size_t edge_spilled_bytes() const {
    return succ_.spilled_bytes() + perm_.spilled_bytes() +
           flags_.spilled_bytes();
  }
  std::size_t edge_mapped_bytes() const {
    return succ_.mapped_bytes() + perm_.mapped_bytes() + flags_.mapped_bytes();
  }
  std::size_t edge_resident_bytes() const {
    return succ_.resident_bytes() + perm_.resident_bytes() +
           flags_.resident_bytes();
  }
  std::size_t edge_charged_bytes() const {
    return succ_.charged_bytes() + perm_.charged_bytes() +
           flags_.charged_bytes();
  }

  /// State word marking a masked (outside-P) slot of a projected
  /// configuration. Protocols never produce it: every state in this repo is
  /// a small packed non-negative word or kNilValue (-1).
  static constexpr Value kMaskedState = std::numeric_limits<Value>::min();

 private:
  static constexpr std::uint32_t kNoEntry = 0xFFFFFFFFu;
  /// succ_ sentinel: edge never computed. Distinct from kNoConfig, which
  /// marks "process decided here, no edge".
  static constexpr ConfigId kUnexpanded = 0xFFFFFFFEu;
  static constexpr std::uint8_t kWpSelf = 0xFF;   ///< decides at this node
  static constexpr std::uint8_t kWpUnset = 0xFE;

  /// One BFS node occurrence in the current query. Deliberately 12 bytes:
  /// the entry stream is pushed and re-read tens of millions of times per
  /// adversary run, so the symmetric-mode renaming lives in the parallel
  /// entry_perm_ vector instead of padding every asymmetric entry to 24.
  struct Entry {
    ConfigId id;
    std::uint32_t parent;  ///< entry index (kNoEntry at the root)
    std::uint8_t via;      ///< process (parent's frame) that reached us
    std::uint8_t pbits;    ///< P in this node's frame (symmetric mode)
    std::uint8_t fact;     ///< cached fact bits (known/can) at enqueue
  };

  /// Open-addressing (config, pbits, ambient) -> packed fact map. Packing:
  /// bit v = known[v], bit 2+v = can[v], byte 1+v = next-hop process of a
  /// deciding execution (kWpSelf: decides here). Key 0 is the empty
  /// sentinel — real keys always carry a non-empty P in the high bits.
  class FactMap {
   public:
    const std::uint32_t* find(std::uint64_t key) const;
    std::uint32_t& at_or_insert(std::uint64_t key);
    std::size_t size() const { return count_; }
    std::size_t memory_bytes() const {
      return slots_.capacity() * sizeof(Slot);
    }

   private:
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t val = 0;
    };
    void grow();
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::size_t count_ = 0;
  };

  /// Folds the ambient bits in above the id; pbits sits above those
  /// (facts_on_ caps n so nothing collides).
  static std::uint64_t fact_key(ConfigId id, std::uint64_t pbits,
                                std::uint8_t ambient) {
    return (pbits << 34) | (static_cast<std::uint64_t>(ambient) << 32) | id;
  }
  /// Probe filter: flags_ bits 2..7 of a node record which (P, ambient)
  /// combinations, hashed to one of six bits, hold a fact there. A clear
  /// bit proves the fact map has no such key, so the probe skips it.
  static std::uint8_t fact_filter(std::uint64_t pbits, std::uint8_t ambient);
  /// The fact stored for (id, pbits, ambient), or nullptr: every fact map
  /// lookup goes through the node's filter bit first.
  const std::uint32_t* fact_find(ConfigId id, std::uint64_t pbits,
                                 std::uint8_t ambient) const;
  /// The fact slot for (id, pbits, ambient), inserted empty if absent. The
  /// one insert path: it sets the node's filter bit.
  std::uint32_t& fact_slot(ConfigId id, std::uint64_t pbits,
                           std::uint8_t ambient);
  std::uint8_t fact_probe(ConfigId id, std::uint64_t pbits) const {
    const std::uint32_t* f = fact_find(id, pbits, query_ambient_);
    return f ? static_cast<std::uint8_t>(*f & 0x0F) : 0;
  }

  /// Decide scan of a fresh node whose state words are `states`.
  void register_config(ConfigId id, const Value* states);
  /// The successor by q of the node loaded into pcodes_/pvals_: its codes
  /// into scodes and, in symmetric mode, its canonical state words into
  /// sstates (n_ words), with the renaming in *sigma. Returns q's state in
  /// the successor, the one state word a step changes.
  Value compute_successor(int q, Code* scodes, Value* sstates,
                          ProcPerm* sigma);
  /// Symmetric mode: the P-orbit bits, in the successor's frame, of node
  /// s reached from a node with P-bits `pb` over an edge with renaming
  /// `sigma`; *tau receives the refinement renaming. The walk, the witness
  /// chase and the reverse-edge rebuild all key children through it.
  std::uint8_t child_pbits(ConfigId s, ProcPerm sigma, std::uint64_t pb,
                           ProcPerm* tau);
  /// Call fn(from, to, via) for every edge of the current (drained) pass,
  /// in walk order: entries ascending, skipping those a fully known fact
  /// settled, then each entry's processes of P ascending, skipping
  /// decided ones. The targets come from the stored successor rows.
  template <class Fn>
  void for_each_pass_edge(Fn&& fn);
  /// Refresh the ledger, then run the budget check on memory_bytes().
  void check_budget();
  void update_ledger() const;
  /// Bytes of the per-query walk scratch (the reach.query account): the
  /// entry stream, the visit marks or symmetric visit map, and a drained
  /// pass's reverse-edge and propagation arrays while they live.
  std::size_t query_bytes() const;
  /// Admit node ids up to `id` to the visit marks.
  void ensure_marks(ConfigId id);
  std::uint32_t& mark(ConfigId id) {
    return mark_idx_[id >> kMarkShift][id & ((1u << kMarkShift) - 1)];
  }
  /// Spill cold full edge segments until their combined resident bytes
  /// drop to the spill threshold. Renamings go first (largest, read only
  /// on edge reuse), then successor rows, then the decide flags last
  /// (hottest: one byte per dequeue). Quiescent points only.
  void maybe_spill_edges();
  /// Root-level fact subsumption: bit v set means some superset projection
  /// P ∪ {q} holds an exact stored negative "cannot decide v" at this
  /// configuration, which transfers to the query's strictly smaller P.
  std::uint8_t subsume_root_bits(const Config& c, ProcSet p);

  const Protocol& proto_;
  Options opts_;
  int n_;
  std::size_t words_;
  bool sym_;
  bool facts_on_;

  ConfigArena arena_;
  /// Per-node edge data, one spillable record per node id. flags_: bit v
  /// (v = 0, 1) set iff some process poised-decides v here; bits 2..7 are
  /// the fact probe filter (fact_filter). Decide reads mask to bits 0..1.
  /// No checkpoint holds any of this engine's state: a resumed oracle
  /// starts it empty (ValencyOracle::restore_state). succ_: n successor
  /// ids per node
  /// ([q] -> successor, kUnexpanded / kNoConfig sentinels).
  /// perm_: symmetric mode only, the renaming sigma per edge.
  util::spill::SpillStore<std::uint8_t> flags_;
  util::spill::SpillStore<ConfigId> succ_;
  util::spill::SpillStore<std::uint64_t> perm_;
  FactMap facts_;

  std::uint64_t edges_expanded_ = 0;
  std::uint64_t edges_reused_ = 0;
  std::uint64_t fact_answers_ = 0;
  std::uint64_t fact_subsumed_ = 0;

  // Per-query state (members so allocations are reused across queries).
  std::uint64_t query_pbits_ = 0;   ///< asymmetric mode: constant P
  std::uint8_t query_ambient_ = 0;  ///< bit v: frozen proc poised-decides v
  bool recording_ = false;          ///< still under fact_entry_cap
  std::vector<Entry> entries_;
  std::vector<ProcPerm> entry_perm_;  ///< symmetric mode: canonical-root
                                      ///< frame -> entry frame, per entry
  /// Asymmetric visit marks, one word per node, as a sparse set (Briggs
  /// and Torczon 1993): node id is visited in this pass iff m = mark(id)
  /// satisfies m < entries_.size() && entries_[m].id == id, so a new pass
  /// needs no clearing and stale words are harmless. The words live in
  /// fixed chunks of 2^kMarkShift that are added as the arena grows and
  /// never move: growth copies nothing and frees no block.
  static constexpr unsigned kMarkShift = 14;
  std::vector<std::unique_ptr<std::uint32_t[]>> mark_idx_;
  std::unordered_map<std::uint64_t, std::uint32_t> visited_;  ///< symmetric
  std::size_t drain_bytes_ = 0;  ///< live fact-propagation scratch
  std::vector<Value> stage_;      ///< intern_node staging buffer
  std::vector<Value> sub_stage_;  ///< superset-projection probe staging
                                  ///< and symmetric-mode child decode
  std::vector<Value> pvals_;      ///< words of the node being expanded
  std::vector<Code> pcodes_;      ///< codes of the node being expanded
  /// Per-process successor staging (codes, and canonical state words in
  /// symmetric mode): the expansion loop computes and hashes a whole
  /// entry's successors (prefetching their dedup slots) before interning
  /// any.
  std::vector<Code> exp_codes_;
  std::vector<Value> exp_states_;
};

}  // namespace tsb::sim

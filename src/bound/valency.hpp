#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/explorer.hpp"
#include "sim/reach_graph.hpp"
#include "util/require.hpp"

namespace tsb::bound {

using sim::Config;
using sim::ConfigHash;
using sim::ProcSet;
using sim::Protocol;
using sim::Schedule;
using sim::Value;

/// Zhu's refined valency (Definition 1): for a reachable configuration C
/// and a non-empty set of processes P, "P can decide v from C" iff there is
/// a P-only execution from C in which v is decided.
///
/// This oracle answers such queries *exactly* by exhaustive P-only
/// reachability, which terminates because the experiment protocols have
/// finite configuration spaces.
///
/// Two interchangeable backends answer a (C, P) pair (both values in one
/// pass, witnesses extracted from the same pass):
///
///  * reuse = true (default): the persistent shared-subgraph engine
///    (sim::ReachGraph), which explores the *projection* of the
///    configuration onto (P-states, registers, ambient decide bits) — the
///    exact quantities P-only dynamics and Definition 1 verdicts depend
///    on. Successor edges expand at most once per session, queries consume
///    previously expanded subgraphs, exhaustive passes persist per-node
///    decided-value facts that answer later queries without any expansion,
///    and symmetric protocols are additionally quotiented by process
///    renaming. The memo keys on the canonical projected
///    (ConfigId, ProcSet-orbit, ambient) triple, so any two queries the
///    projection cannot distinguish share one entry — including the lemma
///    peel loops' neighbours, whose roots differ only in frozen-process
///    state. Audit events name a configuration by its id in a separate
///    audit-id arena (audit_id()), which no checkpoint saves; with stats
///    off, the flight record names the memo key's root, the graph node.
///    Every freshly computed witness is de-canonicalized and
///    replayed through the raw engine from the *original* configuration
///    before it is memoized.
///
///  * reuse = false: the original fresh-BFS-per-pair backend (Explorer),
///    kept as the differential-testing anchor.
///
/// A value counts as "decided in the execution" if some process is in a
/// decided state at any configuration along it, including C itself —
/// matching Proposition 1(iv), where an earlier decision pins the valency
/// of every set of processes.
class ValencyOracle {
 public:
  struct Options {
    /// The per-pass configuration cap, the memory/time budget and the
    /// spill plan (sim::Limits), handed as one value to whichever engine
    /// runs the passes. A budget trip throws util::BudgetExhausted out of
    /// the query rather than returning an unsound negative answer or
    /// OOMing/hanging. An armed spill plan with an unusable directory is
    /// refused at construction (util::UsageError).
    sim::Limits limits{};
    /// Shared-subgraph engine on/off (see class comment). On, it takes at
    /// most 60 processes; the constructor throws util::UsageError past that.
    bool reuse = true;
  };

  explicit ValencyOracle(const Protocol& proto)
      : ValencyOracle(proto, Options{}) {}
  ValencyOracle(const Protocol& proto, Options opts)
      : proto_(proto),
        opts_(std::move(opts)),
        roots_(proto.num_processes(), proto.num_registers(), "valency roots") {
    if (opts_.limits.spill.armed()) {
      util::spill::require_usable_dir(opts_.limits.spill.dir);
    }
    // The shared engine's memo key carries the ambient decide bits in bits
    // 60..61 of the P mask (lookup), where process 60 or 61 would alias
    // them.
    if (opts_.reuse && proto.num_processes() > 60) {
      throw util::UsageError(
          "the shared valency engine supports at most 60 processes (got " +
          std::to_string(proto.num_processes()) +
          "); run with reuse off (--no-reuse)");
    }
  }

  /// Definition 1: P can decide v from C.
  bool can_decide(const Config& c, ProcSet p, Value v);

  /// P is bivalent from C: P can decide both 0 and 1.
  bool bivalent(const Config& c, ProcSet p) {
    return can_decide(c, p, 0) && can_decide(c, p, 1);
  }

  /// P is v-univalent from C: P can decide v but not 1-v.
  bool univalent_on(const Config& c, ProcSet p, Value v) {
    return can_decide(c, p, v) && !can_decide(c, p, 1 - v);
  }

  /// Some value P can decide from C (Proposition 1(i): one always exists
  /// for solo-terminating protocols). Returns 0 if P can decide 0, else 1.
  Value some_decidable(const Config& c, ProcSet p);

  /// A P-only schedule from C in which v is decided (witness for
  /// can_decide). With reuse = false this is the BFS-first deciding
  /// configuration's discovery path; with reuse = true it is the engine's
  /// (possibly fact-chased) witness, de-canonicalized into the caller's
  /// process ids and replay-verified before memoization.
  std::optional<Schedule> deciding_schedule(const Config& c, ProcSet p,
                                            Value v);

  /// True if any reachability query ever hit the configuration cap with an
  /// undetermined value, which would make a negative answer unsound. The
  /// adversary asserts this stays false.
  bool ever_truncated() const { return ever_truncated_; }

  std::size_t queries() const { return queries_; }
  std::size_t cache_hits() const { return cache_hits_; }
  /// Underlying reachability passes actually run (each covers both values
  /// of one (C, P) pair); queries() - cache_hits() public misses map 1:1
  /// onto pair lookups, of which this many missed the memo.
  std::size_t explorations() const { return explorations_; }

  // Shared-subgraph engine statistics (all 0 when reuse = false or no
  // query has run yet).
  bool reuse_enabled() const { return opts_.reuse; }
  std::uint64_t edges_expanded() const {
    return graph_ ? graph_->edges_expanded() : 0;
  }
  std::uint64_t edges_reused() const {
    return graph_ ? graph_->edges_reused() : 0;
  }
  /// Pair computations answered entirely from persisted facts.
  std::uint64_t fact_answers() const {
    return graph_ ? graph_->fact_answers() : 0;
  }
  /// Pair computations where a superset projection's stored negative
  /// transferred to the query's strictly smaller ProcSet at the root.
  std::uint64_t fact_subsumed() const {
    return graph_ ? graph_->fact_subsumed() : 0;
  }
  /// Edge bytes on disk (0 unless spilling is armed).
  std::size_t graph_spilled_bytes() const {
    return graph_ ? graph_->edge_spilled_bytes() : 0;
  }
  std::size_t graph_nodes() const { return graph_ ? graph_->nodes() : 0; }
  std::size_t fact_entries() const {
    return graph_ ? graph_->fact_entries() : 0;
  }
  /// True when the engine runs in symmetry-quotient mode.
  bool engine_symmetric() const { return graph_ && graph_->symmetric(); }

  /// The stable 32-bit id of `c` in the audit trail's id space — the
  /// "config" of the valency records, so lemma/adversary emitters can
  /// cross-link configurations to the queries asked about them without
  /// copying configurations into the log. This id space is the *original*
  /// one: canonicalization never leaks into the audit trail's config ids.
  /// Ids live in an arena of their own, interned only while the stats
  /// stream is on and never checkpointed, so labelling a record leaves
  /// the saved state as it is.
  sim::ConfigId audit_id(const Config& c);

  // --- checkpoint/resume ---------------------------------------------------
  // The oracle is the session's persistent state: the root arena (the
  // fresh-BFS backend's query roots, its memo keys; empty with reuse,
  // whose memo keys on graph nodes), the pair memo with its
  // witnesses, and (reuse = true) the shared reachability graph's nodes
  // and edges. save_state writes them as
  // the "oracle", "roots", "memo" and (iff the graph exists) "graph"
  // sections of a checkpoint in progress; restore_state rebuilds them into
  // a fresh oracle before any query runs. The graph's decide flags and
  // fact map are derived state and are not written (ReachGraph::save).
  // Query/hit/exploration counters are deliberately NOT restored — resume
  // re-runs the deterministic adversary from its start ("warm replay"), so
  // the counters rebuild themselves (with more cache hits than the
  // uninterrupted run — verdicts, visited sets and certificates are what
  // resume keeps identical, not stats). The audit-id arena is not saved
  // either: the replay names configurations in the same order, so it
  // rebuilds the same ids.

  /// Append this oracle's sections to a checkpoint state file.
  void save_state(util::ckpt::SectionWriter& w) const;
  /// Rebuild from save_state's sections. Must run on a freshly constructed
  /// oracle; throws util::CheckpointInvalid on any shape/flag disagreement.
  void restore_state(util::ckpt::SectionReader& r);
  /// The oracle slice of the checkpoint flag fingerprint: protocol name and
  /// shape plus every option that changes verdicts or the serialized state
  /// layout.
  std::string state_fingerprint() const;

 private:
  struct PairAnswer {
    bool can[2] = {false, false};
    /// Meaningful iff can[v]. With reuse = true this is stored in the
    /// canonical-root frame; public accessors de-canonicalize through the
    /// current lookup's renaming (equivariance: symmetric queries share
    /// the memo entry and each translates it into its own frame).
    Schedule witness[2];
    /// Id of the deciding configuration (kNoConfig when !can[v]) — pass-
    /// local discovery id for reuse = false, engine arena id for
    /// reuse = true; recorded in the audit trail so a query's verdict
    /// points at its witness.
    sim::ConfigId witness_id[2] = {sim::kNoConfig, sim::kNoConfig};
  };
  struct PairKey {
    sim::ConfigId root;
    std::uint64_t pbits;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    std::size_t operator()(const PairKey& k) const;
  };

  /// Lazily construct the reuse = true engine (also the restore path's
  /// entry point, so a resumed graph exists before the first query).
  sim::ReachGraph& ensure_graph();
  /// Memoized shared-exploration answer for (c, p).
  const PairAnswer& lookup(const Config& c, ProcSet p);
  PairAnswer compute_pair(const Config& c, ProcSet p);
  /// The shared pass leaves its counters in *qr (witnesses moved out) and
  /// the de-canonicalized replay verdict in *replay_ok, for lookup()'s
  /// valency.pass record.
  PairAnswer compute_pair_shared(const Config& c, ProcSet p,
                                 sim::ReachGraph::QueryResult* qr,
                                 bool* replay_ok);
  Schedule decanonicalize(const Schedule& s, sim::ProcPerm pi) const;
  /// Refresh the valency.memo ledger account: the pair memo, its witness
  /// steps (accumulated — entries are never evicted), the root arena and
  /// the audit-id arena.
  void update_memo_ledger() const;

  const Protocol& proto_;
  Options opts_;
  /// interns query roots, reuse = false only (checkpointed)
  sim::ConfigArena roots_;
  /// audit_id's arena, built on the first id the stats stream asks for.
  std::optional<sim::ConfigArena> audit_ids_;
  std::unordered_map<PairKey, PairAnswer, PairKeyHash> memo_;
  std::size_t memo_witness_bytes_ = 0;  ///< ledger: stored witness steps
  std::optional<sim::Explorer> seq_;        ///< reuse = false backend,
                                            ///< reused across queries
  std::unique_ptr<sim::ReachGraph> graph_;  ///< reuse = true backend
  bool ever_truncated_ = false;
  std::size_t queries_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t explorations_ = 0;
  // Set by lookup() for the audit events and witness translation the
  // public queries do.
  bool last_lookup_hit_ = false;
  /// The looked-up configuration's audit_id with stats on, else its memo
  /// key's root (the graph node with reuse): the id its audit and flight
  /// records carry.
  sim::ConfigId last_audit_id_ = sim::kNoConfig;
  sim::ProcPerm last_perm_;  ///< caller frame -> canonical frame
};

}  // namespace tsb::bound

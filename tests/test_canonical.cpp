// Canonicalization (sim/canonical.*) and shared-subgraph engine soundness:
//
//  * the canonical form is invariant under all n! process renamings and
//    refine_procset's orbit representative round-trips through its renaming;
//  * the symmetric-mode oracle interns ONE exploration per orbit and every
//    de-canonicalized witness replays through the raw engine;
//  * persisted facts answer repeat queries with zero expansion;
//  * the shared-subgraph backend answers every query exactly like the
//    fresh-BFS backend (the differential anchor) on ballot instances
//    n = 3..5. The full-adversary comparison lives in test_backend_matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "consensus/racing.hpp"
#include "sim/canonical.hpp"
#include "sim/engine.hpp"
#include "sim/reach_graph.hpp"
#include "util/rng.hpp"

namespace tsb::bound {
namespace {

using consensus::BallotConsensus;
using consensus::RacingConsensus;
using sim::ProcPerm;
using sim::Value;

std::vector<std::vector<int>> all_permutations(int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  std::vector<std::vector<int>> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

TEST(ProcPerm, IdentityInverseComposeAndSetImage) {
  EXPECT_TRUE(ProcPerm::identity().is_identity());
  ProcPerm pi;
  pi.set(0, 2);
  pi.set(1, 0);
  pi.set(2, 1);
  EXPECT_EQ(pi(0), 2);
  EXPECT_EQ(pi(1), 0);
  EXPECT_EQ(pi(2), 1);
  EXPECT_FALSE(pi.is_identity());

  const ProcPerm inv = pi.inverse();
  EXPECT_TRUE(ProcPerm::compose(pi, inv).is_identity());
  EXPECT_TRUE(ProcPerm::compose(inv, pi).is_identity());

  // compose(a, b)(p) == b(a(p)).
  ProcPerm rho;
  rho.set(0, 1);
  rho.set(1, 0);
  const ProcPerm both = ProcPerm::compose(pi, rho);
  for (int p = 0; p < ProcPerm::kMaxProcs; ++p) {
    EXPECT_EQ(both(p), rho(pi(p)));
  }

  EXPECT_EQ(pi.apply(ProcSet::single(0)), ProcSet::single(2));
  EXPECT_EQ(pi.apply(ProcSet::single(1).with(2)),
            ProcSet::single(0).with(1));
}

TEST(Canonicalize, SortedFormInvariantUnderAllRenamings) {
  util::Rng rng(23);
  for (int n = 1; n <= 4; ++n) {
    const auto perms = all_permutations(n);
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<Value> orig(static_cast<std::size_t>(n));
      for (Value& s : orig) {
        // Small alphabet (including the nil state) so duplicate runs and
        // ties — the cases stable sorting exists for — actually occur.
        s = static_cast<Value>(rng.range(-1, 2));
      }

      std::vector<Value> canon = orig;
      const ProcPerm pi0 = sim::canonicalize_states(canon.data(), n);
      EXPECT_TRUE(std::is_sorted(canon.begin(), canon.end()));
      for (int p = 0; p < n; ++p) {
        // Contract: sorted[pi(p)] == original state of p.
        EXPECT_EQ(canon[static_cast<std::size_t>(pi0(p))], orig[p]);
      }

      for (const auto& perm : perms) {
        // Renamed configuration: process p moves to slot perm[p].
        std::vector<Value> renamed(static_cast<std::size_t>(n));
        for (int p = 0; p < n; ++p) {
          renamed[static_cast<std::size_t>(perm[p])] = orig[p];
        }
        const ProcPerm pi = sim::canonicalize_states(renamed.data(), n);
        EXPECT_EQ(renamed, canon) << "orbit members canonicalize apart";
        for (int p = 0; p < n; ++p) {
          EXPECT_EQ(renamed[static_cast<std::size_t>(pi(perm[p]))], orig[p]);
        }
      }
    }
  }
}

TEST(Canonicalize, RefineProcsetOrbitRoundTrips) {
  util::Rng rng(31);
  for (int n = 2; n <= 4; ++n) {
    for (int trial = 0; trial < 25; ++trial) {
      std::vector<Value> sorted(static_cast<std::size_t>(n));
      for (Value& s : sorted) s = static_cast<Value>(rng.range(0, 1));
      std::sort(sorted.begin(), sorted.end());

      for (std::uint64_t bits = 1; bits < (1ull << n); ++bits) {
        const ProcSet p{bits};
        ProcSet canonical;
        const ProcPerm tau =
            sim::refine_procset(sorted.data(), n, p, &canonical);

        // tau maps the queried set onto the canonical member set...
        EXPECT_EQ(tau.apply(p), canonical);
        // ...while fixing the sorted configuration (it only permutes
        // within runs of equal states)...
        for (int q = 0; q < n; ++q) {
          EXPECT_EQ(sorted[static_cast<std::size_t>(tau(q))], sorted[q]);
        }
        // ...and round-trips: tau^-1 maps the representative back.
        EXPECT_EQ(tau.inverse().apply(canonical), p);
        EXPECT_EQ(canonical.size(), p.size());

        // The representative is a fixpoint: refining it is the identity
        // on the set.
        ProcSet again;
        sim::refine_procset(sorted.data(), n, canonical, &again);
        EXPECT_EQ(again, canonical);
      }
    }
  }
}

// Renamed configuration of a symmetric protocol: process p moves to slot
// perm[p]; registers are global and untouched.
Config rename_config(const Config& c, const std::vector<int>& perm) {
  Config out = c;
  for (std::size_t p = 0; p < perm.size(); ++p) {
    out.states[static_cast<std::size_t>(perm[p])] = c.states[p];
  }
  return out;
}

ProcSet rename_set(ProcSet s, const std::vector<int>& perm) {
  std::uint64_t bits = 0;
  s.for_each([&](int p) { bits |= 1ull << perm[static_cast<std::size_t>(p)]; });
  return ProcSet{bits};
}

TEST(Canonicalize, OracleRunsOneExplorationPerOrbit) {
  // RacingConsensus is process-oblivious (symmetric() == true), so every
  // renaming of a (config, procset) query is the SAME canonical pair: the
  // first query explores, all 3! - 1 renamed variants must be memo hits
  // with identical verdicts.
  RacingConsensus proto(3);
  ASSERT_TRUE(proto.symmetric());
  ValencyOracle oracle(proto);
  ASSERT_TRUE(oracle.reuse_enabled());

  const Config c = sim::initial_config(proto, {0, 1, 1});
  const ProcSet p = ProcSet::single(0).with(1);
  const bool base[2] = {oracle.can_decide(c, p, 0),
                        oracle.can_decide(c, p, 1)};
  EXPECT_EQ(oracle.explorations(), 1u);
  EXPECT_TRUE(oracle.engine_symmetric());

  for (const auto& perm : all_permutations(3)) {
    const Config d = rename_config(c, perm);
    const ProcSet q = rename_set(p, perm);
    EXPECT_EQ(oracle.can_decide(d, q, 0), base[0]);
    EXPECT_EQ(oracle.can_decide(d, q, 1), base[1]);
  }
  EXPECT_EQ(oracle.explorations(), 1u)
      << "a renamed query escaped the orbit memo";
  EXPECT_GE(oracle.cache_hits(), 6u);
}

TEST(Canonicalize, EqualStateProcessesShareTheOrbitMemo) {
  // Processes 0 and 1 start with the same input, hence the same state:
  // ({C}, {0}) and ({C}, {1}) are one orbit even without renaming the
  // configuration. refine_procset is what merges them.
  RacingConsensus proto(3);
  ValencyOracle oracle(proto);
  const Config c = sim::initial_config(proto, {0, 0, 1});

  const bool a = oracle.can_decide(c, ProcSet::single(0), 0);
  EXPECT_EQ(oracle.explorations(), 1u);
  const bool b = oracle.can_decide(c, ProcSet::single(1), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(oracle.explorations(), 1u) << "equal-state singleton missed";
  // The distinct-state process is a genuinely different query.
  oracle.can_decide(c, ProcSet::single(2), 0);
  EXPECT_EQ(oracle.explorations(), 2u);
}

TEST(Canonicalize, WitnessesReplayAfterDecanonicalization) {
  // Witnesses come out of the engine in the canonical frame; the oracle
  // must hand back schedules in the CALLER's frame. Replay each one
  // through the raw engine from the original (un-renamed) configuration.
  RacingConsensus proto(3);
  ValencyOracle oracle(proto);
  util::Rng rng(47);

  Config c = sim::initial_config(proto, {1, 0, 0});
  for (int step_count = 0; step_count < 10; ++step_count) {
    for (std::uint64_t bits = 1; bits < (1ull << 3); ++bits) {
      const ProcSet p{bits};
      for (Value v : {0, 1}) {
        if (!oracle.can_decide(c, p, v)) continue;
        const std::optional<sim::Schedule> w =
            oracle.deciding_schedule(c, p, v);
        ASSERT_TRUE(w.has_value());
        EXPECT_TRUE(w->only(p)) << "witness steps outside P";
        const Config end = sim::run(proto, c, *w);
        EXPECT_TRUE(sim::some_decided(proto, end, v))
            << "de-canonicalized witness does not decide " << v;
      }
    }
    c = sim::step(proto, c, static_cast<int>(rng.below(3)));
  }
}

/// The symmetric quotient, pinned end to end. Every query against
/// RacingConsensus runs in symmetric mode, so the graph counts, verdicts
/// and decanonicalized witnesses below pin the canonical node rows and the
/// renamings that produce them: how the arena stores a row must not move
/// any of them.
TEST(SymmetricQuotient, RacingAdversaryGraphAndCertificateArePinned) {
  RacingConsensus proto(3);
  const SpaceBoundAdversary::Result r = SpaceBoundAdversary(proto).run();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.check.ok);
  EXPECT_EQ(r.reach_graph_nodes, 2588u);
  EXPECT_EQ(r.reach_expanded, 5629u);
  EXPECT_EQ(r.reach_reused, 41u);
  EXPECT_EQ(r.certificate.inputs, (std::vector<Value>{0, 1, 0}));
  EXPECT_EQ(r.certificate.schedule.steps(),
            (std::vector<sim::ProcId>{2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 1, 0, 1,
                                      1, 0, 0, 0}));
  EXPECT_EQ(r.certificate.covering,
            (std::vector<std::pair<sim::ProcId, sim::RegId>>{{2, 0}, {0, 2}}));
}

/// A seeded walk over RacingConsensus(n): at each configuration, every
/// non-empty P and both values, folding each verdict and witness into one
/// digest. (The adversary itself stops on a lemma precondition at n = 4, so
/// the walk is what pins the quotient there.)
struct QuotientPin {
  int n;
  std::size_t nodes;
  std::uint64_t expanded;
  std::uint64_t reused;
  std::uint64_t digest;
};

void PrintTo(const QuotientPin& pin, std::ostream* os) { *os << "n=" << pin.n; }

class SymmetricQuotient : public ::testing::TestWithParam<QuotientPin> {};

TEST_P(SymmetricQuotient, RacingOracleWalkIsPinned) {
  const QuotientPin& pin = GetParam();
  RacingConsensus proto(pin.n);
  ValencyOracle oracle(proto);
  util::Rng rng(2016);
  std::uint64_t digest = 0;
  std::vector<Value> inputs(static_cast<std::size_t>(pin.n), 0);
  inputs[0] = 1;
  Config c = sim::initial_config(proto, inputs);
  for (int walk = 0; walk < 8; ++walk) {
    for (std::uint64_t bits = 1; bits < (1ull << pin.n); ++bits) {
      for (const Value v : {0, 1}) {
        const std::optional<sim::Schedule> w =
            oracle.deciding_schedule(c, ProcSet{bits}, v);
        digest = util::hash_combine(digest, w.has_value() ? 1 : 0);
        if (!w) continue;
        for (const sim::ProcId q : w->steps()) {
          digest = util::hash_combine(digest, static_cast<std::uint64_t>(q));
        }
      }
    }
    c = sim::step(proto, c, static_cast<int>(rng.below(
                                static_cast<std::uint64_t>(pin.n))));
  }
  EXPECT_EQ(oracle.graph_nodes(), pin.nodes);
  EXPECT_EQ(oracle.edges_expanded(), pin.expanded);
  EXPECT_EQ(oracle.edges_reused(), pin.reused);
  EXPECT_EQ(digest, pin.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Racing, SymmetricQuotient,
    ::testing::Values(
        QuotientPin{3, 2548, 5578, 1441, 11942689383694919074ull},
        QuotientPin{4, 87347, 262041, 15305, 4960442554259023494ull}),
    [](const ::testing::TestParamInfo<QuotientPin>& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      return name;
    });

TEST(FactAnswers, DrainedPassAnswersRepeatAndPrefixQueriesForFree) {
  // A drained exhaustive pass persists per-node decided-value facts. A
  // repeat of the same query — and a query from any configuration the
  // pass visited — must be answered purely from facts: zero expansion.
  BallotConsensus proto(3, 9);
  sim::ReachGraph graph(proto, {});
  const Config c = sim::initial_config(proto, {1, 1, 1});
  const ProcSet p = ProcSet::single(1).with(2);

  ProcPerm pi;
  const auto first = graph.query(c, p, &pi);
  EXPECT_FALSE(first.truncated);
  EXPECT_FALSE(first.from_facts);
  EXPECT_GT(first.expanded, 0u);
  EXPECT_TRUE(first.can[1]);   // uniform inputs: univalent on 1
  EXPECT_FALSE(first.can[0]);

  const auto again = graph.query(c, p, &pi);
  EXPECT_TRUE(again.from_facts);
  EXPECT_EQ(again.expanded, 0u);
  EXPECT_EQ(again.can[0], first.can[0]);
  EXPECT_EQ(again.can[1], first.can[1]);
  EXPECT_EQ(graph.fact_answers(), 1u);

  // One P-step deeper: still inside the facted subgraph.
  const Config c2 = sim::step(proto, c, 1);
  const auto prefix = graph.query(c2, p, &pi);
  EXPECT_TRUE(prefix.from_facts);
  EXPECT_EQ(prefix.expanded, 0u);
  EXPECT_TRUE(prefix.can[1]);
}

TEST(VisitMarks, SmallPassAfterALargerOneVisitsNodesWithStaleMarks) {
  // Visit marks are a sparse set: a node's mark word is whatever index the
  // last pass that visited it gave it, so a later, smaller pass meets
  // stale words that point inside its own entry range. Only the id check
  // of the entry they point at tells those nodes apart from visited ones.
  // Query a successor first (it becomes entry 0 of a large pass), then its
  // parent: the parent's pass reaches that successor while holding just
  // one entry, its root. With fact_entry_cap = 0 no pass persists the
  // facts of a drained walk, so the parent's walk must match a cold
  // engine's, entry for entry.
  BallotConsensus proto(3, 9);
  const Config c = sim::initial_config(proto, {1, 1, 1});
  const ProcSet p = ProcSet::single(1).with(2);
  const sim::ReachGraph::Options opts{.fact_entry_cap = 0};

  sim::ReachGraph warm(proto, opts);
  ProcPerm pi;
  const auto large = warm.query(sim::step(proto, c, 1), p, &pi);
  const auto small = warm.query(c, p, &pi);
  sim::ReachGraph cold(proto, opts);
  const auto fresh = cold.query(c, p, &pi);

  ASSERT_FALSE(fresh.truncated);
  EXPECT_GT(large.visited, 1u);
  EXPECT_EQ(small.visited, fresh.visited);
  EXPECT_EQ(small.expanded + small.reused, fresh.expanded + fresh.reused);
  EXPECT_EQ(small.can[0], fresh.can[0]);
  EXPECT_EQ(small.can[1], fresh.can[1]);
  EXPECT_EQ(small.witness[1].steps(), fresh.witness[1].steps());
}

// --- differential: shared-subgraph engine vs fresh-BFS anchor ------------

class DifferentialTest : public ::testing::TestWithParam<int> {
 protected:
  int n() const { return GetParam(); }
};

TEST_P(DifferentialTest, SharedEngineMatchesFreshBfsQueryByQuery) {
  BallotConsensus proto(n(), 3 * n());
  ValencyOracle shared(proto, {.reuse = true});
  ValencyOracle fresh(proto, {.reuse = false});
  util::Rng rng(101 + static_cast<std::uint64_t>(n()));

  std::vector<Value> inputs(static_cast<std::size_t>(n()), 0);
  inputs[0] = 1;
  Config c = sim::initial_config(proto, inputs);

  std::vector<ProcSet> sets;
  for (int p = 0; p < n(); ++p) sets.push_back(ProcSet::single(p));
  if (n() <= 4) {
    sets.push_back(ProcSet::first_n(n()));
    sets.push_back(ProcSet::first_n(n()).without(0));
    sets.push_back(ProcSet::first_n(n()).without(n() - 1));
  } else {
    // At n = 5 an everyone-query explores the full reachable space and
    // trips the 2M-config cap; stick to the |P| <= 3 sets the adversary's
    // lemma loops actually ask about.
    sets.push_back(ProcSet::single(0).with(1));
    sets.push_back(ProcSet::single(n() - 2).with(n() - 1));
    sets.push_back(ProcSet::single(0).with(1).with(2));
    sets.push_back(ProcSet::single(2).with(3).with(4));
  }

  for (int step_count = 0; step_count < 8; ++step_count) {
    for (const ProcSet p : sets) {
      for (Value v : {0, 1}) {
        const bool want = fresh.can_decide(c, p, v);
        ASSERT_EQ(shared.can_decide(c, p, v), want)
            << "verdict diverged at n=" << n() << " step=" << step_count
            << " P=" << p.to_string() << " v=" << v;
        if (!want) continue;
        // Both backends must also produce REPLAYABLE witnesses (they may
        // legitimately differ schedule-for-schedule).
        for (ValencyOracle* o : {&shared, &fresh}) {
          const auto w = o->deciding_schedule(c, p, v);
          ASSERT_TRUE(w.has_value());
          EXPECT_TRUE(
              sim::some_decided(proto, sim::run(proto, c, *w), v));
        }
      }
    }
    c = sim::step(proto, c, static_cast<int>(
                                rng.below(static_cast<std::uint64_t>(n()))));
  }
  EXPECT_FALSE(shared.ever_truncated());
  EXPECT_FALSE(fresh.ever_truncated());
  EXPECT_GT(shared.edges_reused(), 0u);
  EXPECT_EQ(fresh.edges_expanded(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Ballot, DifferentialTest, ::testing::Values(3, 4, 5),
                         [](const auto& info) {
                           return 'n' + std::to_string(info.param);
                         });

}  // namespace
}  // namespace tsb::bound

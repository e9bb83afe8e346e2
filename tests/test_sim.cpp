#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "consensus/ballot.hpp"
#include "consensus/historyless.hpp"
#include "consensus/racing.hpp"
#include "obs/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/explorer.hpp"
#include "util/require.hpp"
#include "toy_protocol.hpp"

namespace tsb::sim {
namespace {

using test::ToyProtocol;

TEST(Config, InitialConfigurationShape) {
  ToyProtocol proto(3);
  const Config c = initial_config(proto, {5, 6, 7});
  EXPECT_EQ(c.states.size(), 3u);
  EXPECT_EQ(c.regs.size(), 3u);
  for (Value r : c.regs) EXPECT_EQ(r, kEmptyRegister);
  EXPECT_FALSE(decision_of(proto, c, 0).has_value());
}

TEST(Config, HashAndEquality) {
  ToyProtocol proto(2);
  const Config a = initial_config(proto, {0, 1});
  const Config b = initial_config(proto, {0, 1});
  const Config c = initial_config(proto, {1, 1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);  // hash may collide in principle; equality must not
}

TEST(Engine, WriteStepUpdatesRegisterAndState) {
  ToyProtocol proto(2);
  Config c = initial_config(proto, {5, 9});
  Trace trace;
  c = step(proto, c, 0, &trace);
  EXPECT_EQ(c.regs[0], 5);
  EXPECT_EQ(c.regs[1], kEmptyRegister);
  ASSERT_EQ(trace.records.size(), 1u);
  EXPECT_TRUE(trace.records[0].op.is_write());
  EXPECT_EQ(trace.records[0].op.reg, 0);
  EXPECT_EQ(trace.records[0].op.value, 5);
}

TEST(Engine, ReadStepObservesCurrentContents) {
  ToyProtocol proto(2);
  Config c = initial_config(proto, {5, 9});
  c = step(proto, c, 1);  // p1 writes 9 to R1
  c = step(proto, c, 0);  // p0 writes 5 to R0
  Trace trace;
  c = step(proto, c, 0, &trace);  // p0 reads R1 -> 9
  ASSERT_EQ(trace.records.size(), 1u);
  EXPECT_TRUE(trace.records[0].op.is_read());
  EXPECT_EQ(trace.records[0].read_result, 9);
  const auto decision = decision_of(proto, c, 0);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, 5 + 10 * 10);  // input + 10 * (9 + 1)
}

TEST(Engine, DecidedProcessStepsAreNoOps) {
  ToyProtocol proto(2);
  Config c = initial_config(proto, {1, 2});
  c = run(proto, c, Schedule{0, 0});  // p0: write, read(empty)
  ASSERT_TRUE(decision_of(proto, c, 0).has_value());
  const Config before = c;
  Trace trace;
  c = step(proto, c, 0, &trace);
  EXPECT_EQ(c, before);
  EXPECT_TRUE(trace.records.empty());
}

TEST(Engine, RunAppliesScheduleLeftToRight) {
  ToyProtocol proto(2);
  const Config c = initial_config(proto, {3, 4});
  // p0 reads before p1 writes vs after: decisions differ.
  const Config fast = run(proto, c, Schedule{0, 0, 1, 1});
  const Config slow = run(proto, c, Schedule{1, 0, 0, 1});
  EXPECT_EQ(*decision_of(proto, fast, 0), 3 + 10 * 0);       // read empty
  EXPECT_EQ(*decision_of(proto, slow, 0), 3 + 10 * (4 + 1));  // read 4
}

TEST(Engine, SoloRunStopsAtDecision) {
  ToyProtocol proto(2);
  const Config c = initial_config(proto, {3, 4});
  const SoloRun solo = run_solo(proto, c, 0, 100);
  EXPECT_TRUE(solo.decided);
  EXPECT_EQ(solo.schedule.size(), 2u);
  EXPECT_TRUE(solo.schedule.only(ProcSet::single(0)));
  EXPECT_EQ(solo.decision, 3);
}

TEST(Engine, SoloRunReportsCapExhaustion) {
  ToyProtocol proto(2);
  const Config c = initial_config(proto, {3, 4});
  const SoloRun solo = run_solo(proto, c, 0, 1);  // needs 2 steps
  EXPECT_FALSE(solo.decided);
  EXPECT_EQ(solo.schedule.size(), 1u);
}

TEST(Engine, DecidedSetAndSomeDecided) {
  ToyProtocol proto(2);
  Config c = initial_config(proto, {3, 4});
  EXPECT_TRUE(decided_set(proto, c).is_empty());
  c = run(proto, c, Schedule{0, 0});
  EXPECT_EQ(decided_set(proto, c), ProcSet::single(0));
  EXPECT_TRUE(some_decided(proto, c, 3));
  EXPECT_FALSE(some_decided(proto, c, 4));
}

TEST(Indistinguishability, SeparatesOnRegistersAndStates) {
  ToyProtocol proto(2);
  const Config a = initial_config(proto, {3, 4});
  Config b = a;
  EXPECT_TRUE(indistinguishable(a, b, ProcSet::first_n(2)));

  b.states[0] = 999;  // p0's state differs
  EXPECT_FALSE(indistinguishable(a, b, ProcSet::first_n(2)));
  EXPECT_TRUE(indistinguishable(a, b, ProcSet::single(1)));

  Config c = a;
  c.regs[0] = 77;  // registers are visible to everyone
  EXPECT_FALSE(indistinguishable(a, c, ProcSet::single(1)));
}

TEST(Schedule, AlgebraAndQueries) {
  const Schedule a{0, 1, 0};
  const Schedule b{2};
  const Schedule ab = a + b;
  EXPECT_EQ(ab.size(), 4u);
  EXPECT_EQ(ab[3], 2);
  EXPECT_EQ(ab.prefix(2), (Schedule{0, 1}));
  EXPECT_EQ(a.participants(), ProcSet::single(0).with(1));
  EXPECT_TRUE(a.only(ProcSet::first_n(2)));
  EXPECT_FALSE(ab.only(ProcSet::first_n(2)));
  EXPECT_EQ(Schedule::solo(3, 2).to_string(), "p3 p3");
}

TEST(Explorer, EnumeratesFullToyGraph) {
  ToyProtocol proto(2);
  const Config root = initial_config(proto, {3, 4});
  Explorer explorer(proto);
  std::size_t decided_both = 0;
  auto result =
      explorer.explore(root, ProcSet::first_n(2), [&](const ConfigView& c) {
        if (decided_set(proto, c.materialize()) == ProcSet::first_n(2)) {
          ++decided_both;
        }
        return true;
      });
  EXPECT_FALSE(result.truncated);
  EXPECT_FALSE(result.aborted);
  // Each process runs write-then-read; interleavings produce a small DAG.
  EXPECT_GE(result.visited, 9u);
  EXPECT_LE(result.visited, 16u);
  EXPECT_GE(decided_both, 1u);
}

TEST(Explorer, WitnessReplaysToTarget) {
  ToyProtocol proto(2);
  const Config root = initial_config(proto, {3, 4});
  Explorer explorer(proto);
  std::optional<Config> target;
  explorer.explore(root, ProcSet::first_n(2), [&](const ConfigView& c) {
    if (decided_set(proto, c.materialize()) == ProcSet::first_n(2)) {
      target = c.materialize();
      return false;  // abort at the first fully-decided configuration
    }
    return true;
  });
  ASSERT_TRUE(target.has_value());
  const auto witness = explorer.witness(*target);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(run(proto, root, *witness), *target);
}

TEST(Explorer, RespectsProcessRestriction) {
  ToyProtocol proto(2);
  const Config root = initial_config(proto, {3, 4});
  Explorer explorer(proto);
  auto result = explorer.explore(root, ProcSet::single(0),
                                 [](const ConfigView&) { return true; });
  // p0 alone: root, after write, after read (decided) = 3 configurations.
  EXPECT_EQ(result.visited, 3u);
}

TEST(Explorer, TruncationReported) {
  ToyProtocol proto(3);
  const Config root = initial_config(proto, {1, 2, 3});
  Explorer explorer(proto, {.limits = {.max_configs = 2}});
  auto result = explorer.explore(root, ProcSet::first_n(3),
                                 [](const ConfigView&) { return true; });
  EXPECT_TRUE(result.truncated);
}

/// One process counting up: it writes its count to R0, then counts on.
/// Every step brings one word the arena has never seen, so a solo run
/// walks straight into the value dictionary's 16-bit limit.
class CounterProtocol final : public Protocol {
 public:
  std::string name() const override { return "counter"; }
  int num_processes() const override { return 1; }
  int num_registers() const override { return 1; }
  State initial_state(ProcId, Value) const override { return 0; }
  PendingOp poised(ProcId, State s) const override {
    return s >= 1'000'000 ? PendingOp::decide(0) : PendingOp::write(0, s);
  }
  State after_read(ProcId, State s, Value) const override { return s; }
  State after_write(ProcId, State s) const override { return s + 1; }
};

TEST(ArenaDictionary, OverflowIsBudgetExhaustedAndKeepsEarlierIds) {
  CounterProtocol proto;
  const Config root = initial_config(proto, {0});
  Explorer explorer(proto);
  std::string what;
  try {
    explorer.explore(root, ProcSet::single(0),
                     [](const ConfigView&) { return true; });
  } catch (const util::BudgetExhausted& e) {
    what = e.what();
  }
  // The root holds {0, empty}; configuration k holds {k, k - 1}, so the
  // dictionary fills at k = 65,534 and the next step's count is refused.
  EXPECT_NE(what.find("value dictionary of the explorer arena"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("ledger: "), std::string::npos) << what;
  ASSERT_EQ(explorer.size(), kMaxCodes - 1);
  EXPECT_EQ(explorer.materialize(0), root);
  const Config last =
      explorer.materialize(static_cast<ConfigId>(kMaxCodes - 2));
  EXPECT_EQ(last.states, std::vector<Value>{65'534});
  EXPECT_EQ(last.regs, std::vector<Value>{65'533});
  const auto w = explorer.witness_by_id(1'000);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(run(proto, root, *w), explorer.materialize(1'000));
}

TEST(ArenaClear, TableShrinksToTheLastFill) {
  ConfigArena arena(2, 1, "test");
  const auto fill = [&](Value rows) {
    for (Value i = 0; i < rows; ++i) {
      const std::vector<Value> w = {i % 1'000, i / 1'000, -1};
      ASSERT_EQ(arena.intern(w.data()).id, static_cast<ConfigId>(i));
    }
  };
  fill(100'000);
  const std::size_t big = arena.table_slots();
  ASSERT_GE(big * 7, 100'000u * 10);
  // The fill just dropped needed the big table: it is zeroed in place.
  arena.clear();
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(arena.table_slots(), big);
  fill(10);
  // This time it needed 1/128 of it: clear() allocates a table sized for
  // ten rows instead of sweeping the big one again.
  arena.clear();
  EXPECT_EQ(arena.table_slots(), 1024u);
  fill(100'000);  // grows back; ids restart at 0
  EXPECT_EQ(arena.table_slots(), big);
}

TEST(ArenaDictionary, LookupsNeverGrowTheDictionary) {
  ConfigArena arena(2, 1, "test");
  const std::vector<Value> a = {3, 4, -1};
  const std::vector<Value> b = {3, 5, -1};
  ASSERT_TRUE(arena.intern(a.data()).inserted);
  ASSERT_EQ(arena.dict_size(), 3u);
  EXPECT_EQ(arena.find(a.data()), 0u);
  EXPECT_EQ(arena.find(b.data()), kNoConfig);
  EXPECT_EQ(arena.dict_size(), 3u) << "find() added the unseen word 5";
  std::vector<Value> got(3);
  arena.decode(0, got.data());
  EXPECT_EQ(got, a);
}

/// Interns `rows` distinct rows into a (2, 1) arena, calling `between`
/// every 1,000 rows, then checks that the table grew through at least
/// eight doublings and that every row re-interns to its own id while as
/// many absent rows (all their words in the dictionary) are not found.
template <class Between>
void check_growth(ConfigArena& arena, Value rows, Between&& between) {
  const auto present = [](Value i) {
    return std::vector<Value>{i % 1'000, i / 1'000, -1};
  };
  const auto absent = [](Value i) {
    return std::vector<Value>{i % 1'000, i / 1'000, i % 1'000};
  };
  for (Value i = 0; i < rows; ++i) {
    const auto w = present(i);
    const auto got = arena.intern(w.data());
    ASSERT_TRUE(got.inserted) << i;
    ASSERT_EQ(got.id, static_cast<ConfigId>(i));
    if (i % 1'000 == 999) between();
  }
  EXPECT_GE(arena.table_slots(), std::size_t{1024} << 8);
  EXPECT_EQ(arena.table_bytes(), arena.table_slots() * 4);
  const std::size_t dict = arena.dict_size();
  for (Value i = 0; i < rows; ++i) {
    const auto w = present(i);
    const auto got = arena.intern(w.data());
    ASSERT_FALSE(got.inserted) << i;
    ASSERT_EQ(got.id, static_cast<ConfigId>(i));
    ASSERT_EQ(arena.find(w.data()), static_cast<ConfigId>(i));
    const auto a = absent(i);
    ASSERT_EQ(arena.find(a.data()), kNoConfig) << i;
  }
  EXPECT_EQ(arena.size(), static_cast<std::size_t>(rows));
  EXPECT_EQ(arena.dict_size(), dict);
}

TEST(ArenaTable, GrowthRehashesEveryRowToItsOwnId) {
  obs::Counter& false_matches =
      obs::Registry::global().counter("sim.arena.tag_false_matches");
  const std::uint64_t before = false_matches.value();
  ConfigArena arena(2, 1, "test");
  check_growth(arena, 200'000, [] {});
  // 2^19 slots leave a 13-bit tag: among ~800k probes some tags collide
  // with a different row, and only the code comparison tells them apart.
  EXPECT_EQ(arena.table_slots(), std::size_t{1} << 19);
  EXPECT_GT(false_matches.value(), before);
}

TEST(ArenaTable, GrowthRehashesSpilledRows) {
  const std::string dir = ::testing::TempDir() + "tsb_arena_table_spill";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ConfigArena arena(2, 1, "test");
  ASSERT_TRUE(arena.set_spill(dir, 0, 512));
  check_growth(arena, 200'000, [&] { arena.maybe_spill(kNoConfig); });
  // Every doubling past the first few read spilled rows back to hash them.
  EXPECT_GT(arena.spilled_segments(), 300u);
}

// --- register-vector rows and the step memo --------------------------------

/// Processes that decide their input at once: no registers, so a row is
/// the n state codes alone.
class NoRegisterProtocol final : public Protocol {
 public:
  std::string name() const override { return "no-register"; }
  int num_processes() const override { return 3; }
  int num_registers() const override { return 0; }
  State initial_state(ProcId, Value input) const override { return input; }
  PendingOp poised(ProcId, State s) const override {
    return PendingOp::decide(s);
  }
  State after_read(ProcId, State s, Value) const override { return s; }
  State after_write(ProcId, State s) const override { return s; }
};

/// Every configuration's row decodes back to its own words: the value
/// and register-vector dictionaries name what the rows hold.
void check_decode_round_trip(const ConfigArena& arena,
                             const std::vector<Config>& configs) {
  std::vector<Value> w(arena.words_per_config());
  std::vector<Value> back(arena.words_per_config());
  for (const Config& c : configs) {
    arena.pack(c, w.data());
    const ConfigId id = arena.find(w.data());
    ASSERT_NE(id, kNoConfig);
    arena.decode(id, back.data());
    EXPECT_EQ(back, w);
  }
}

TEST(ArenaVectors, BallotRowsAreStatesAndOneVectorCode) {
  consensus::BallotConsensus proto(3, 6);
  std::vector<Config> configs;
  Explorer explorer(proto);
  explorer.explore(initial_config(proto, {0, 1, 1}), ProcSet::first_n(3),
                   [&](const ConfigView& c) {
                     configs.push_back(c.materialize());
                     return true;
                   });
  ASSERT_GT(configs.size(), 1'000u);
  ConfigArena arena(3, 3, "test");
  EXPECT_EQ(arena.words_per_config(), 6u);
  EXPECT_EQ(arena.row_codes(), 4u);
  std::vector<Value> w(6);
  std::vector<Value> got(6);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    arena.pack(configs[i], w.data());
    const auto [id, inserted] = arena.intern(w.data());
    ASSERT_TRUE(inserted);
    ASSERT_EQ(id, static_cast<ConfigId>(i));
  }
  // Far fewer register tuples than configurations, each stored once.
  EXPECT_LT(arena.vec_dict_size() * 4, arena.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    arena.pack(configs[i], w.data());
    ASSERT_EQ(arena.find(w.data()), static_cast<ConfigId>(i));
    arena.decode(static_cast<ConfigId>(i), got.data());
    ASSERT_EQ(got, w);
    EXPECT_EQ(arena.materialize(static_cast<ConfigId>(i)), configs[i]);
    // The row's last code names the register tuple.
    const Code* vec = arena.reg_codes(arena.codes(static_cast<ConfigId>(i))[3]);
    for (int r = 0; r < 3; ++r) ASSERT_EQ(arena.value(vec[r]), w[3 + r]);
  }
  // A configuration whose words are all known but whose register tuple is
  // not: find() names none and adds nothing.
  std::set<std::vector<Value>> tuples;
  for (const Config& c : configs) tuples.insert(c.regs);
  Code unused = 0;
  while (tuples.count(std::vector<Value>(3, arena.value(unused))) != 0) {
    ++unused;
  }
  ASSERT_LT(unused, arena.dict_size());
  const std::size_t vecs = arena.vec_dict_size();
  arena.pack(configs[0], w.data());
  std::fill(w.begin() + 3, w.end(), arena.value(unused));
  EXPECT_EQ(arena.find(w.data()), kNoConfig);
  EXPECT_EQ(arena.vec_dict_size(), vecs);
  check_decode_round_trip(arena, configs);
}

TEST(ArenaVectors, ProtocolWithoutRegistersStoresStateRows) {
  NoRegisterProtocol proto;
  ConfigArena arena(3, 0, "test");
  EXPECT_EQ(arena.row_codes(), 3u);
  std::vector<Config> configs;
  for (Value a = 0; a < 3; ++a) {
    for (Value b = 0; b < 3; ++b) {
      configs.push_back(initial_config(proto, {a, b, a + b}));
    }
  }
  std::vector<Value> w(3);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    arena.pack(configs[i], w.data());
    ASSERT_EQ(arena.intern(w.data()).id, static_cast<ConfigId>(i));
  }
  EXPECT_EQ(arena.vec_dict_size(), 0u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    arena.pack(configs[i], w.data());
    EXPECT_EQ(arena.find(w.data()), static_cast<ConfigId>(i));
    EXPECT_EQ(arena.materialize(static_cast<ConfigId>(i)), configs[i]);
  }
  const std::vector<Value> absent = {0, 0, 4};
  EXPECT_EQ(arena.find(absent.data()), kNoConfig);
  check_decode_round_trip(arena, configs);
}

TEST(ArenaVectors, OverflowIsBudgetExhaustedAndLeavesTheArenaUnchanged) {
  // 256 x 256 register pairs under one state word: 65,536 vectors over
  // 257 values. A 65,537th vector whose words are all known must be
  // refused without adding a configuration or a value.
  ConfigArena arena(1, 2, "test");
  std::vector<Value> w(3, 1'000);
  for (Value a = 0; a < 256; ++a) {
    for (Value b = 0; b < 256; ++b) {
      w[1] = a;
      w[2] = b;
      ASSERT_TRUE(arena.intern(w.data()).inserted);
    }
  }
  ASSERT_EQ(arena.vec_dict_size(), kMaxCodes);
  ASSERT_EQ(arena.size(), kMaxCodes);
  ASSERT_EQ(arena.dict_size(), 257u);
  const std::vector<Value> over = {1'000, 1'000, 1'000};
  std::string what;
  try {
    arena.intern(over.data());
  } catch (const util::BudgetExhausted& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("register-vector dictionary of the test arena"),
            std::string::npos)
      << what;
  EXPECT_EQ(arena.size(), kMaxCodes);
  EXPECT_EQ(arena.dict_size(), 257u);
  EXPECT_EQ(arena.vec_dict_size(), kMaxCodes);
  EXPECT_EQ(arena.find(over.data()), kNoConfig);
  const std::vector<Value> known = {1'000, 5, 7};
  EXPECT_EQ(arena.find(known.data()), static_cast<ConfigId>(5 * 256 + 7));
}

std::uint64_t protocol_steps() {
  obs::Registry& reg = obs::Registry::global();
  return reg.counter("sim.steps.read").value() +
         reg.counter("sim.steps.write").value() +
         reg.counter("sim.steps.swap").value();
}

std::uint64_t memo_hits() {
  return obs::Registry::global().counter("sim.arena.step_memo_hits").value();
}

/// `steps` random steps through `proto` from initial configurations with
/// random binary inputs (restarting when every process has decided). Each
/// step runs twice: sim::step on a Config, and arena.step in code space;
/// the successor's words, its interned row decoded, and the parent's
/// words after undo must all be sim::step's. Returns the arena's memo
/// hits.
std::uint64_t differential_walk(const Protocol& proto, ConfigArena& arena,
                                std::uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  const int n = proto.num_processes();
  const std::size_t words = arena.words_per_config();
  std::vector<Value> vals(words), want(words), got(words);
  std::vector<Code> codes(arena.row_codes()), scodes(arena.row_codes());
  Config cur;
  const auto restart = [&] {
    std::vector<Value> inputs(static_cast<std::size_t>(n));
    for (Value& v : inputs) v = static_cast<Value>(rng() % 2);
    cur = initial_config(proto, inputs);
    arena.pack(cur, vals.data());
    const ConfigId id = arena.intern(vals.data()).id;
    arena.load(id, codes.data(), vals.data());
  };
  restart();
  const std::uint64_t hits_before = memo_hits();
  const std::uint64_t protocol_before = protocol_steps();
  for (int i = 0; i < steps; ++i) {
    std::vector<ProcId> live;
    for (ProcId p = 0; p < n; ++p) {
      const State s = cur.states[static_cast<std::size_t>(p)];
      if (!proto.poised(p, s).is_decide()) live.push_back(p);
    }
    if (live.empty()) {
      restart();
      --i;
      continue;
    }
    const ProcId p = live[rng() % live.size()];
    const Config next = step(proto, cur, p);
    const PendingOp op = proto.poised(p, vals[static_cast<std::size_t>(p)]);
    const ConfigArena::StepUndo undo =
        arena.step(proto, op, p, vals.data(), codes.data(), scodes.data());
    arena.pack(next, want.data());
    EXPECT_EQ(vals, want) << "successor words, step " << i;
    const ConfigId id = arena.intern_codes(scodes.data()).id;
    arena.decode(id, got.data());
    EXPECT_EQ(got, want) << "interned successor, step " << i;
    undo.apply(vals.data());
    arena.pack(cur, want.data());
    EXPECT_EQ(vals, want) << "undo, step " << i;
    if (::testing::Test::HasFailure()) return 0;
    cur = next;
    arena.load(id, codes.data(), vals.data());
  }
  // Steps taken = protocol invocations + memo hits: each step here ran
  // sim::step (one invocation) and arena.step (one invocation or a hit).
  const std::uint64_t hits = memo_hits() - hits_before;
  EXPECT_EQ(protocol_steps() - protocol_before + hits,
            2 * static_cast<std::uint64_t>(steps));
  return hits;
}

void check_cold_and_warm(const Protocol& proto, int steps) {
  ConfigArena arena(proto.num_processes(), proto.num_registers(), "test");
  // Cold: the first walk fills the memos as it goes.
  const std::uint64_t cold = differential_walk(proto, arena, 1, steps);
  // Warm: the same walk again finds its transitions memoized.
  const std::uint64_t warm = differential_walk(proto, arena, 1, steps);
  EXPECT_LT(cold, static_cast<std::uint64_t>(steps));
  EXPECT_GT(warm, cold);
  EXPECT_GT(warm * 2, static_cast<std::uint64_t>(steps));
  // clear() renumbers both dictionaries, so the memos must go with them:
  // a different walk after it still decodes to sim::step's successors.
  arena.clear();
  differential_walk(proto, arena, 2, steps);
}

TEST(ArenaStep, DifferentialWalkMatchesSimStepOnBallot) {
  check_cold_and_warm(consensus::BallotConsensus(3, 6), 3'000);
}

TEST(ArenaStep, DifferentialWalkMatchesSimStepOnRacing) {
  consensus::RacingConsensus proto(3);
  ASSERT_TRUE(proto.symmetric());
  check_cold_and_warm(proto, 3'000);
}

TEST(ArenaStep, DifferentialWalkMatchesSimStepOnSwap) {
  check_cold_and_warm(consensus::SwapConsensus(3), 600);
}

}  // namespace
}  // namespace tsb::sim

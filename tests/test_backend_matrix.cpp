// The verdict/certificate contract as one differential matrix. Theorem 1's
// construction against BallotConsensus(n, cap), n = 3..5, must end in the
// identical certificate on every combination of the engine's backend axes:
//
//   backend  reuse (the shared-subgraph engine) or no-reuse (fresh BFS per
//            query, the differential anchor)
//   spill    resident; or spilled (every store out of core: the node/config
//            arena, plus the shared engine's edge arrays under reuse — the
//            cell name says which, "arena_graph" or "arena")
//   resume   straight through; or stopped at a quiescent point after a
//            final checkpoint, then resumed from it
//
// The reference is the resident, straight-through reuse run. Each cell also
// proves it is not vacuous: a spill cell must have put bytes on disk, and a
// resume cell must really have stopped and resumed a memo that answers
// queries. The no-reuse backend polls its
// quiescent points every 4096 expansions, and only n = 5 has passes that
// large, so its spill and resume cells run at n = 5 only.
#include <gtest/gtest.h>

#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "consensus/ballot.hpp"
#include "obs/memledger.hpp"
#include "util/checkpoint.hpp"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using util::ckpt::CheckpointService;

enum class Spill { kResident, kSpilled };

struct Cell {
  int n;
  bool reuse;
  Spill spill;
  bool resume;
};

std::string cell_name(const Cell& c) {
  const char* spill = c.spill == Spill::kResident ? "resident"
                      : c.reuse                    ? "arena_graph"
                                                   : "arena";
  return 'n' + std::to_string(c.n) + "_" + (c.reuse ? "reuse" : "noreuse") +
         "_" + spill + "_" + (c.resume ? "resumed" : "straight");
}

// Test names and gtest's parameter printout use the cell name (the default
// printout would dump the struct's bytes, padding included).
void PrintTo(const Cell& c, std::ostream* os) { *os << cell_name(c); }

std::vector<Cell> all_cells() {
  std::vector<Cell> out;
  for (const int n : {3, 4, 5}) {
    for (const Spill spill : {Spill::kResident, Spill::kSpilled}) {
      for (const bool resume : {false, true}) {
        out.push_back({n, true, spill, resume});
        const bool polls = n == 5;
        if (polls || (spill == Spill::kResident && !resume)) {
          out.push_back({n, false, spill, resume});
        }
      }
    }
  }
  return out;
}

int ballot_cap(int n) { return n <= 4 ? 2 * n : 3 * n; }

/// Fresh per-cell scratch directory under gtest's temp root.
std::string tdir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "tsb_matrix_" + name;
  std::error_code ec;
  fs::remove_all(d, ec);
  fs::create_directories(d);
  return d;
}

bool dir_empty(const std::string& d) {
  return fs::directory_iterator(d) == fs::directory_iterator();
}

class BackendMatrix : public ::testing::TestWithParam<Cell> {
 protected:
  void SetUp() override { CheckpointService::global().reset(); }
  void TearDown() override { CheckpointService::global().reset(); }
};

TEST_P(BackendMatrix, CertificateMatchesResidentStraightReuseRun) {
  const Cell& cell = GetParam();
  const consensus::BallotConsensus proto(cell.n, ballot_cap(cell.n));
  const auto reference = bound::SpaceBoundAdversary(proto).run();
  ASSERT_TRUE(reference.ok) << reference.error;
  ASSERT_TRUE(reference.check.ok) << reference.check.error;
  EXPECT_EQ(reference.check.distinct_registers, cell.n - 1);

  const std::string base = tdir(cell_name(cell));
  bound::SpaceBoundAdversary::Options opts;
  opts.reuse = cell.reuse;
  if (cell.spill == Spill::kSpilled) {
    opts.spill_dir = base + "/spill";
    fs::create_directories(opts.spill_dir);
    // Threshold 1 byte + 64-record segments: every cold full segment
    // leaves RAM at each quiescent point, on test-sized runs.
    opts.spill_threshold_bytes = 1;
    opts.spill_seg_configs = 64;
  }
  if (cell.resume) {
    opts.checkpoint_dir = base + "/ckpt";
    // Stop early enough that the resumed run still spills (a reuse run
    // at n = 3 polls only a handful of times) and, on the fresh-BFS
    // backend, past its first pass, so the checkpoint holds memo entries.
    CheckpointService::global().stop_after_polls(cell.reuse ? 3 : 12);
    const auto stopped = bound::SpaceBoundAdversary(proto, opts).run();
    ASSERT_TRUE(stopped.stopped)
        << "hook did not interrupt (ok=" << stopped.ok
        << " error=" << stopped.error << ")";
    ASSERT_TRUE(fs::exists(util::ckpt::manifest_path(opts.checkpoint_dir)))
        << "stop did not commit a final checkpoint";
    CheckpointService::global().reset();
    opts.resume = true;
  }
  obs::MemLedger::global().reset();
  const auto got = bound::SpaceBoundAdversary(proto, opts).run();
  ASSERT_TRUE(got.ok) << got.error;
  EXPECT_TRUE(got.check.ok) << got.check.error;

  EXPECT_EQ(got.certificate.protocol, reference.certificate.protocol);
  EXPECT_EQ(got.certificate.inputs, reference.certificate.inputs);
  EXPECT_EQ(got.certificate.schedule.steps(),
            reference.certificate.schedule.steps());
  EXPECT_EQ(got.certificate.covering, reference.certificate.covering);
  EXPECT_EQ(got.check.registers, reference.check.registers);
  EXPECT_EQ(got.valency_queries, reference.valency_queries);

  if (cell.resume) {
    // A checkpoint is the memo: the resumed run answers the checkpointed
    // pairs from it, so it hits more often than the uninterrupted run.
    EXPECT_GT(got.valency_cache_hits, reference.valency_cache_hits)
        << "the resumed run's memo was not warm";
  }
  if (cell.reuse && !cell.resume) {
    // The engine's discovery order depends on nothing but the query
    // sequence, so its counts match exactly. A resumed run starts the
    // graph empty and counts only its own passes.
    EXPECT_EQ(got.reach_expanded, reference.reach_expanded);
    EXPECT_EQ(got.reach_graph_nodes, reference.reach_graph_nodes);
    EXPECT_EQ(got.reach_fact_subsumed, reference.reach_fact_subsumed);
  }
  if (cell.reuse) {
    EXPECT_GT(got.reach_expanded, 0u);
    EXPECT_GT(got.reach_reused, 0u);
  } else {
    EXPECT_EQ(got.reach_expanded, 0u);
  }

  if (cell.spill == Spill::kSpilled) {
    EXPECT_GT(obs::MemLedger::global().peak(obs::MemAccount::kArenaSpill), 0u)
        << "the arena never spilled";
    // Backing files are unlinked at creation: nothing may remain.
    EXPECT_TRUE(dir_empty(opts.spill_dir));
  }
  if (cell.spill == Spill::kSpilled && cell.reuse) {
    EXPECT_GT(got.graph_spilled_bytes, 0u) << "the edge arrays never spilled";
  } else {
    EXPECT_EQ(got.graph_spilled_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Ballot, BackendMatrix,
                         ::testing::ValuesIn(all_cells()),
                         [](const auto& info) { return cell_name(info.param); });

}  // namespace
}  // namespace tsb

// Crash-safe campaigns: the checkpoint state-file format, the durable
// commit protocol, the hostile-I/O fault matrix, and resume soundness.
// The contract under test is three-sided:
//
//   * every write failure degrades to util::BudgetExhausted (the CLI's
//     exit-4 path), never a crash or a half-committed checkpoint;
//   * every read/validation failure — corruption, truncation, version or
//     fingerprint drift, a torn manifest — is refused with
//     util::CheckpointInvalid, never resumed from;
//   * a resumed run replays the deterministic adversary over the warm
//     state and produces the IDENTICAL verdict and certificate that the
//     uninterrupted run produces, even after a SIGKILL that lands
//     mid-write (the stop-and-resume cells of test_backend_matrix cover
//     every backend and spill mode).
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "sim/config_arena.hpp"
#include "sim/engine.hpp"
#include "util/checkpoint.hpp"
#include "util/iofault.hpp"
#include "util/require.hpp"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using util::BudgetExhausted;
using util::CheckpointInvalid;
using util::CheckpointStop;
using util::ckpt::CheckpointService;
using util::ckpt::Manifest;
using util::ckpt::SectionReader;
using util::ckpt::SectionWriter;

/// Fresh per-test scratch directory under gtest's temp root.
std::string tdir(const std::string& name) {
  const std::string d = ::testing::TempDir() + "tsb_ckpt_" + name;
  std::error_code ec;
  fs::remove_all(d, ec);
  fs::create_directories(d);
  return d;
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void flip_byte(const std::string& path, std::size_t off) {
  auto bytes = slurp(path);
  ASSERT_LT(off, bytes.size());
  bytes[off] ^= 0x01;
  spit(path, bytes);
}

/// One "data" section holding bytes 0..63. File layout (all offsets fixed
/// by the format): magic+version = 12, section header = 4 + 4 + 12 = 20,
/// payload at 32..95, END sentinel = 16 bytes at 96..111.
constexpr std::size_t kSamplePayloadOff = 32;
constexpr std::size_t kSamplePayloadLen = 64;
constexpr std::size_t kSampleSentinelLen = 16;

void write_sample(const std::string& path) {
  SectionWriter w(path);
  w.begin("data");
  std::uint8_t buf[kSamplePayloadLen];
  for (std::size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] = static_cast<std::uint8_t>(i);
  }
  w.put_bytes(buf, sizeof(buf));
  w.end();
  w.finish();
}

// --- CRC-32 ----------------------------------------------------------------

TEST(Crc32, KnownAnswerAndSeedChaining) {
  // The IEEE 802.3 check value every CRC-32 implementation must reproduce.
  const char* check = "123456789";
  EXPECT_EQ(util::ckpt::crc32(check, 9), 0xCBF43926u);
  // Seed continuation: folding in two halves equals one pass — the writer
  // streams payloads through exactly this property.
  const std::uint32_t half = util::ckpt::crc32(check, 4);
  EXPECT_EQ(util::ckpt::crc32(check + 4, 5, half),
            util::ckpt::crc32(check, 9));
  EXPECT_EQ(util::ckpt::crc32("", 0), 0u);
}

// --- Section file format ---------------------------------------------------

TEST(SectionFile, RoundtripAllPutGetKinds) {
  const std::string path = tdir("roundtrip") + "/state.bin";
  {
    SectionWriter w(path);
    w.begin("numbers");
    w.put_u8(0xAB);
    w.put_u32(0xDEADBEEFu);
    w.put_u64(0x0123456789ABCDEFull);
    w.put_i64(-42);
    w.end();
    w.begin("text");
    w.put_str("covering certificate");
    w.put_str("");  // empty strings roundtrip too
    w.end();
    w.finish();
    EXPECT_GT(w.bytes_written(), 0u);
  }
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file must not survive";
  SectionReader r(path);
  r.expect("numbers");
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  r.done();
  r.expect("text");
  EXPECT_EQ(r.get_str(), "covering certificate");
  EXPECT_EQ(r.get_str(), "");
  r.done();
  r.expect_end();
}

TEST(SectionFile, MissingFileIsRefused) {
  EXPECT_THROW(SectionReader r(tdir("missing") + "/nope.bin"),
               CheckpointInvalid);
}

TEST(SectionFile, CorruptPayloadByteIsRefused) {
  const std::string path = tdir("corrupt") + "/state.bin";
  write_sample(path);
  flip_byte(path, kSamplePayloadOff + kSamplePayloadLen / 2);
  SectionReader r(path);
  EXPECT_THROW(r.expect("data"), CheckpointInvalid);
}

TEST(SectionFile, TruncatedPayloadIsRefused) {
  const std::string path = tdir("trunc") + "/state.bin";
  write_sample(path);
  fs::resize_file(path, kSamplePayloadOff + kSamplePayloadLen / 2);
  SectionReader r(path);
  EXPECT_THROW(r.expect("data"), CheckpointInvalid);
}

TEST(SectionFile, MissingEndSentinelIsRefused) {
  // Truncation exactly at a section boundary: the payload itself reads
  // back clean, so only the END sentinel distinguishes "complete file"
  // from "crashed mid-append". The reader must refuse.
  const std::string path = tdir("sentinel") + "/state.bin";
  write_sample(path);
  fs::resize_file(path, fs::file_size(path) - kSampleSentinelLen);
  SectionReader r(path);
  EXPECT_NO_THROW(r.expect("data"));
  EXPECT_THROW(r.expect_end(), CheckpointInvalid);
}

TEST(SectionFile, WrongMagicIsRefused) {
  const std::string path = tdir("magic") + "/state.bin";
  write_sample(path);
  flip_byte(path, 0);
  EXPECT_THROW(SectionReader r(path), CheckpointInvalid);
}

TEST(SectionFile, WrongFormatVersionIsRefused) {
  const std::string path = tdir("version") + "/state.bin";
  write_sample(path);
  flip_byte(path, 8);  // LSB of the little-endian u32 format version
  EXPECT_THROW(SectionReader r(path), CheckpointInvalid);
}

TEST(SectionFile, WrongSectionNameIsRefused) {
  const std::string path = tdir("name") + "/state.bin";
  write_sample(path);
  SectionReader r(path);
  EXPECT_THROW(r.expect("graph"), CheckpointInvalid);
}

TEST(SectionFile, OverreadAndUnderconsumeAreRefused) {
  const std::string path = tdir("cursor") + "/state.bin";
  write_sample(path);
  {
    // Reading past the payload end must throw, not return garbage.
    SectionReader r(path);
    r.expect("data");
    r.get_bytes(kSamplePayloadLen - 4);
    EXPECT_THROW(r.get_u64(), CheckpointInvalid);
  }
  {
    // Leaving bytes unconsumed is a format drift; done() fails loudly.
    SectionReader r(path);
    r.expect("data");
    r.get_u32();
    EXPECT_THROW(r.done(), CheckpointInvalid);
  }
}

// --- Manifest --------------------------------------------------------------

TEST(Manifest, RoundtripPreservesKeys) {
  const std::string path = tdir("manifest") + "/manifest.tsb";
  Manifest m;
  m.set_u64("format", util::ckpt::kFormatVersion);
  m.set_u64("generation", 7);
  m.set("fingerprint", "proto=ballot n=4 cap=8");
  m.set("why", "interval");
  m.save(path);
  const Manifest back = Manifest::load(path);
  EXPECT_EQ(back.kv, m.kv);
  EXPECT_EQ(back.get_u64("generation"), 7u);
  EXPECT_TRUE(back.has("why"));
  EXPECT_FALSE(back.has("absent"));
  EXPECT_THROW(back.get("absent"), std::exception);
}

TEST(Manifest, CorruptTruncatedAndMissingAreRefused) {
  const std::string dir = tdir("manifest_bad");
  const std::string path = dir + "/manifest.tsb";
  Manifest m;
  m.set_u64("generation", 1);
  m.set("fingerprint", "fp");
  m.save(path);

  EXPECT_THROW(Manifest::load(dir + "/never-written.tsb"), CheckpointInvalid);

  const auto pristine = slurp(path);
  flip_byte(path, pristine.size() / 2);
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);

  spit(path, pristine);
  EXPECT_NO_THROW(Manifest::load(path));  // restored copy is valid again
  fs::resize_file(path, pristine.size() - 4);  // tear off part of the CRC
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);
}

// --- Hostile-I/O fault matrix ----------------------------------------------

class IoFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { util::iofault::disarm(); }
};

TEST(SectionWriterErrors, RenameFailureLeavesNoTmpDebris) {
  // rename() onto an existing directory fails with EISDIR — a stand-in
  // for any commit-time rename failure. The error contract says "no .tmp
  // debris": finish() must unlink the fully written tmp file itself,
  // because by then it has already closed the fd and the destructor's
  // cleanup no longer fires.
  const std::string dir = tdir("rename_fail");
  const std::string path = dir + "/state.bin";
  fs::create_directories(path);  // occupy the final name with a directory
  EXPECT_THROW(write_sample(path), BudgetExhausted);
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be cleaned up";
}

TEST_F(IoFaultTest, EnospcFailsWriterWithBudgetExhausted) {
  const std::string path = tdir("enospc") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW(write_sample(path), BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_FALSE(fs::exists(path)) << "failed write must not commit";
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be cleaned up";
}

TEST_F(IoFaultTest, ShortWriteDeviceFailsWriterWithBudgetExhausted) {
  // The dying-disk model: one legal short write, then nothing. A correct
  // retry loop makes progress once and must then report the device dead
  // instead of spinning.
  const std::string path = tdir("short") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kShortWrite, 1);
  EXPECT_THROW(write_sample(path), BudgetExhausted);
  EXPECT_GE(util::iofault::fired(), 1u);
}

TEST_F(IoFaultTest, EintrIsRetriedToSuccess) {
  // EINTR is transient by contract: it injects once and the retry loop
  // must absorb it with no externally visible effect at all.
  const std::string path = tdir("eintr") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEintr, 2);
  EXPECT_NO_THROW(write_sample(path));
  EXPECT_EQ(util::iofault::fired(), 1u);
  util::iofault::disarm();
  SectionReader r(path);
  r.expect("data");
  EXPECT_EQ(r.get_bytes(1)[0], 0u);
}

TEST_F(IoFaultTest, BitflipIsCaughtByCrc) {
  const std::string path = tdir("bitflip") + "/state.bin";
  write_sample(path);
  // First read loads magic+version; a mid-buffer flip there is refused at
  // construction. A flip landing in the payload is refused by its CRC.
  // Either way: CheckpointInvalid, never silently corrupt state.
  util::iofault::arm(util::iofault::Kind::kBitflip, 1);
  EXPECT_THROW(
      {
        SectionReader r(path);
        r.expect("data");
      },
      CheckpointInvalid);
}

TEST_F(IoFaultTest, TornRenameStateFileIsRefusedOnLoad) {
  // A crash between "tmp written" and "rename durable", modelled as the
  // renamed file carrying only half its bytes: the writer reports success
  // (the crash is AFTER its syscalls), so only read-side validation can
  // refuse the torn file.
  const std::string path = tdir("torn_state") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kTornRename, 1);
  EXPECT_NO_THROW(write_sample(path));
  EXPECT_EQ(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_THROW(
      {
        SectionReader r(path);
        r.expect("data");
        r.expect_end();
      },
      CheckpointInvalid);
}

TEST_F(IoFaultTest, TornRenameManifestIsRefusedOnLoad) {
  const std::string path = tdir("torn_manifest") + "/manifest.tsb";
  Manifest m;
  m.set_u64("generation", 3);
  m.set("fingerprint", "fp");
  util::iofault::arm(util::iofault::Kind::kTornRename, 1);
  EXPECT_NO_THROW(m.save(path));
  util::iofault::disarm();
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);
}

TEST_F(IoFaultTest, SpillWriteFailureIsBudgetExhausted) {
  // The arena spill writer shares the wrapped-syscall layer and the same
  // degradation contract: a dead disk mid-spill is a clean budget failure
  // upstream (exit 4 at the CLI), never an abort or silent RAM overrun.
  sim::ConfigArena arena(4, 4);
  ASSERT_TRUE(arena.set_spill(tdir("spill"), 0, 64));
  const std::size_t w = arena.words_per_config();
  std::vector<sim::Value> words(w);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      words[j] = static_cast<sim::Value>((i * 31 + j * 7) & 0x3F);
    }
    arena.append_words(words.data());
  }
  util::iofault::arm(util::iofault::Kind::kEnospc, 1);
  EXPECT_THROW(arena.maybe_spill(sim::kNoConfig), BudgetExhausted);
}

// --- CheckpointService orchestration ---------------------------------------

class CheckpointServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { CheckpointService::global().reset(); }
  void TearDown() override {
    CheckpointService::global().reset();
    util::iofault::disarm();
  }

  static void set_trivial_writer() {
    CheckpointService::global().set_writer([](SectionWriter& w) {
      w.begin("trivial");
      w.put_u64(0x5EED);
      w.end();
    });
  }
};

TEST_F(CheckpointServiceTest, WorkCadenceCountsParallelAddWork) {
  auto& svc = CheckpointService::global();
  svc.configure(tdir("cadence"), 0, /*every_work=*/100, "fp");
  set_trivial_writer();
  EXPECT_TRUE(svc.enabled());
  // Work reported at quiescent points accumulates across polls: no write
  // until the sum reaches the cadence, then exactly one.
  svc.poll(50);
  EXPECT_EQ(svc.checkpoints_written(), 0u);
  svc.poll(60);
  EXPECT_EQ(svc.checkpoints_written(), 1u);
  const std::uint64_t one_write = svc.bytes_written();
  EXPECT_GT(one_write, 0u);
  EXPECT_GE(svc.seconds_since_last_write(), 0);
  // An explicit write restarts the accumulator: the 50 units polled
  // before it no longer count, so 90 more stay short of the cadence.
  svc.poll(50);
  svc.write_now("interval");
  EXPECT_EQ(svc.checkpoints_written(), 2u);
  svc.poll(90);
  EXPECT_EQ(svc.checkpoints_written(), 2u)
      << "write_now must reset the work accumulator";
  EXPECT_GT(svc.bytes_written(), one_write);
}

TEST_F(CheckpointServiceTest, GenerationsCommitAndCleanUp) {
  const std::string dir = tdir("gens");
  auto& svc = CheckpointService::global();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.write_now("interval");
  svc.write_now("interval");
  // Generation 2 is committed; generation 1's state file is garbage after
  // the commit point and must be gone.
  EXPECT_TRUE(fs::exists(util::ckpt::state_path(dir, 2)));
  EXPECT_FALSE(fs::exists(util::ckpt::state_path(dir, 1)));
  const Manifest m = Manifest::load(util::ckpt::manifest_path(dir));
  EXPECT_EQ(m.get_u64("generation"), 2u);
  EXPECT_EQ(m.get("fingerprint"), "fp");
  EXPECT_EQ(m.get_u64("format"), util::ckpt::kFormatVersion);

  // Reconfiguring over an existing valid checkpoint (the resume path)
  // continues the numbering: the next write must never clobber the state
  // file the manifest still commits to.
  svc.reset();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.write_now("interval");
  EXPECT_TRUE(fs::exists(util::ckpt::state_path(dir, 3)));
  EXPECT_FALSE(fs::exists(util::ckpt::state_path(dir, 2)));
  EXPECT_EQ(Manifest::load(util::ckpt::manifest_path(dir)).get_u64(
                "generation"),
            3u);
}

TEST_F(CheckpointServiceTest, StopAfterPollsWritesFinalCheckpointAndThrows) {
  const std::string dir = tdir("stop");
  auto& svc = CheckpointService::global();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.stop_after_polls(3);
  EXPECT_NO_THROW(svc.poll(1));
  EXPECT_NO_THROW(svc.poll(1));
  EXPECT_THROW(svc.poll(1), CheckpointStop);
  EXPECT_TRUE(svc.stop_requested());
  EXPECT_EQ(svc.checkpoints_written(), 1u);
  EXPECT_TRUE(fs::exists(util::ckpt::manifest_path(dir)));
}

TEST_F(CheckpointServiceTest, StopWithoutDirectoryStillStopsGracefully) {
  // SIGTERM with no --checkpoint-dir: the run still stops at a quiescent
  // point (instead of dying mid-expansion); there is just nothing to
  // persist.
  auto& svc = CheckpointService::global();
  svc.stop_after_polls(1);
  EXPECT_THROW(svc.poll(1), CheckpointStop);
  EXPECT_EQ(svc.checkpoints_written(), 0u);
}

TEST_F(CheckpointServiceTest, SerializerMayPollWithoutDeadlockOrRecursion) {
  // A serializer whose save_state walks engine code that itself contains
  // quiescent-point hooks must hit the in_write_ reentrancy guard, not
  // deadlock on the service mutex or recurse into a nested write. The
  // write runs with the mutex released, so the poll returns immediately.
  auto& svc = CheckpointService::global();
  svc.configure(tdir("reenter"), 0, /*every_work=*/1, "fp");
  svc.set_writer([&svc](SectionWriter& w) {
    w.begin("reenter");
    EXPECT_NO_THROW(svc.poll(1000));  // due by work count, but in_write_
    w.put_u64(1);
    w.end();
  });
  svc.poll(1);  // work cadence of 1: immediately due, triggers the write
  EXPECT_EQ(svc.checkpoints_written(), 1u)
      << "exactly one write: the serializer's own poll must not nest";
}

// --- Oracle state roundtrip ------------------------------------------------

TEST(OracleState, SaveRestoreRoundtripPreservesVerdictsWarm) {
  consensus::BallotConsensus proto(3, 6);
  const sim::Config init = sim::initial_config(proto, {0, 1, 1});
  const sim::ProcSet everyone = sim::ProcSet::first_n(3);

  bound::ValencyOracle a(proto);
  const bool biv = a.bivalent(init, everyone);
  const bool can0 = a.can_decide(init, everyone, 0);
  ASSERT_GT(a.queries(), 0u);

  const std::string path = tdir("oracle") + "/state.bin";
  {
    SectionWriter w(path);
    a.save_state(w);
    w.finish();
  }

  bound::ValencyOracle b(proto);
  {
    SectionReader r(path);
    b.restore_state(r);
    r.expect_end();
  }
  EXPECT_EQ(b.graph_nodes(), a.graph_nodes());
  EXPECT_EQ(b.state_fingerprint(), a.state_fingerprint());
  // The restored memo answers the same queries without a single fresh
  // reachability pass: that warm-ness is what makes resume's replay of the
  // deterministic adversary cheap AND exact.
  EXPECT_EQ(b.bivalent(init, everyone), biv);
  EXPECT_EQ(b.can_decide(init, everyone, 0), can0);
  EXPECT_EQ(b.explorations(), 0u)
      << "restored state missed the memo and re-explored";
}

TEST(OracleState, RestoreIntoWrongShapeIsRefused) {
  consensus::BallotConsensus p3(3, 6);
  consensus::BallotConsensus p4(4, 8);
  bound::ValencyOracle a(p3);
  const sim::Config init = sim::initial_config(p3, {0, 1, 1});
  (void)a.bivalent(init, sim::ProcSet::first_n(3));

  const std::string path = tdir("oracle_shape") + "/state.bin";
  {
    SectionWriter w(path);
    a.save_state(w);
    w.finish();
  }
  bound::ValencyOracle wrong(p4);
  SectionReader r(path);
  EXPECT_THROW(wrong.restore_state(r), CheckpointInvalid);
}

TEST(OracleState, FingerprintCoversVerdictAffectingOptions) {
  consensus::BallotConsensus p3(3, 6);
  consensus::BallotConsensus p4(4, 8);
  bound::ValencyOracle base(p3);
  bound::ValencyOracle other_shape(p4);
  bound::ValencyOracle no_reuse(p3, {.reuse = false});
  EXPECT_NE(base.state_fingerprint(), other_shape.state_fingerprint());
  EXPECT_NE(base.state_fingerprint(), no_reuse.state_fingerprint());
}

// --- Adversary-level resume ------------------------------------------------

bound::SpaceBoundAdversary::Result run_adversary(
    int n, int cap, const std::string& checkpoint_dir, bool resume,
    std::uint64_t checkpoint_every, bool reuse = true) {
  consensus::BallotConsensus proto(n, cap);
  bound::SpaceBoundAdversary::Options opts;
  opts.reuse = reuse;
  opts.checkpoint_dir = checkpoint_dir;
  opts.checkpoint_every = checkpoint_every;
  opts.resume = resume;
  bound::SpaceBoundAdversary adversary(proto, opts);
  return adversary.run();
}

void expect_same_certificate(const bound::SpaceBoundAdversary::Result& a,
                             const bound::SpaceBoundAdversary::Result& b) {
  EXPECT_EQ(a.certificate.protocol, b.certificate.protocol);
  EXPECT_EQ(a.certificate.inputs, b.certificate.inputs);
  EXPECT_EQ(a.certificate.schedule.steps(), b.certificate.schedule.steps());
  EXPECT_EQ(a.certificate.covering, b.certificate.covering);
  EXPECT_EQ(a.check.distinct_registers, b.check.distinct_registers);
  EXPECT_EQ(a.check.registers, b.check.registers);
}

/// Run n=3 with a tight work cadence to completion, leaving a committed
/// checkpoint behind for the refusal tests to mutilate.
std::string make_completed_checkpoint(const std::string& tag) {
  const std::string dir = tdir(tag);
  CheckpointService::global().reset();
  const auto result = run_adversary(3, 6, dir, false, /*every=*/100);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(fs::exists(util::ckpt::manifest_path(dir)))
      << "cadence never fired on the n=3 run";
  CheckpointService::global().reset();
  return dir;
}

class AdversaryResumeTest : public ::testing::Test {
 protected:
  void SetUp() override { CheckpointService::global().reset(); }
  void TearDown() override { CheckpointService::global().reset(); }
};

TEST_F(AdversaryResumeTest, ResumeWithoutDirectoryIsRefused) {
  EXPECT_THROW(run_adversary(3, 6, "", /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, ResumeFromEmptyDirectoryIsRefused) {
  EXPECT_THROW(run_adversary(3, 6, tdir("empty"), /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, FingerprintMismatchIsRefused) {
  const std::string dir = make_completed_checkpoint("fp_mismatch");
  // Wrong process count: resuming would silently change the campaign.
  EXPECT_THROW(run_adversary(4, 8, dir, /*resume=*/true, 0),
               CheckpointInvalid);
  CheckpointService::global().reset();
  // Wrong engine flag (reuse off): same refusal, the state layout and the
  // verdict provenance both differ.
  EXPECT_THROW(
      run_adversary(3, 6, dir, /*resume=*/true, 0, /*reuse=*/false),
      CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, FutureFormatVersionIsRefused) {
  const std::string dir = make_completed_checkpoint("format_drift");
  const std::string mpath = util::ckpt::manifest_path(dir);
  Manifest m = Manifest::load(mpath);
  m.set_u64("format", util::ckpt::kFormatVersion + 1);
  m.save(mpath);
  EXPECT_THROW(run_adversary(3, 6, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, CorruptStateFileIsRefused) {
  const std::string dir = make_completed_checkpoint("state_rot");
  const Manifest m = Manifest::load(util::ckpt::manifest_path(dir));
  const std::string spath = dir + "/" + m.get("state");
  ASSERT_TRUE(fs::exists(spath));
  flip_byte(spath, fs::file_size(spath) / 2);
  EXPECT_THROW(run_adversary(3, 6, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, TornManifestIsRefused) {
  const std::string dir = make_completed_checkpoint("manifest_tear");
  const std::string mpath = util::ckpt::manifest_path(dir);
  fs::resize_file(mpath, fs::file_size(mpath) - 4);
  EXPECT_THROW(run_adversary(3, 6, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

// --- Crash recovery (SIGKILL, no unwinding at all) -------------------------

TEST_F(AdversaryResumeTest, SigkillMidRunResumesToIdenticalCertificate) {
  // n = 5 runs long enough (seconds) that SIGKILL reliably lands while the
  // child is still exploring — a genuine mid-campaign crash, not a kill of
  // an already-finished process.
  const std::string dir = tdir("sigkill");
  const auto baseline = run_adversary(5, 15, "", false, 0);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  const pid_t pid = ::fork();
  ASSERT_NE(pid, -1) << std::strerror(errno);
  if (pid == 0) {
    // Child: checkpoint on a tight cadence until SIGKILL lands. No gtest
    // machinery here — a killed child must not run parent teardown.
    CheckpointService::global().reset();
    (void)run_adversary(5, 15, dir, false, /*every=*/20000);
    ::_exit(0);
  }
  // Parent: wait for the first committed manifest, then kill without any
  // warning — the hardest crash there is. Whatever instant the kill lands
  // (mid-serialize, mid-rename, between generations), the directory must
  // hold a complete committed checkpoint.
  const std::string manifest = util::ckpt::manifest_path(dir);
  for (int i = 0; i < 20000 && ::access(manifest.c_str(), F_OK) != 0; ++i) {
    ::usleep(1000);
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_EQ(::access(manifest.c_str(), F_OK), 0)
      << "child never committed a checkpoint";

  CheckpointService::global().reset();
  const auto resumed = run_adversary(5, 15, dir, true, 0);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.check.ok) << resumed.check.error;
  expect_same_certificate(baseline, resumed);
  EXPECT_EQ(resumed.reach_expanded, baseline.reach_expanded);
}

}  // namespace
}  // namespace tsb

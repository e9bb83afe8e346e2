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

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "consensus/racing.hpp"
#include "obs/obs.hpp"
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

/// The bytewise definition crc32 must agree with: one table lookup per
/// byte, table built at run time here so it shares nothing with the
/// implementation's compile-time slicing tables.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t len,
                             std::uint32_t seed = 0) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> crc_input(std::size_t len) {
  std::vector<std::uint8_t> b(len);
  std::uint32_t x = 0x9E3779B9u;
  for (auto& byte : b) {
    x = x * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(x >> 24);
  }
  return b;
}

TEST(Crc32, SlicingBy8MatchesBytewiseAtEveryLengthAndOffset) {
  // Every length 0..300 from every start offset 0..7: covers the 8-byte
  // main loop, every tail length, and unaligned loads.
  const std::vector<std::uint8_t> buf = crc_input(300 + 8);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(util::ckpt::crc32(buf.data() + off, len),
                crc32_bytewise(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32, ContinuationAtEverySplitPoint) {
  // crc32(b, crc32(a)) == crc32(a || b) wherever the writer's puts happen
  // to split a section payload.
  const std::vector<std::uint8_t> buf = crc_input(300);
  const std::uint32_t whole = util::ckpt::crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, crc32_bytewise(buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const std::uint32_t a = util::ckpt::crc32(buf.data(), split);
    ASSERT_EQ(util::ckpt::crc32(buf.data() + split, buf.size() - split, a),
              whole)
        << "split " << split;
  }
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

TEST(SectionFile, HostileSectionLengthIsRefusedBeforeAllocating) {
  // A hand-made 33-byte file: magic + version, then a "graph" section
  // header whose u64 length claims far more than the file holds. The
  // claim must be refused as corruption, not allocated: 2^62 would throw
  // std::bad_alloc, and a few GiB would zero-fill that much RAM before the
  // short read noticed.
  for (const std::uint64_t claim :
       {std::uint64_t{1} << 62, std::uint64_t{3} << 30, std::uint64_t{1}}) {
    std::vector<std::uint8_t> bytes = {'T', 'S', 'B', 'C',
                                       'K', 'P', 'T', '\n'};
    const auto put_le = [&](std::uint64_t v, int n) {
      for (int i = 0; i < n; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    };
    put_le(util::ckpt::kFormatVersion, 4);
    put_le(5, 4);
    bytes.insert(bytes.end(), {'g', 'r', 'a', 'p', 'h'});
    put_le(claim, 8);
    put_le(0, 4);  // CRC
    ASSERT_EQ(bytes.size(), 33u);
    const std::string path = tdir("hostile_len") + "/state.bin";
    spit(path, bytes);
    SectionReader r(path);
    try {
      r.expect("graph");
      FAIL() << "a " << claim << "-byte claim in a 33-byte file was accepted";
    } catch (const CheckpointInvalid& e) {
      EXPECT_NE(std::string(e.what()).find("truncated section payload"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(SectionFile, PutLargerThanTheWriteBufferRoundTrips) {
  // A single put bigger than the writer's 1 MiB buffer bypasses it after a
  // flush; small puts on either side must land in order around it.
  const std::string path = tdir("big_put") + "/state.bin";
  const std::vector<std::uint8_t> big = crc_input((3u << 20) + 5);
  {
    SectionWriter w(path);
    w.begin("big");
    w.put_u32(0xA1B2C3D4u);
    w.put_bytes(big.data(), big.size());
    w.put_u64(0x0102030405060708ull);
    w.end();
    w.finish();
  }
  SectionReader r(path);
  r.expect("big");
  EXPECT_EQ(r.get_u32(), 0xA1B2C3D4u);
  const std::uint8_t* got = r.get_bytes(big.size());
  EXPECT_TRUE(std::equal(big.begin(), big.end(), got));
  EXPECT_EQ(r.get_u64(), 0x0102030405060708ull);
  r.done();
  r.expect_end();
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
  m.generation = 7;
  m.fingerprint = "proto=ballot n=4 cap=8";
  m.why = "interval";
  m.checkpoints = 3;
  m.telemetry_ticks = 41;
  m.save(path);
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp file must not survive";
  const Manifest back = Manifest::load(path);
  EXPECT_EQ(back.generation, 7u);
  EXPECT_EQ(back.fingerprint, m.fingerprint);
  EXPECT_EQ(back.why, "interval");
  EXPECT_EQ(back.checkpoints, 3u);
  EXPECT_EQ(back.telemetry_ticks, 41u);
  // The manifest is a section file: the section reader opens it.
  SectionReader r(path);
  r.expect("manifest");
}

TEST(Manifest, CorruptTruncatedAndMissingAreRefused) {
  const std::string dir = tdir("manifest_bad");
  const std::string path = dir + "/manifest.tsb";
  Manifest m;
  m.generation = 1;
  m.fingerprint = "fp";
  m.save(path);

  EXPECT_THROW(Manifest::load(dir + "/never-written.tsb"), CheckpointInvalid);

  const auto pristine = slurp(path);
  flip_byte(path, pristine.size() / 2);
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);

  spit(path, pristine);
  EXPECT_NO_THROW(Manifest::load(path));  // restored copy is valid again
  fs::resize_file(path, pristine.size() - 4);  // tear off the END sentinel
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

// The buffered writer's syscalls for write_sample(), in order: the end()
// flush (write 1), the end() backpatch (pwrite 2), and the finish() flush
// of the END sentinel (write 3). The constructor and the puts only buffer.

TEST_F(IoFaultTest, EnospcOnSectionBackpatchLeavesNoTmp) {
  const std::string path = tdir("enospc_backpatch") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEnospc, 2);
  try {
    write_sample(path);
    FAIL() << "a failed backpatch was not reported";
  } catch (const BudgetExhausted& e) {
    EXPECT_NE(std::string(e.what()).find("backpatch"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(util::iofault::fired(), 1u);
  util::iofault::disarm();
  EXPECT_FALSE(fs::exists(path)) << "failed write must not commit";
  EXPECT_FALSE(fs::exists(path + ".tmp")) << "tmp must be cleaned up";
}

TEST_F(IoFaultTest, EnospcOnFinishFlushLeavesNoTmp) {
  const std::string path = tdir("enospc_finish") + "/state.bin";
  util::iofault::arm(util::iofault::Kind::kEnospc, 3);
  try {
    write_sample(path);
    FAIL() << "a failed final flush was not reported";
  } catch (const BudgetExhausted& e) {
    EXPECT_NE(std::string(e.what()).find(": write " + path + ".tmp"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(util::iofault::fired(), 1u);
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
  m.generation = 3;
  m.fingerprint = "fp";
  util::iofault::arm(util::iofault::Kind::kTornRename, 1);
  EXPECT_NO_THROW(m.save(path));
  util::iofault::disarm();
  EXPECT_THROW(Manifest::load(path), CheckpointInvalid);
}

TEST_F(IoFaultTest, SpillWriteFailureIsBudgetExhausted) {
  // The arena spill writer shares the wrapped-syscall layer and the same
  // degradation contract: a dead disk mid-spill is a clean budget failure
  // upstream (exit 4 at the CLI), never an abort or silent RAM overrun.
  sim::ConfigArena arena(4, 4, "test");
  ASSERT_TRUE(arena.set_spill(tdir("spill"), 0, 64));
  const std::size_t w = arena.row_codes();
  std::vector<sim::Code> row(w);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    for (std::size_t j = 0; j < w; ++j) {
      row[j] = static_cast<sim::Code>((i * 31 + j * 7) & 0x3F);
    }
    arena.append_codes(row.data());
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
  EXPECT_EQ(m.generation, 2u);
  EXPECT_EQ(m.fingerprint, "fp");
  EXPECT_EQ(m.checkpoints, 2u);

  // Reconfiguring over an existing valid checkpoint (the resume path)
  // continues the numbering: the next write must never clobber the state
  // file the manifest still commits to.
  svc.reset();
  svc.configure(dir, 0, 0, "fp");
  set_trivial_writer();
  svc.write_now("interval");
  EXPECT_TRUE(fs::exists(util::ckpt::state_path(dir, 3)));
  EXPECT_FALSE(fs::exists(util::ckpt::state_path(dir, 2)));
  EXPECT_EQ(Manifest::load(util::ckpt::manifest_path(dir)).generation, 3u);
}

TEST_F(CheckpointServiceTest, WriteRecordCarriesEachSectionsPayloadBytes) {
  // The ckpt.write record names every section the serializer wrote, in
  // order, with its payload bytes; the headers, magic and END sentinel
  // make up the rest of the state file.
  const std::string dir = tdir("section_bytes");
  const std::string stats =
      ::testing::TempDir() + "tsb_ckpt_section_bytes.jsonl";
  ASSERT_TRUE(obs::stats_sink().open(stats));
  auto& svc = CheckpointService::global();
  svc.configure(dir, 0, 0, "fp");
  svc.set_writer([](SectionWriter& w) {
    w.begin("oracle");
    w.put_u8(1);
    w.put_u8(0);
    w.end();
    w.begin("memo");
    w.put_u64(7);
    w.put_str("abc");
    w.end();
  });
  svc.write_now("interval");
  obs::stats_sink().close();
  std::ifstream in(stats);
  std::string record;
  for (std::string line; std::getline(in, line);) {
    if (line.find(R"("type":"ckpt.write")") != std::string::npos) record = line;
  }
  EXPECT_NE(record.find(R"("section_bytes":{"oracle":2,"memo":15})"),
            std::string::npos)
      << record;
  const std::uint64_t headers = (4 + 6 + 12) + (4 + 4 + 12);
  EXPECT_EQ(svc.bytes_written(), 12 + headers + 2 + 15 + 16);
  EXPECT_EQ(fs::file_size(util::ckpt::state_path(dir, 1)),
            svc.bytes_written());
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
  EXPECT_EQ(b.memo_entries(), a.memo_entries());
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

/// `oracle`'s sections alone in a checkpoint file; returns its path.
std::string save_oracle(const bound::ValencyOracle& oracle,
                        const std::string& tag) {
  const std::string path = tdir(tag) + "/state.bin";
  SectionWriter w(path);
  oracle.save_state(w);
  w.finish();
  return path;
}

TEST(OracleState, SaveRestoreSaveIsByteIdentical) {
  // The memo goes out in (root, P) order, and restore interns the roots
  // in that order, so a restored oracle saves the bytes it was restored
  // from: on both backends, and on the symmetric quotient too.
  consensus::BallotConsensus ballot(3, 6);
  consensus::RacingConsensus racing(
      3, consensus::RacingConsensus::AdoptRule::kAtLeast);
  ASSERT_TRUE(racing.symmetric());
  for (const sim::Protocol* proto :
       {static_cast<const sim::Protocol*>(&ballot),
        static_cast<const sim::Protocol*>(&racing)}) {
    for (const bool reuse : {true, false}) {
      SCOPED_TRACE(proto->name() + (reuse ? " reuse" : " no-reuse"));
      const std::string tag =
          proto->name().substr(0, 6) + (reuse ? "_reuse" : "_fresh");
      bound::ValencyOracle a(*proto, {.reuse = reuse});
      const sim::Config init = sim::initial_config(*proto, {0, 1, 1});
      (void)a.bivalent(init, sim::ProcSet::first_n(3));
      (void)a.can_decide(init, sim::ProcSet::single(0).with(2), 1);
      (void)a.can_decide(init, sim::ProcSet::single(1), 0);
      ASSERT_GE(a.memo_entries(), 3u);
      const std::string first = save_oracle(a, tag + "_first");
      bound::ValencyOracle b(*proto, {.reuse = reuse});
      SectionReader r(first);
      b.restore_state(r);
      r.expect_end();
      EXPECT_EQ(b.memo_entries(), a.memo_entries());
      EXPECT_TRUE(slurp(save_oracle(b, tag + "_second")) == slurp(first));
    }
  }
}

TEST(OracleState, SymmetricEntriesRekeyIntoTheirCanonicalFrame) {
  // On a symmetric protocol a query and its renaming share one memo entry,
  // stored in the canonical frame. The restored entry must land in that
  // frame again: the renamed query hits it, and the witness it hands back,
  // translated into the caller's process ids, replays from the caller's
  // own configuration.
  consensus::RacingConsensus proto(
      3, consensus::RacingConsensus::AdoptRule::kAtLeast);
  const sim::Config c = sim::initial_config(proto, {0, 1, 1});
  const sim::Config swapped = sim::initial_config(proto, {1, 0, 1});
  const sim::ProcSet p = sim::ProcSet::single(0).with(2);
  const sim::ProcSet q = sim::ProcSet::single(1).with(2);  // p renamed

  bound::ValencyOracle a(proto);
  const bool biv = a.bivalent(c, p);
  ASSERT_EQ(a.explorations(), 1u);
  ASSERT_EQ(a.bivalent(swapped, q), biv);
  ASSERT_EQ(a.explorations(), 1u) << "the renaming missed the memo";
  bound::ValencyOracle b(proto);
  SectionReader r(save_oracle(a, "sym_rekey"));
  b.restore_state(r);
  EXPECT_EQ(b.memo_entries(), 1u);
  for (const auto& [root, procs] : {std::pair{c, p}, std::pair{swapped, q}}) {
    for (const sim::Value v : {0, 1}) {
      const auto w = b.deciding_schedule(root, procs, v);
      EXPECT_EQ(w.has_value(), a.can_decide(root, procs, v));
      if (!w) continue;
      for (const sim::ProcId step : w->steps()) {
        EXPECT_TRUE(procs.contains(step));
      }
      EXPECT_TRUE(sim::some_decided(proto, sim::run(proto, root, *w), v));
    }
  }
  EXPECT_EQ(b.explorations(), 0u) << "a restored entry was re-keyed wrongly";
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
  // The version word follows the 8-byte magic in the manifest's header.
  const std::string mpath = util::ckpt::manifest_path(dir);
  auto bytes = slurp(mpath);
  ASSERT_EQ(bytes[8], util::ckpt::kFormatVersion);
  bytes[8] = static_cast<std::uint8_t>(util::ckpt::kFormatVersion + 1);
  spit(mpath, bytes);
  EXPECT_THROW(run_adversary(3, 6, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

/// A completed checkpoint directory relabelled as format `version`, whose
/// version word is refused (the CLI's exit 6) whichever file carries it:
/// its sections are never decoded in this build's layout.
void expect_older_format_refused(const std::string& tag,
                                 std::uint8_t version) {
  const std::string dir = make_completed_checkpoint(tag);
  const std::string mpath = util::ckpt::manifest_path(dir);
  const std::string spath = util::ckpt::state_path(
      dir, Manifest::load(mpath).generation);
  for (const std::string& path : {spath, mpath}) {
    auto bytes = slurp(path);
    ASSERT_EQ(bytes[8], util::ckpt::kFormatVersion);
    bytes[8] = version;
    spit(path, bytes);
    EXPECT_THROW(run_adversary(3, 6, dir, /*resume=*/true, 0),
                 CheckpointInvalid)
        << path;
    CheckpointService::global().reset();
  }
}

TEST_F(AdversaryResumeTest, FormatTwoCheckpointIsRefused) {
  // Format 2 stored configuration words as raw int64 values.
  expect_older_format_refused("format_two", 2);
}

TEST_F(AdversaryResumeTest, FormatThreeCheckpointIsRefused) {
  // Format 3 stored code rows, successor rows and renamings raw; format 4
  // stores them as delta groups.
  expect_older_format_refused("format_three", 3);
}

TEST_F(AdversaryResumeTest, FormatFourCheckpointIsRefused) {
  // Format 4 stored each node's decide flags and the raw fact map in the
  // graph section; format 5 stores neither.
  expect_older_format_refused("format_four", 4);
}

TEST_F(AdversaryResumeTest, FormatFiveCheckpointIsRefused) {
  // Format 5 opened each delta record with a changed-word count and gave
  // each changed word a varint index; format 6 names them with a bitmask.
  expect_older_format_refused("format_five", 5);
}

TEST_F(AdversaryResumeTest, FormatSixCheckpointIsRefused) {
  // Format 6 stored every register word's code in each arena row; format 7
  // stores one register-vector code per row and the vector dictionary.
  expect_older_format_refused("format_six", 6);
}

TEST_F(AdversaryResumeTest, FormatSevenCheckpointIsRefused) {
  // Format 7 stored the reach graph and the root arena next to the memo;
  // format 8 stores the memo alone, each root as plain words.
  expect_older_format_refused("format_seven", 7);
}

TEST_F(AdversaryResumeTest, SymmetricRacingResumesToTheStraightCertificate) {
  // The symmetric quotient stores memo entries in the canonical frame of
  // their projected root. A run stopped after a few checkpoint polls and
  // resumed re-keys every entry through the engine's canonicalization,
  // and must then rebuild the straight run's construction exactly.
  for (const int n : {3, 4}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    consensus::RacingConsensus proto(
        n, consensus::RacingConsensus::AdoptRule::kAtLeast);
    ASSERT_TRUE(proto.symmetric());
    const auto straight = bound::SpaceBoundAdversary(proto).run();
    ASSERT_TRUE(straight.ok) << straight.error;
    CheckpointService::global().reset();

    bound::SpaceBoundAdversary::Options opts;
    opts.checkpoint_dir = tdir("racing_" + std::to_string(n));
    CheckpointService::global().stop_after_polls(4);
    const auto stopped = bound::SpaceBoundAdversary(proto, opts).run();
    ASSERT_TRUE(stopped.stopped) << "the hook did not interrupt the run";
    CheckpointService::global().reset();

    opts.resume = true;
    const auto resumed = bound::SpaceBoundAdversary(proto, opts).run();
    ASSERT_TRUE(resumed.ok) << resumed.error;
    EXPECT_TRUE(resumed.check.ok) << resumed.check.error;
    expect_same_certificate(straight, resumed);
    EXPECT_EQ(resumed.valency_queries, straight.valency_queries);
    EXPECT_GT(resumed.valency_cache_hits, straight.valency_cache_hits)
        << "the resumed run's memo was not warm";
    CheckpointService::global().reset();
  }
}

TEST_F(AdversaryResumeTest, ResidentCheckpointResumesSpilled) {
  // No saved byte depends on where records lived, so the spill plan is
  // not part of the fingerprint: a resident n = 5 checkpoint resumes with
  // the campaign's out-of-core plan and reaches the same certificate.
  const std::string dir = tdir("resident_to_spilled");
  const auto straight = run_adversary(5, 15, dir, false, /*every=*/100000);
  ASSERT_TRUE(straight.ok) << straight.error;
  CheckpointService::global().reset();

  consensus::BallotConsensus proto(5, 15);
  bound::SpaceBoundAdversary::Options opts;
  opts.checkpoint_dir = dir;
  opts.resume = true;
  opts.spill_dir = tdir("resident_to_spilled_spill");
  opts.spill_threshold_bytes = 1 << 20;
  opts.spill_seg_configs = 512;
  const auto resumed = bound::SpaceBoundAdversary(proto, opts).run();
  ASSERT_TRUE(resumed.ok) << resumed.error;
  EXPECT_TRUE(resumed.check.ok) << resumed.check.error;
  expect_same_certificate(straight, resumed);
}

TEST_F(AdversaryResumeTest, CorruptStateFileIsRefused) {
  const std::string dir = make_completed_checkpoint("state_rot");
  const std::string spath = util::ckpt::state_path(
      dir, Manifest::load(util::ckpt::manifest_path(dir)).generation);
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

TEST_F(AdversaryResumeTest, TextManifestOfFormatOneIsRefused) {
  // A directory written before the manifest became a section file: the
  // key=value text it held names a state file that is still there, but the
  // reader refuses the text by its magic instead of guessing.
  const std::string dir = make_completed_checkpoint("text_manifest");
  const std::string mpath = util::ckpt::manifest_path(dir);
  const Manifest m = Manifest::load(mpath);
  std::ofstream(mpath, std::ios::trunc)
      << "fingerprint=" << m.fingerprint << "\nformat=1\ngeneration="
      << m.generation << "\nstate=state-" << m.generation
      << ".bin\ncrc=00000000\n";
  EXPECT_THROW(run_adversary(3, 6, dir, /*resume=*/true, 0),
               CheckpointInvalid);
}

TEST_F(AdversaryResumeTest, WallClockCadenceCheckpointsAndResumes) {
  // --checkpoint-interval-ms alone, as campaigns run it: a 1 ms cadence
  // must write during an n=4 run, every tick must carry the cadence, and
  // the last committed checkpoint must resume to the same certificate.
  const auto baseline = run_adversary(4, 8, "", false, 0);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  CheckpointService::global().reset();

  const std::string dir = tdir("wall_clock");
  const std::string stats = ::testing::TempDir() + "tsb_ckpt_wall_clock.jsonl";
  ASSERT_TRUE(obs::stats_sink().open(stats));
  obs::telemetry::reset();
  const auto saved = obs::progress_interval();
  obs::set_progress_interval(std::chrono::milliseconds(1));
  consensus::BallotConsensus proto(4, 8);
  bound::SpaceBoundAdversary::Options opts;
  opts.checkpoint_dir = dir;
  opts.checkpoint_interval_ms = 1;
  opts.checkpoint_every = 0;
  const auto timed = bound::SpaceBoundAdversary(proto, opts).run();
  obs::Sample last;  // the CLI's terminal tick
  last.phase = "done";
  obs::telemetry::tick(last);
  obs::set_progress_interval(saved);
  obs::stats_sink().close();
  ASSERT_TRUE(timed.ok) << timed.error;

  int writes = 0;
  int ticks = 0;
  std::ifstream in(stats);
  for (std::string line; std::getline(in, line);) {
    if (line.find(R"("type":"ckpt.write")") != std::string::npos) {
      ++writes;
      EXPECT_NE(line.find(R"("why":"interval")"), std::string::npos) << line;
    }
    if (line.find(R"("type":"telemetry.tick")") != std::string::npos) {
      ++ticks;
      EXPECT_NE(line.find(R"("ckpt_interval_ms":1,)"), std::string::npos)
          << line;
    }
  }
  EXPECT_GE(writes, 1);
  EXPECT_GE(ticks, 1);
  CheckpointService::global().reset();

  const auto resumed = run_adversary(4, 8, dir, true, 0);
  ASSERT_TRUE(resumed.ok) << resumed.error;
  expect_same_certificate(baseline, resumed);
}

TEST_F(AdversaryResumeTest, StatsStreamLeavesTheStateFileAsItIs) {
  // The decision trail names configurations no valency query asked about
  // (an n = 4 run's covering.pre_escape configuration is one): labelling
  // them must not add rows to the checkpointed root arena, so the same
  // cadence writes the same state file byte for byte with the stream on.
  const auto state_file = [](const std::string& dir) {
    return slurp(util::ckpt::state_path(
        dir, Manifest::load(util::ckpt::manifest_path(dir)).generation));
  };
  const std::string plain = tdir("stats_off");
  ASSERT_TRUE(run_adversary(4, 8, plain, false, /*every=*/2000).ok);
  CheckpointService::global().reset();

  const std::string traced = tdir("stats_on");
  const std::string stats = ::testing::TempDir() + "tsb_ckpt_stats_on.jsonl";
  ASSERT_TRUE(obs::stats_sink().open(stats));
  const auto with_stats = run_adversary(4, 8, traced, false, 2000);
  obs::stats_sink().close();
  ASSERT_TRUE(with_stats.ok) << with_stats.error;
  std::ifstream in(stats);
  const std::string records((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_NE(records.find(R"("type":"covering.pre_escape")"),
            std::string::npos);

  const auto off = state_file(plain);
  EXPECT_GT(off.size(), 0u);
  EXPECT_TRUE(off == state_file(traced));
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
  // The resumed run answers the checkpointed pairs from its memo and
  // re-expands only what the in-flight and later passes walk.
  EXPECT_EQ(resumed.valency_queries, baseline.valency_queries);
  EXPECT_GT(resumed.valency_cache_hits, baseline.valency_cache_hits);
}

}  // namespace
}  // namespace tsb

// Seeded mutation test for the checkpoint decoders: Manifest::load,
// SectionReader, and every state section's restore path (the oracle, roots
// and memo sections of ValencyOracle::restore_state, and the ReachGraph
// section it carries, down to the arenas' value dictionaries and code
// rows), all reached through CheckpointService::resume the way
// `tsb resume` reaches them. The corpus is the committed checkpoint of
// an adversary n=4 run: its manifest.tsb and its state file.
//
//   * With the CRCs left stale, every byte flip or truncation must be
//     refused with util::CheckpointInvalid.
//   * With each mutated section's CRC recomputed, the framing stays valid
//     and the mutation reaches the section decoders: every mutant must be
//     refused with util::CheckpointInvalid or restore cleanly — never a
//     crash, a hang, std::bad_alloc or undefined behaviour (the ASan+UBSan
//     build runs this with the rest of ctest).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bound/adversary.hpp"
#include "bound/valency.hpp"
#include "consensus/ballot.hpp"
#include "util/checkpoint.hpp"
#include "util/require.hpp"

namespace tsb {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;
using util::CheckpointInvalid;
using util::ckpt::CheckpointService;

constexpr std::uint64_t kSeed = 0x5eed2016;
constexpr int kMutantsPerSection = 200;
constexpr int kN = 4;
constexpr int kCap = 8;

/// A directory of this test's own: ctest runs each test as its own
/// process, in parallel.
std::string scratch_dir(const std::string& stem) {
  const std::string dir =
      ::testing::TempDir() + "tsb_ckpt_" + stem + "_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Bytes slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t rd_le(const Bytes& b, std::size_t at, int len) {
  std::uint64_t v = 0;
  for (int i = len - 1; i >= 0; --i) v = (v << 8) | b.at(at + i);
  return v;
}

/// One section of a checkpoint file: the payload's offset and length (its
/// CRC is the 4 bytes before the payload).
struct Section {
  std::string name;
  std::size_t payload = 0;
  std::size_t len = 0;
};

/// Walk a pristine file's section framing (12-byte header, then u32 name
/// length, name, u64 payload length, u32 CRC, payload), END excluded.
std::vector<Section> sections(const Bytes& b) {
  std::vector<Section> out;
  std::size_t at = 12;
  for (;;) {
    const std::size_t name_len = rd_le(b, at, 4);
    if (name_len == 0) return out;
    Section s;
    s.name.assign(b.begin() + at + 4, b.begin() + at + 4 + name_len);
    at += 4 + name_len;
    s.len = rd_le(b, at, 8);
    s.payload = at + 12;
    out.push_back(s);
    at = s.payload + s.len;
  }
}

void fix_crc(Bytes& b, const Section& s) {
  const std::uint32_t crc = util::ckpt::crc32(b.data() + s.payload, s.len);
  for (int i = 0; i < 4; ++i) {
    b[s.payload - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// The committed checkpoint of `tsb adversary 4 --checkpoint-every=2000`.
struct Corpus {
  std::string fingerprint;
  std::string state_name;
  Bytes manifest;
  Bytes state;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    const std::string dir = scratch_dir("mutation_corpus");
    CheckpointService::global().reset();
    consensus::BallotConsensus proto(kN, kCap);
    bound::SpaceBoundAdversary::Options opts;
    opts.checkpoint_dir = dir;
    opts.checkpoint_every = 2000;
    EXPECT_TRUE(bound::SpaceBoundAdversary(proto, opts).run().ok);
    CheckpointService::global().reset();
    Corpus out;
    out.fingerprint = bound::ValencyOracle(proto).state_fingerprint();
    out.manifest = slurp(util::ckpt::manifest_path(dir));
    const std::uint64_t gen =
        util::ckpt::Manifest::load(util::ckpt::manifest_path(dir)).generation;
    out.state_name = fs::path(util::ckpt::state_path(dir, gen)).filename();
    out.state = slurp(util::ckpt::state_path(dir, gen));
    return out;
  }();
  return c;
}

/// Write a (possibly mutated) manifest and state file into a fresh
/// directory and resume a fresh n=4 oracle from it. True when the state
/// restored, false when the checkpoint was refused; anything else escapes.
bool resume_from(const Bytes& manifest, const Bytes& state) {
  const Corpus& c = corpus();
  const std::string dir = scratch_dir("mutant");
  spit(dir + "/" + util::ckpt::kManifestName, manifest);
  spit(dir + "/" + c.state_name, state);
  CheckpointService& svc = CheckpointService::global();
  svc.reset();
  svc.configure(dir, 0, 0, c.fingerprint);
  consensus::BallotConsensus proto(kN, kCap);
  bound::ValencyOracle oracle(proto);
  bool restored = true;
  try {
    svc.resume(
        [&oracle](util::ckpt::SectionReader& r) { oracle.restore_state(r); });
  } catch (const CheckpointInvalid&) {
    restored = false;
  }
  svc.reset();
  return restored;
}

/// Every mutable section of the corpus, tagged with its file.
struct Target {
  bool in_manifest;
  Section sec;
};

std::vector<Target> targets() {
  std::vector<Target> out;
  for (const Section& s : sections(corpus().manifest)) out.push_back({true, s});
  for (const Section& s : sections(corpus().state)) out.push_back({false, s});
  return out;
}

TEST(CheckpointMutation, CorpusResumesAndCoversEverySection) {
  ASSERT_TRUE(resume_from(corpus().manifest, corpus().state));
  std::vector<std::string> names;
  for (const Target& t : targets()) names.push_back(t.sec.name);
  EXPECT_EQ(names, (std::vector<std::string>{"manifest", "oracle", "roots",
                                             "memo", "graph"}));
}

TEST(CheckpointMutation, StaleCrcMutantsAreAllRefused) {
  std::mt19937_64 rng(kSeed);
  const auto byte = [&] { return static_cast<std::uint8_t>(1 + rng() % 255); };
  for (const bool in_manifest : {true, false}) {
    const Bytes& pristine = in_manifest ? corpus().manifest : corpus().state;
    for (int i = 0; i < 4 * kMutantsPerSection; ++i) {
      Bytes m = pristine;
      std::size_t at = rng() % m.size();
      if (i % 4 == 3) {
        m.resize(at);  // a torn file
      } else {
        m[at] ^= byte();
      }
      SCOPED_TRACE((in_manifest ? "manifest" : "state") + std::string(" ") +
                   (i % 4 == 3 ? "truncated to " : "byte ") +
                   std::to_string(at));
      EXPECT_FALSE(in_manifest ? resume_from(m, corpus().state)
                               : resume_from(corpus().manifest, m));
    }
  }
}

TEST(CheckpointMutation, CrcValidMutantsAreRefusedOrRestoreCleanly) {
  std::mt19937_64 rng(kSeed + 1);
  const auto byte = [&] { return static_cast<std::uint8_t>(1 + rng() % 255); };
  for (const Target& t : targets()) {
    const Bytes& pristine = t.in_manifest ? corpus().manifest : corpus().state;
    for (int i = 0; i < kMutantsPerSection; ++i) {
      Bytes m = pristine;
      // Half the mutants hit the section's leading bytes, where the counts,
      // shape words and first lengths live; the rest land anywhere in it.
      const std::size_t span = i % 2 == 0 ? std::min<std::size_t>(t.sec.len, 32)
                                          : t.sec.len;
      const int flips = 1 + static_cast<int>(rng() % 4);
      std::size_t first = 0;
      for (int f = 0; f < flips; ++f) {
        const std::size_t at = t.sec.payload + rng() % span;
        if (f == 0) first = at - t.sec.payload;
        m[at] ^= byte();
      }
      fix_crc(m, t.sec);
      SCOPED_TRACE(t.sec.name + " payload byte " + std::to_string(first));
      (void)(t.in_manifest ? resume_from(m, corpus().state)
                           : resume_from(corpus().manifest, m));
    }
  }
}

/// The corpus state file with one memo witness edited by `edit(bytes,
/// offset of the witness's u32 length)` and the memo CRC recomputed, so the
/// section frames correctly and only the memo decoder can refuse it. The
/// memo payload is a u64 count, then per entry a u32 root, a u64 pbits and
/// two witnesses of u8 can, u32 id, u32 length and one byte per step.
template <typename Edit>
Bytes with_memo_witness(bool nonempty, Edit edit) {
  Bytes state = corpus().state;
  for (const Section& s : sections(state)) {
    if (s.name != "memo") continue;
    std::size_t at = s.payload + 8;
    for (std::uint64_t e = rd_le(state, s.payload, 8); e > 0; --e) {
      at += 12;
      for (int v = 0; v < 2; ++v) {
        const std::size_t len_at = at + 5;
        const std::size_t len = rd_le(state, len_at, 4);
        if (!nonempty || len > 0) {
          edit(state, len_at);
          fix_crc(state, s);
          return state;
        }
        at = len_at + 4 + len;
      }
    }
  }
  ADD_FAILURE() << "no such memo witness in the corpus";
  return state;
}

TEST(CheckpointMutation, MemoWitnessIsBoundedAndRangeChecked) {
  // A length of 0xFFFFFFFF: refused before 4 GiB are reserved for it.
  EXPECT_FALSE(resume_from(
      corpus().manifest,
      with_memo_witness(false, [](Bytes& b, std::size_t len_at) {
        for (int i = 0; i < 4; ++i) b[len_at + i] = 0xFF;
      })));
  // A step naming process n: refused, or a memo hit would replay it.
  EXPECT_FALSE(resume_from(
      corpus().manifest,
      with_memo_witness(true, [](Bytes& b, std::size_t len_at) {
        b[len_at + 4] = kN;
      })));
}

/// The corpus state file with `edit(bytes, offset)` applied to section
/// `name` at the offset of its arena: the value dictionary's u32 count, then
/// the values (i64 each), then the u64 row count and the code rows (u16
/// each, n + m per row). The section's CRC is recomputed, so only the arena
/// decoder can refuse the result.
template <typename Edit>
Bytes with_arena_edit(const std::string& name, Edit edit) {
  Bytes state = corpus().state;
  for (const Section& s : sections(state)) {
    if (s.name != name) continue;
    // The graph section opens with n, the word count, the symmetry flag and
    // the facts flag; the roots section opens with its arena.
    const std::size_t arena = s.payload + (name == "graph" ? 10 : 0);
    edit(state, arena);
    fix_crc(state, s);
    return state;
  }
  ADD_FAILURE() << "no " << name << " section in the corpus";
  return state;
}

std::size_t dict_count(const Bytes& b, std::size_t arena) {
  return static_cast<std::size_t>(rd_le(b, arena, 4));
}

TEST(CheckpointMutation, ArenaDictionaryAndCodesAreRangeChecked) {
  for (const std::string name : {"graph", "roots"}) {
    SCOPED_TRACE(name);
    // A dictionary of 65,537 values: more than a 16-bit code can name.
    EXPECT_FALSE(resume_from(
        corpus().manifest, with_arena_edit(name, [](Bytes& b, std::size_t at) {
          const std::uint32_t n = 65'537;
          for (int i = 0; i < 4; ++i) {
            b[at + i] = static_cast<std::uint8_t>(n >> (8 * i));
          }
        })));
    // The second dictionary value overwritten with the first: a value with
    // two codes would make equal configurations compare unequal.
    EXPECT_FALSE(resume_from(
        corpus().manifest, with_arena_edit(name, [](Bytes& b, std::size_t at) {
          ASSERT_GE(dict_count(b, at), 2u);
          std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(at + 4), 8,
                      b.begin() + static_cast<std::ptrdiff_t>(at + 12));
        })));
    // The first row's first code set to the dictionary's size: a code that
    // names no value.
    EXPECT_FALSE(resume_from(
        corpus().manifest, with_arena_edit(name, [](Bytes& b, std::size_t at) {
          const std::size_t nd = dict_count(b, at);
          const std::size_t row = at + 4 + 8 * nd + 8;
          ASSERT_GE(rd_le(b, row - 8, 8), 1u);
          b[row] = static_cast<std::uint8_t>(nd);
          b[row + 1] = static_cast<std::uint8_t>(nd >> 8);
        })));
  }
}

}  // namespace
}  // namespace tsb

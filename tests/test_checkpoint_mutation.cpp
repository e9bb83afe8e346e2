// Seeded mutation test for the checkpoint decoders: Manifest::load,
// SectionReader, and every state section's restore path (the oracle, roots
// and memo sections of ValencyOracle::restore_state, and the ReachGraph
// section it carries, down to the arenas' value dictionaries and code
// rows), all reached through CheckpointService::resume the way
// `tsb resume` reaches them. The corpus is the committed checkpoint of
// an adversary run (its manifest.tsb and its state file): n=4 on the
// shared engine, and n=5 on the fresh-BFS backend, whose roots arena is
// the one that holds configurations (its n=4 passes are too short to
// reach a checkpoint poll).
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
#include <optional>
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

void put_le(Bytes& b, std::size_t at, std::uint64_t v, int len) {
  for (int i = 0; i < len; ++i) {
    b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void fix_crc(Bytes& b, const Section& s) {
  const std::uint32_t crc = util::ckpt::crc32(b.data() + s.payload, s.len);
  for (int i = 0; i < 4; ++i) {
    b[s.payload - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// The committed checkpoint of `tsb adversary 4 --checkpoint-every=2000`
/// (reuse) or of `tsb adversary 5 --no-reuse --checkpoint-every=2000`.
struct Corpus {
  bool reuse = true;
  int n = kN;  ///< processes, and registers: BallotConsensus has n
  int cap = kCap;
  std::string fingerprint;
  std::string state_name;
  Bytes manifest;
  Bytes state;
};

bound::ValencyOracle::Options oracle_options(bool reuse) {
  bound::ValencyOracle::Options o;
  o.reuse = reuse;
  return o;
}

Corpus make_corpus(bool reuse) {
  Corpus out;
  out.reuse = reuse;
  if (!reuse) {
    out.n = 5;
    out.cap = 15;
  }
  const std::string dir =
      scratch_dir(reuse ? "mutation_corpus" : "mutation_corpus_noreuse");
  CheckpointService::global().reset();
  consensus::BallotConsensus proto(out.n, out.cap);
  EXPECT_EQ(proto.num_registers(), out.n);
  bound::SpaceBoundAdversary::Options opts;
  opts.reuse = reuse;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 2000;
  EXPECT_TRUE(bound::SpaceBoundAdversary(proto, opts).run().ok);
  CheckpointService::global().reset();
  out.fingerprint =
      bound::ValencyOracle(proto, oracle_options(reuse)).state_fingerprint();
  out.manifest = slurp(util::ckpt::manifest_path(dir));
  const std::uint64_t gen =
      util::ckpt::Manifest::load(util::ckpt::manifest_path(dir)).generation;
  out.state_name = fs::path(util::ckpt::state_path(dir, gen)).filename();
  out.state = slurp(util::ckpt::state_path(dir, gen));
  return out;
}

const Corpus& corpus(bool reuse = true) {
  if (reuse) {
    static const Corpus shared = make_corpus(true);
    return shared;
  }
  static const Corpus fresh = make_corpus(false);
  return fresh;
}

/// Write a (possibly mutated) manifest and state file into a fresh
/// directory and resume a fresh oracle shaped as corpus(reuse) was
/// written from it. True when the state restored, false when the
/// checkpoint was refused; anything else escapes.
bool resume_from(const Bytes& manifest, const Bytes& state,
                 bool reuse = true) {
  const Corpus& c = corpus(reuse);
  const std::string dir = scratch_dir("mutant");
  spit(dir + "/" + util::ckpt::kManifestName, manifest);
  spit(dir + "/" + c.state_name, state);
  CheckpointService& svc = CheckpointService::global();
  svc.reset();
  svc.configure(dir, 0, 0, c.fingerprint);
  consensus::BallotConsensus proto(c.n, c.cap);
  bound::ValencyOracle oracle(proto, oracle_options(reuse));
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

/// Where an arena's fields start in a state file: the value dictionary's
/// u32 count at `at` (then i64 values), the register-vector dictionary's
/// u32 count at `vecs` (then m u16 codes per vector), the u64 row count
/// at `rows` (then the code rows as delta groups, n + 1 codes per row).
/// The corpus protocol has m = n.
struct ArenaLayout {
  std::size_t n = 0;
  std::size_t at = 0;
  std::size_t nd = 0;
  std::size_t vecs = 0;
  std::size_t nv = 0;
  std::size_t rows = 0;
};

/// The arena of corpus `c`'s state-file section `s` (the graph section
/// opens with n, the word count, the symmetry flag and the facts flag;
/// roots opens with its arena), or nullopt for a section that holds none.
std::optional<ArenaLayout> arena_layout(const Corpus& c, const Section& s) {
  if (s.name != "graph" && s.name != "roots") return std::nullopt;
  ArenaLayout a;
  a.n = static_cast<std::size_t>(c.n);
  a.at = s.payload + (s.name == "graph" ? 10 : 0);
  a.nd = static_cast<std::size_t>(rd_le(c.state, a.at, 4));
  a.vecs = a.at + 4 + 8 * a.nd;
  a.nv = static_cast<std::size_t>(rd_le(c.state, a.vecs, 4));
  a.rows = a.vecs + 4 + 2 * a.n * a.nv;
  return a;
}

/// Every mutable section of a corpus, tagged with its file.
struct Target {
  bool in_manifest;
  Section sec;
};

std::vector<Target> targets(bool reuse) {
  std::vector<Target> out;
  for (const Section& s : sections(corpus(reuse).manifest)) {
    out.push_back({true, s});
  }
  for (const Section& s : sections(corpus(reuse).state)) {
    out.push_back({false, s});
  }
  return out;
}

TEST(CheckpointMutation, CorpusResumesAndCoversEverySection) {
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse" : "no-reuse");
    ASSERT_TRUE(
        resume_from(corpus(reuse).manifest, corpus(reuse).state, reuse));
    std::vector<std::string> names;
    for (const Target& t : targets(reuse)) names.push_back(t.sec.name);
    std::vector<std::string> expect = {"manifest", "oracle", "roots", "memo"};
    if (reuse) expect.push_back("graph");
    EXPECT_EQ(names, expect);
    for (const Target& t : targets(reuse)) {
      if (t.sec.name != "roots") continue;
      const ArenaLayout a = *arena_layout(corpus(reuse), t.sec);
      // The shared engine keys its memo on graph nodes, so its roots arena
      // stays empty: three zero counts. The fresh-BFS one holds roots.
      if (reuse) {
        EXPECT_EQ(t.sec.len, 16u);
      } else {
        EXPECT_GE(a.nd, 2u);
        EXPECT_GE(a.nv, 2u);
        EXPECT_GE(rd_le(corpus(reuse).state, a.rows, 8), 1u);
      }
    }
  }
}

TEST(CheckpointMutation, StaleCrcMutantsAreAllRefused) {
  std::mt19937_64 rng(kSeed);
  const auto byte = [&] { return static_cast<std::uint8_t>(1 + rng() % 255); };
  for (const bool reuse : {true, false}) {
    const Corpus& c = corpus(reuse);
    for (const bool in_manifest : {true, false}) {
      const Bytes& pristine = in_manifest ? c.manifest : c.state;
      for (int i = 0; i < 4 * kMutantsPerSection; ++i) {
        Bytes m = pristine;
        std::size_t at = rng() % m.size();
        if (i % 4 == 3) {
          m.resize(at);  // a torn file
        } else {
          m[at] ^= byte();
        }
        SCOPED_TRACE(std::string(reuse ? "reuse " : "no-reuse ") +
                     (in_manifest ? "manifest" : "state") + " " +
                     (i % 4 == 3 ? "truncated to " : "byte ") +
                     std::to_string(at));
        EXPECT_FALSE(in_manifest ? resume_from(m, c.state, reuse)
                                 : resume_from(c.manifest, m, reuse));
      }
    }
  }
}

TEST(CheckpointMutation, CrcValidMutantsAreRefusedOrRestoreCleanly) {
  std::mt19937_64 rng(kSeed + 1);
  const auto byte = [&] { return static_cast<std::uint8_t>(1 + rng() % 255); };
  for (const bool reuse : {true, false}) {
    const Corpus& c = corpus(reuse);
    for (const Target& t : targets(reuse)) {
      const Bytes& pristine = t.in_manifest ? c.manifest : c.state;
      // An arena's register-vector dictionary, its row count and first
      // row; the whole section when it holds no arena.
      std::size_t vec_from = 0;
      std::size_t vec_span = t.sec.len;
      if (!t.in_manifest) {
        if (const auto a = arena_layout(c, t.sec)) {
          vec_from = a->vecs - t.sec.payload;
          vec_span = std::min<std::size_t>(
              t.sec.len - vec_from, a->rows + 8 + 2 * (a->n + 1) - a->vecs);
        }
      }
      for (int i = 0; i < kMutantsPerSection; ++i) {
        Bytes m = pristine;
        // A third of the mutants hit the section's leading bytes, where
        // the counts, shape words and first lengths live, and a third hit
        // the register-vector fields above; the rest land anywhere in it.
        std::size_t from = 0;
        std::size_t span = t.sec.len;
        if (i % 3 == 0) {
          span = std::min<std::size_t>(t.sec.len, 32);
        } else if (i % 3 == 1) {
          from = vec_from;
          span = vec_span;
        }
        const int flips = 1 + static_cast<int>(rng() % 4);
        std::size_t first = 0;
        for (int f = 0; f < flips; ++f) {
          const std::size_t at = t.sec.payload + from + rng() % span;
          if (f == 0) first = at - t.sec.payload;
          m[at] ^= byte();
        }
        fix_crc(m, t.sec);
        SCOPED_TRACE(std::string(reuse ? "reuse " : "no-reuse ") +
                     t.sec.name + " payload byte " + std::to_string(first));
        (void)(t.in_manifest ? resume_from(m, c.state, reuse)
                             : resume_from(c.manifest, m, reuse));
      }
    }
  }
}

TEST(CheckpointMutation, ArenaSectionsCutShortAreRefused) {
  // A section whose payload ends inside an arena's register-vector
  // dictionary, row count or first rows, with its length and CRC
  // rewritten so the framing is valid: only the arena decoder sees the
  // missing bytes, and it must refuse them.
  std::mt19937_64 rng(kSeed + 2);
  for (const bool reuse : {true, false}) {
    const Corpus& c = corpus(reuse);
    for (const Section& s : sections(c.state)) {
      const std::optional<ArenaLayout> arena = arena_layout(c, s);
      if (!arena || arena->nv == 0) continue;
      const std::size_t lo = arena->vecs;
      const std::size_t hi =
          std::min(s.payload + s.len, arena->rows + 8 + 2 * (arena->n + 1) * 4);
      for (int i = 0; i < kMutantsPerSection / 4; ++i) {
        const std::size_t cut = lo + rng() % (hi - lo);
        Bytes m = c.state;
        m.erase(m.begin() + static_cast<std::ptrdiff_t>(cut),
                m.begin() + static_cast<std::ptrdiff_t>(s.payload + s.len));
        Section cut_sec = s;
        cut_sec.len = cut - s.payload;
        put_le(m, s.payload - 12, cut_sec.len, 8);  // the payload length
        fix_crc(m, cut_sec);
        SCOPED_TRACE(std::string(reuse ? "reuse " : "no-reuse ") + s.name +
                     " cut at payload byte " + std::to_string(cut - s.payload));
        EXPECT_FALSE(resume_from(c.manifest, m, reuse));
      }
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

/// The corpus state file with `edit(bytes, layout)` applied to section
/// `name`'s arena (arena_layout), taken from the corpus whose arena there
/// holds configurations: graph from the shared engine's, roots from the
/// fresh-BFS backend's. The section's CRC is recomputed, so only the arena
/// decoder can refuse the result.
template <typename Edit>
Bytes with_arena_edit(const std::string& name, Edit edit) {
  const Corpus& c = corpus(name == "graph");
  Bytes state = c.state;
  for (const Section& s : sections(state)) {
    if (s.name != name) continue;
    edit(state, *arena_layout(c, s));
    fix_crc(state, s);
    return state;
  }
  ADD_FAILURE() << "no " << name << " section in the corpus";
  return state;
}

TEST(CheckpointMutation, ArenaDictionaryAndCodesAreRangeChecked) {
  for (const std::string name : {"graph", "roots"}) {
    SCOPED_TRACE(name);
    const bool reuse = name == "graph";
    const auto refused = [&](auto edit) {
      return !resume_from(corpus(reuse).manifest, with_arena_edit(name, edit),
                          reuse);
    };
    // A dictionary of 65,537 values: more than a 16-bit code can name.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      put_le(b, a.at, 65'537, 4);
    }));
    // The second dictionary value overwritten with the first: a value with
    // two codes would make equal configurations compare unequal.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      ASSERT_GE(a.nd, 2u);
      std::copy_n(b.begin() + static_cast<std::ptrdiff_t>(a.at + 4), 8,
                  b.begin() + static_cast<std::ptrdiff_t>(a.at + 12));
    }));
    // A register-vector dictionary of 65,537 vectors.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      put_le(b, a.vecs, 65'537, 4);
    }));
    // The first vector's first code set to the value dictionary's size.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      ASSERT_GE(a.nv, 1u);
      put_le(b, a.vecs + 4, a.nd, 2);
    }));
    // The second vector overwritten with the first: a tuple with two codes.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      ASSERT_GE(a.nv, 2u);
      const auto first = b.begin() + static_cast<std::ptrdiff_t>(a.vecs + 4);
      std::copy_n(first, 2 * a.n, first + static_cast<std::ptrdiff_t>(2 * a.n));
    }));
    // The first row's first code set to the dictionary's size: a code that
    // names no value.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      ASSERT_GE(rd_le(b, a.rows, 8), 1u);
      put_le(b, a.rows + 8, a.nd, 2);
    }));
    // The first row's vector code (after its n state codes) set to the
    // vector dictionary's size: a code that names no register vector.
    EXPECT_TRUE(refused([](Bytes& b, const ArenaLayout& a) {
      ASSERT_GE(rd_le(b, a.rows, 8), 1u);
      put_le(b, a.rows + 8 + 2 * a.n, a.nv, 2);
    }));
  }
}

}  // namespace
}  // namespace tsb

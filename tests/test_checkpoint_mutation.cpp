// Seeded mutation test for the checkpoint decoders: Manifest::load,
// SectionReader, and both state sections of ValencyOracle::restore_state
// (the oracle section's shape and the memo's entries: root words, P, the
// answers and their witnesses, re-keyed and replayed on restore), all
// reached through CheckpointService::resume the way `tsb resume` reaches
// them. The corpus is the committed checkpoint of an adversary run (its
// manifest.tsb and its state file): n=4 on the shared engine, and n=5 on
// the fresh-BFS backend (its n=4 passes are too short to reach a
// checkpoint poll).
//
//   * With the CRCs left stale, every byte flip or truncation must be
//     refused with util::CheckpointInvalid.
//   * With each mutated section's CRC recomputed, the framing stays valid
//     and the mutation reaches the section decoders: every mutant must be
//     refused with util::CheckpointInvalid or restore cleanly — never a
//     util::RequirementFailed, a crash, a hang, std::bad_alloc or
//     undefined behaviour (the ASan+UBSan build runs this with the rest
//     of ctest).
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
#include "sim/engine.hpp"
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

/// One memo entry of a state file, by payload offsets: the root's n + m
/// i64 words at `at`, the u64 P after them, then per value a u8 can, a u32
/// witness length and one byte per step (`wit[v]` is the can byte).
struct Entry {
  std::size_t at = 0;
  std::size_t pbits = 0;
  std::size_t wit[2] = {0, 0};
  std::size_t len[2] = {0, 0};
  std::size_t end = 0;
};

/// Words per memo root of corpus `c`: BallotConsensus has n registers.
std::size_t root_words(const Corpus& c) {
  return 2 * static_cast<std::size_t>(c.n);
}

/// The memo payload's entries (a u64 count, then the entries).
std::vector<Entry> entries(const Corpus& c, const Bytes& memo) {
  std::vector<Entry> out;
  std::size_t at = 8;
  for (std::uint64_t e = rd_le(memo, 0, 8); e > 0; --e) {
    Entry en;
    en.at = at;
    en.pbits = at + 8 * root_words(c);
    at = en.pbits + 8;
    for (int v = 0; v < 2; ++v) {
      en.wit[v] = at;
      en.len[v] = rd_le(memo, at + 1, 4);
      at += 5 + en.len[v];
    }
    en.end = at;
    out.push_back(en);
  }
  return out;
}

Section memo_section(const Bytes& state) {
  for (const Section& s : sections(state)) {
    if (s.name == "memo") return s;
  }
  ADD_FAILURE() << "no memo section in the corpus";
  return {};
}

/// Corpus `c`'s memo payload.
Bytes memo_payload(const Corpus& c) {
  const Section s = memo_section(c.state);
  return Bytes(c.state.begin() + static_cast<std::ptrdiff_t>(s.payload),
               c.state.begin() + static_cast<std::ptrdiff_t>(s.payload + s.len));
}

/// Corpus `c`'s state file with the memo payload replaced by `memo`, its
/// length and CRC rewritten so the section frames correctly and only the
/// memo decoder can refuse it.
Bytes with_memo(const Corpus& c, const Bytes& memo) {
  const Section s = memo_section(c.state);
  const auto at = [&](std::size_t off) {
    return c.state.begin() + static_cast<std::ptrdiff_t>(off);
  };
  Bytes state(c.state.begin(), at(s.payload));
  state.insert(state.end(), memo.begin(), memo.end());
  state.insert(state.end(), at(s.payload + s.len), c.state.end());
  Section out = s;
  out.len = memo.size();
  put_le(state, s.payload - 12, out.len, 8);
  fix_crc(state, out);
  return state;
}

/// The root configuration of entry `e`.
sim::Config root_of(const Corpus& c, const Bytes& memo, const Entry& e) {
  sim::Config cfg;
  for (std::size_t w = 0; w < root_words(c); ++w) {
    const auto x = static_cast<sim::Value>(rd_le(memo, e.at + 8 * w, 8));
    (w < static_cast<std::size_t>(c.n) ? cfg.states : cfg.regs).push_back(x);
  }
  return cfg;
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
    const std::vector<std::string> expect = {"manifest", "oracle", "memo"};
    EXPECT_EQ(names, expect);
    // Entries with a positive witness, which restore replays.
    const Bytes memo = memo_payload(corpus(reuse));
    const std::vector<Entry> es = entries(corpus(reuse), memo);
    EXPECT_GE(es.size(), 2u);
    EXPECT_EQ(es.back().end, memo.size());
    EXPECT_TRUE(std::any_of(es.begin(), es.end(), [](const Entry& e) {
      return e.len[0] > 0 || e.len[1] > 0;
    }));
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
      // The memo's first root and P; the whole section elsewhere.
      std::size_t root_from = 0;
      std::size_t root_span = t.sec.len;
      if (!t.in_manifest && t.sec.name == "memo") {
        root_from = 8;
        root_span = std::min<std::size_t>(t.sec.len - 8,
                                          8 * root_words(c) + 8);
      }
      for (int i = 0; i < kMutantsPerSection; ++i) {
        Bytes m = pristine;
        // A third of the mutants hit the section's leading bytes, where
        // the counts, shape words and first lengths live, and a third hit
        // the root words and P above; the rest land anywhere in it.
        std::size_t from = 0;
        std::size_t span = t.sec.len;
        if (i % 3 == 0) {
          span = std::min<std::size_t>(t.sec.len, 32);
        } else if (i % 3 == 1) {
          from = root_from;
          span = root_span;
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

TEST(CheckpointMutation, MemoSectionCutShortIsRefused) {
  // A memo payload that ends inside an entry, with its length and CRC
  // rewritten so the framing is valid, and counts that claim more entries
  // than the section holds: only the memo decoder sees the missing bytes,
  // and it must refuse them before reserving anything for the claim.
  std::mt19937_64 rng(kSeed + 2);
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse" : "no-reuse");
    const Corpus& c = corpus(reuse);
    const Bytes memo = memo_payload(c);
    for (int i = 0; i < kMutantsPerSection / 4; ++i) {
      const std::size_t cut = rng() % memo.size();
      SCOPED_TRACE("cut at payload byte " + std::to_string(cut));
      EXPECT_FALSE(resume_from(
          c.manifest,
          with_memo(c, Bytes(memo.begin(),
                             memo.begin() + static_cast<std::ptrdiff_t>(cut))),
          reuse));
    }
    for (const std::uint64_t count :
         {rd_le(memo, 0, 8) + 1, std::uint64_t{1} << 62, ~std::uint64_t{0}}) {
      Bytes m = memo;
      put_le(m, 0, count, 8);
      EXPECT_FALSE(resume_from(c.manifest, with_memo(c, m), reuse)) << count;
    }
  }
}

/// Corpus `c`'s state file with the memo payload edited by `edit(memo,
/// entries)` (which may resize it), reframed by with_memo.
template <typename Edit>
Bytes with_memo_edit(const Corpus& c, Edit edit) {
  Bytes memo = memo_payload(c);
  const std::vector<Entry> es = entries(c, memo);
  edit(memo, es);
  return with_memo(c, memo);
}

/// The first entry with a positive witness of at least one step whose P
/// leaves some process out (or any, when `strict_p` is false): its index
/// and value.
std::pair<std::size_t, int> positive_witness(const Corpus& c, const Bytes& memo,
                                             const std::vector<Entry>& es,
                                             bool strict_p) {
  const std::uint64_t all = (std::uint64_t{1} << c.n) - 1;
  for (std::size_t e = 0; e < es.size(); ++e) {
    if (strict_p && rd_le(memo, es[e].pbits, 8) == all) continue;
    for (int v = 0; v < 2; ++v) {
      if (memo[es[e].wit[v]] != 0 && es[e].len[v] > 0) return {e, v};
    }
  }
  ADD_FAILURE() << "no such positive witness in the corpus";
  return {0, 0};
}

TEST(CheckpointMutation, MemoWitnessIsBoundedAndRangeChecked) {
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse" : "no-reuse");
    const Corpus& c = corpus(reuse);
    const auto refused = [&](auto edit) {
      return !resume_from(c.manifest, with_memo_edit(c, edit), reuse);
    };
    // A length of 0xFFFFFFFF: refused before 4 GiB are reserved for it.
    EXPECT_TRUE(refused([](Bytes& m, const std::vector<Entry>& es) {
      put_le(m, es[0].wit[0] + 1, 0xFFFFFFFFu, 4);
    }));
    // A step naming process n: refused, or a memo hit would replay it.
    EXPECT_TRUE(refused([&](Bytes& m, const std::vector<Entry>& es) {
      const auto [e, v] = positive_witness(c, m, es, false);
      m[es[e].wit[v] + 5] = static_cast<std::uint8_t>(c.n);
    }));
    // A step of a process outside P: not a P-only execution.
    EXPECT_TRUE(refused([&](Bytes& m, const std::vector<Entry>& es) {
      const auto [e, v] = positive_witness(c, m, es, true);
      const std::uint64_t p = rd_le(m, es[e].pbits, 8);
      const int out = __builtin_ctzll(~p);
      ASSERT_LT(out, c.n);
      m[es[e].wit[v] + 5] = static_cast<std::uint8_t>(out);
    }));
    // A witness kept on an answer flipped to negative.
    EXPECT_TRUE(refused([&](Bytes& m, const std::vector<Entry>& es) {
      const auto [e, v] = positive_witness(c, m, es, false);
      m[es[e].wit[v]] = 0;
    }));
  }
}

TEST(CheckpointMutation, WitnessThatDecidesNothingIsRefused) {
  // Restore replays every positive witness from its root. A witness cut
  // to no steps, on an entry whose root decides nothing by itself, is a
  // CRC-valid claim that P can decide v with no evidence: refused.
  consensus::BallotConsensus proto(corpus().n, corpus().cap);
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse" : "no-reuse");
    const Corpus& c = corpus(reuse);
    bool cut = false;
    const Bytes state =
        with_memo_edit(c, [&](Bytes& m, const std::vector<Entry>& es) {
          for (const Entry& e : es) {
            for (int v = 0; v < 2 && !cut; ++v) {
              if (m[e.wit[v]] == 0 || e.len[v] == 0 ||
                  sim::some_decided(proto, root_of(c, m, e), v)) {
                continue;
              }
              m.erase(m.begin() + static_cast<std::ptrdiff_t>(e.wit[v] + 5),
                      m.begin() +
                          static_cast<std::ptrdiff_t>(e.wit[v] + 5 + e.len[v]));
              put_le(m, e.wit[v] + 1, 0, 4);
              cut = true;
            }
            if (cut) return;
          }
        });
    ASSERT_TRUE(cut) << "no positive witness to cut in the corpus";
    EXPECT_FALSE(resume_from(c.manifest, state, reuse));
  }
}

TEST(CheckpointMutation, MemoRootsAndProcSetsAreRangeChecked) {
  for (const bool reuse : {true, false}) {
    SCOPED_TRACE(reuse ? "reuse" : "no-reuse");
    const Corpus& c = corpus(reuse);
    const auto refused = [&](auto edit) {
      return !resume_from(c.manifest, with_memo_edit(c, edit), reuse);
    };
    // A root state equal to the shared engine's masked-slot word.
    EXPECT_TRUE(refused([](Bytes& m, const std::vector<Entry>& es) {
      put_le(m, es[0].at, std::uint64_t{1} << 63, 8);
    }));
    // An empty P, a P naming process n, and one naming process 63.
    for (const std::uint64_t p :
         {std::uint64_t{0}, std::uint64_t{1} << c.n, std::uint64_t{1} << 63}) {
      EXPECT_TRUE(refused([p](Bytes& m, const std::vector<Entry>& es) {
        put_le(m, es[0].pbits, p, 8);
      })) << p;
    }
    // The first entry twice: two entries for one pair.
    EXPECT_TRUE(refused([](Bytes& m, const std::vector<Entry>& es) {
      const Bytes copy(m.begin() + static_cast<std::ptrdiff_t>(es[0].at),
                       m.begin() + static_cast<std::ptrdiff_t>(es[0].end));
      m.insert(m.begin() + static_cast<std::ptrdiff_t>(es[0].end),
               copy.begin(), copy.end());
      put_le(m, 0, es.size() + 1, 8);
    }));
    // Negative entries whose roots name more distinct words than a 16-bit
    // code can: the arena's dictionary overflow is a refusal here, not a
    // budget stop.
    EXPECT_TRUE(refused([&](Bytes& m, const std::vector<Entry>& es) {
      const std::size_t words = root_words(c);
      const std::size_t extra = 65'536 / words + 1;
      for (std::size_t e = 0; e < extra; ++e) {
        Bytes entry(8 * words + 8 + 10, 0);
        for (std::size_t w = 0; w < words; ++w) {
          put_le(entry, 8 * w, 1'000'000 + e * words + w, 8);
        }
        put_le(entry, 8 * words, (std::uint64_t{1} << c.n) - 1, 8);
        m.insert(m.end(), entry.begin(), entry.end());
      }
      put_le(m, 0, es.size() + extra, 8);
    }));
  }
  // With reuse, the memo keys on the projected root: a copy whose root
  // differs only in a frozen process's (non-deciding) state is a second
  // entry for the same key after re-keying, though its bytes differ.
  const Corpus& c = corpus(true);
  consensus::BallotConsensus proto(c.n, c.cap);
  bool made = false;
  const Bytes state =
      with_memo_edit(c, [&](Bytes& m, const std::vector<Entry>& es) {
        const std::uint64_t all = (std::uint64_t{1} << c.n) - 1;
        for (const Entry& e : es) {
          const std::uint64_t p = rd_le(m, e.pbits, 8);
          if (p == all) continue;
          const int q = __builtin_ctzll(~p);
          const auto was =
              static_cast<sim::Value>(rd_le(m, e.at + 8 * q, 8));
          if (proto.poised(q, was).is_decide()) continue;
          sim::Value other = 0;
          while (other == was || proto.poised(q, other).is_decide()) ++other;
          Bytes copy(m.begin() + static_cast<std::ptrdiff_t>(e.at),
                     m.begin() + static_cast<std::ptrdiff_t>(e.end));
          put_le(copy, 8 * static_cast<std::size_t>(q),
                 static_cast<std::uint64_t>(other), 8);
          m.insert(m.end(), copy.begin(), copy.end());
          put_le(m, 0, es.size() + 1, 8);
          made = true;
          return;
        }
      });
  ASSERT_TRUE(made) << "no entry with a frozen process in the corpus";
  EXPECT_FALSE(resume_from(c.manifest, state, true));
}

}  // namespace
}  // namespace tsb

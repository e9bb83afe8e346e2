#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bound/covering.hpp"
#include "bound/valency.hpp"
#include "obs/progress.hpp"

namespace tsb::bound {

/// Constructive implementations of the paper's propositions and lemmas.
///
/// Each method follows the corresponding proof step by step (not a generic
/// search), so the executions it produces *are* the paper's constructions.
/// Preconditions are asserted through the valency oracle; a correct
/// obstruction-free protocol can never trip them — the proofs guarantee
/// each object exists.
class LemmaToolkit {
 public:
  LemmaToolkit(const Protocol& proto, ValencyOracle& oracle)
      : proto_(proto), oracle_(oracle) {}

  /// Proposition 2: an initial configuration I (p0 input 0, p1 input 1,
  /// others input 0) such that {p0} is 0-univalent, {p1} is 1-univalent,
  /// hence {p0, p1} — and any superset — is bivalent from I.
  struct InitialBivalent {
    Config config;
    std::vector<Value> inputs;
    ProcId p0 = 0;
    ProcId p1 = 1;
  };
  InitialBivalent proposition2();

  /// Lemma 1: given P bivalent from C with |P| >= 3, a P-only execution phi
  /// and z in P such that P - {z} is bivalent from C-phi.
  struct Lemma1Result {
    Schedule phi;
    ProcId z = -1;
  };
  Lemma1Result lemma1(const Config& c, ProcSet p);

  /// Lemma 2, constructive form: run z solo from c until it is poised to
  /// write to a register outside `covered`; zeta_prime is the {z}-only
  /// prefix executed before that write (reads plus covered writes only).
  /// Lemma 2 guarantees the escape exists whenever some P (z not in P,
  /// R subset of P covering exactly `covered`) is bivalent from c-beta; if z
  /// decides first, found = false and the caller's precondition was wrong.
  struct SoloEscape {
    bool found = false;
    Schedule zeta_prime;
    RegId escape_reg = -1;
  };
  SoloEscape solo_escape(const Config& c, ProcId z,
                         const std::set<RegId>& covered,
                         std::size_t max_steps = 1'000'000);

  /// Lemma 3: given a non-empty covering set R subset of P in C with
  /// Q = P - R bivalent from C, a Q-only execution phi and q in Q such that
  /// R u {q} is bivalent from C-phi-beta (beta the block write by R).
  struct Lemma3Result {
    Schedule phi;
    ProcId q = -1;
  };
  Lemma3Result lemma3(const Config& c, ProcSet p, ProcSet r);

  /// Lemma 4: given P bivalent from C with |P| >= 2, a P-only execution
  /// alpha and a pair Q subset of P such that Q is bivalent from C-alpha and
  /// every process in P - Q covers a different register in C-alpha.
  struct Lemma4Result {
    Schedule alpha;
    ProcSet q;  ///< the bivalent pair
  };
  Lemma4Result lemma4(const Config& c, ProcSet p);

  // --- instrumentation ---------------------------------------------------
  struct Stats {
    std::size_t lemma1_calls = 0;
    std::size_t lemma3_calls = 0;
    std::size_t lemma4_calls = 0;
    std::size_t solo_escapes = 0;
    std::size_t total_di_stages = 0;    ///< D_i configurations built
    std::size_t max_di_stages = 0;      ///< longest D_i chain before repeat
    std::size_t longest_alpha = 0;      ///< longest schedule returned
  };
  const Stats& stats() const { return stats_; }

  /// Appends a human-readable account of every construction step; consumed
  /// by the walkthrough example. Empty unless enabled.
  void enable_narrative(bool on) { narrate_ = on; }
  const std::string& narrative() const { return narrative_; }

 private:
  void note(const std::string& line);

  const Protocol& proto_;
  ValencyOracle& oracle_;
  Stats stats_;
  bool narrate_ = false;
  std::string narrative_;
  int depth_ = 0;  // recursion depth, for narrative indentation
  // One lemma4 heartbeat for the whole construction: a clock per call would
  // restart in every recursive lemma4 and almost never reach the interval.
  obs::Heartbeat hb_{"lemma4"};
};

}  // namespace tsb::bound

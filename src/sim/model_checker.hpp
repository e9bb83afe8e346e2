#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/explorer.hpp"

namespace tsb::sim {

/// Exhaustive verification of agreement / validity / solo termination over
/// the full reachable configuration graph of a protocol.
///
/// This is how the repository earns trust in its upper-bound protocols: the
/// consensus implementations are not "believed correct", they are checked
/// exhaustively for every input vector at small n before the adversary and
/// the benchmarks run against them.
///
/// The checker verifies, for each initial configuration:
///  * Agreement (k-set): at most k distinct values are ever decided; for
///    consensus k = 1, i.e. no two processes decide differently.
///  * Validity: every decided value is some process's input.
///  * Solo termination (= obstruction-freedom / nondeterministic solo
///    termination for deterministic protocols): from every reachable
///    configuration, every undecided process decides within
///    `solo_step_cap` of its own steps when run alone.
class ModelChecker {
 public:
  struct Options {
    int k = 1;                        ///< k-set agreement; 1 = consensus
    std::size_t max_configs = 2'000'000;
    std::size_t solo_step_cap = 10'000;
    /// Check solo termination on every visited configuration.
    bool check_solo_termination = true;
    /// When true, a solo-termination failure aborts with a violation.
    /// When false, failures are only counted (Report::solo_failures) and a
    /// sample failing configuration is retained — used for protocols whose
    /// simulation cap deliberately sacrifices liveness at capped
    /// configurations (see consensus::BallotConsensus).
    bool fail_on_solo_violation = true;
  };

  struct Report {
    bool ok = true;
    bool truncated = false;  ///< state space exceeded max_configs somewhere
    std::size_t total_configs = 0;   ///< summed over initial configurations
    std::size_t initial_configs = 0;
    std::size_t solo_runs_checked = 0;
    std::size_t max_solo_steps_seen = 0;
    std::size_t solo_failures = 0;  ///< configs where some solo run stalled
    std::optional<Config> sample_solo_failure;

    // First violation found, if any.
    std::string violation;            ///< human-readable description
    std::optional<Config> bad_config;
    std::optional<Schedule> schedule_to_bad;  ///< from its initial config
    std::optional<std::vector<Value>> bad_inputs;

    std::string summary() const;
  };

  explicit ModelChecker(const Protocol& proto)
      : ModelChecker(proto, Options{}) {}
  ModelChecker(const Protocol& proto, Options opts)
      : proto_(proto), opts_(opts) {}

  /// Check the protocol for every input vector in `input_vectors`.
  Report check(const std::vector<std::vector<Value>>& input_vectors);

  /// Check for all 2^n binary input vectors.
  Report check_all_binary_inputs();

 private:
  const Protocol& proto_;
  Options opts_;
};

/// All binary input vectors for n processes, in lexicographic order.
std::vector<std::vector<Value>> all_binary_inputs(int n);

}  // namespace tsb::sim

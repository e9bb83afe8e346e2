#pragma once

#include <stdexcept>
#include <string>

namespace tsb::util {

/// Always-on invariant check for load-bearing conditions.
///
/// The lemma machinery's preconditions and postconditions are part of the
/// reproduction's trust story: a protocol that is not a correct solo-
/// terminating consensus protocol must make the adversary *fail loudly*,
/// not fabricate a certificate — in release builds too, where assert() is
/// compiled out. Violations throw; SpaceBoundAdversary::run() catches and
/// reports them as errors.
class RequirementFailed : public std::runtime_error {
 public:
  explicit RequirementFailed(const std::string& what)
      : std::runtime_error(what) {}
};

/// Graceful-degradation signal: an exploration or valency query hit its
/// configured memory or wall-clock budget. Distinct from RequirementFailed
/// because nothing is *wrong* — the answer is "unknown within budget", and
/// callers (the adversary, the CLI) must surface that as a clean truncated
/// result with its own exit code rather than as a violation, and must never
/// substitute an unsound partial answer.
class BudgetExhausted : public std::runtime_error {
 public:
  explicit BudgetExhausted(const std::string& what)
      : std::runtime_error(what) {}
};

/// A run configuration that cannot be honoured at all (e.g. a spill
/// directory that cannot hold a backing file). Refused before any work is
/// done, like a bad flag: the CLI maps it to the usage exit code (2).
class UsageError : public std::runtime_error {
 public:
  explicit UsageError(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void require_failed(const char* expr, const char* file,
                                        int line, const std::string& msg) {
  throw RequirementFailed(std::string(file) + ":" + std::to_string(line) +
                          ": requirement failed: " + expr +
                          (msg.empty() ? "" : " — " + msg));
}

}  // namespace tsb::util

#define TSB_REQUIRE(cond, msg)                                       \
  do {                                                               \
    if (!(cond)) {                                                   \
      ::tsb::util::require_failed(#cond, __FILE__, __LINE__, (msg)); \
    }                                                                \
  } while (false)

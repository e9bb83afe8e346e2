#include "sim/limits.hpp"

#include <cstdint>

#include "obs/flight.hpp"
#include "obs/memledger.hpp"
#include "util/require.hpp"

namespace tsb::sim {

void Limits::check(std::size_t tracked_bytes, const char* engine) const {
  const auto bytes = static_cast<std::int64_t>(tracked_bytes);
  obs::flight::record(obs::flight::Ev::kBudgetCheck, bytes,
                      static_cast<std::int64_t>(max_bytes));
  std::string what;
  if (max_bytes != 0 && tracked_bytes >= max_bytes) {
    obs::flight::record(obs::flight::Ev::kBudgetTrip, bytes,
                        static_cast<std::int64_t>(max_bytes));
    what = " memory budget exhausted (" + std::to_string(tracked_bytes) +
           " tracked bytes, budget " + std::to_string(max_bytes) + ")";
  } else if (deadline != Clock::time_point::max() &&
             Clock::now() >= deadline) {
    obs::flight::record(obs::flight::Ev::kBudgetTrip, bytes, 0);
    what = " wall-clock budget exhausted";
  } else {
    return;
  }
  throw util::BudgetExhausted(std::string(engine) + what + "; ledger: " +
                              obs::MemLedger::global().attribution(3));
}

}  // namespace tsb::sim

#include "sim/schedule.hpp"

namespace tsb::sim {

Schedule Schedule::solo(ProcId p, std::size_t count) {
  Schedule s;
  s.steps_.assign(count, p);
  return s;
}

void Schedule::append(const Schedule& other) {
  steps_.insert(steps_.end(), other.steps_.begin(), other.steps_.end());
}

Schedule Schedule::prefix(std::size_t k) const {
  Schedule s;
  s.steps_.assign(steps_.begin(),
                  steps_.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(k, steps_.size())));
  return s;
}

util::ProcSet Schedule::participants() const {
  util::ProcSet set;
  for (ProcId p : steps_) set = set.with(p);
  return set;
}

bool Schedule::only(util::ProcSet p) const {
  for (ProcId q : steps_) {
    if (!p.contains(q)) return false;
  }
  return true;
}

std::string Schedule::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (i) out += " ";
    out += 'p' + std::to_string(steps_[i]);
  }
  return out;
}

}  // namespace tsb::sim

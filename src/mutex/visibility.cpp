#include "mutex/visibility.hpp"

#include <algorithm>
#include <cassert>

namespace tsb::mutex {

bool VisibilityGraph::tournament_complete() const {
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (!sees[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] &&
          !sees[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)]) {
        return false;
      }
    }
  }
  return true;
}

std::vector<sim::ProcId> VisibilityGraph::chain() const {
  std::vector<std::pair<int, sim::ProcId>> by_seen;
  for (int i = 0; i < n; ++i) {
    int count = 0;
    for (int j = 0; j < n; ++j) {
      if (sees[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        ++count;
      }
    }
    by_seen.emplace_back(count, i);
  }
  std::sort(by_seen.begin(), by_seen.end());
  std::vector<sim::ProcId> out;
  for (int i = 0; i < n; ++i) {
    if (by_seen[static_cast<std::size_t>(i)].first != i) return {};
    out.push_back(by_seen[static_cast<std::size_t>(i)].second);
  }
  return out;
}

std::size_t VisibilityGraph::edge_count() const {
  std::size_t count = 0;
  for (const auto& row : sees) {
    for (bool b : row) count += b ? 1 : 0;
  }
  return count;
}

std::string VisibilityGraph::to_string() const {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += 'p' + std::to_string(i) + " sees {";
    bool first = true;
    for (int j = 0; j < n; ++j) {
      if (sees[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)]) {
        if (!first) out += ",";
        out += 'p' + std::to_string(j);
        first = false;
      }
    }
    out += "}\n";
  }
  return out;
}

VisibilityGraph build_visibility(const CanonicalResult& result) {
  VisibilityGraph g;
  g.n = static_cast<int>(result.enter_step.size());
  g.sees.assign(static_cast<std::size_t>(g.n),
                std::vector<bool>(static_cast<std::size_t>(g.n), false));
  assert(result.completed);
  for (int i = 0; i < g.n; ++i) {
    for (int j = 0; j < g.n; ++j) {
      if (i == j) continue;
      // pi sees pj iff pj left the CS before pi entered it. Critical
      // sections are disjoint, so this orders every pair one way.
      if (result.leave_step[static_cast<std::size_t>(j)] <
          result.enter_step[static_cast<std::size_t>(i)]) {
        g.sees[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            true;
      }
    }
  }
  return g;
}

}  // namespace tsb::mutex

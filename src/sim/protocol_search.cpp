#include "sim/protocol_search.hpp"

#include <cassert>
#include <limits>

namespace tsb::sim {

namespace {
constexpr std::uint8_t kRead = 0;
constexpr std::uint8_t kWrite = 1;
constexpr std::uint8_t kDecide = 2;

// Register observations are mapped to {0: empty, 1: value 0, 2: value 1}.
int obs_index(Value v) {
  if (v == kEmptyRegister) return 0;
  return v == 0 ? 1 : 2;
}
}  // namespace

std::string TableProtocolSpec::to_string() const {
  std::string out;
  for (int s = 0; s < num_states(); ++s) {
    const auto us = static_cast<std::size_t>(s);
    out += 's' + std::to_string(s) + "(pref=" + std::to_string(s & 1) + "): ";
    switch (op_kind[us]) {
      case kRead:
        out += "read R" + std::to_string(op_reg[us]) + " ->[empty,0,1] s" +
               std::to_string(read_next[us * 3 + 0]) + ",s" +
               std::to_string(read_next[us * 3 + 1]) + ",s" +
               std::to_string(read_next[us * 3 + 2]);
        break;
      case kWrite:
        out += "write R" + std::to_string(op_reg[us]) + " := " +
               std::to_string(op_val[us]) + " -> s" +
               std::to_string(write_next[us]);
        break;
      default:
        out += "decide " + std::to_string(s & 1);
    }
    out += "; ";
  }
  return out;
}

TableProtocol::TableProtocol(TableProtocolSpec spec) : spec_(std::move(spec)) {
  [[maybe_unused]] const auto states = static_cast<std::size_t>(spec_.num_states());
  assert(spec_.op_kind.size() == states);
  assert(spec_.op_reg.size() == states);
  assert(spec_.op_val.size() == states);
  assert(spec_.read_next.size() == states * 3);
  assert(spec_.write_next.size() == states);
}

State TableProtocol::initial_state(ProcId, Value input) const {
  // mode 0, pref = input. Anonymous: independent of the process id.
  return input == 0 ? 0 : 1;
}

PendingOp TableProtocol::poised(ProcId, State s) const {
  const auto us = static_cast<std::size_t>(s);
  switch (spec_.op_kind[us]) {
    case kRead:
      return PendingOp::read(spec_.op_reg[us]);
    case kWrite:
      return PendingOp::write(spec_.op_reg[us], spec_.op_val[us]);
    default:
      return PendingOp::decide(s & 1);
  }
}

State TableProtocol::after_read(ProcId, State s, Value observed) const {
  return spec_.read_next[static_cast<std::size_t>(s) * 3 +
                         static_cast<std::size_t>(obs_index(observed))];
}

State TableProtocol::after_write(ProcId, State s) const {
  return spec_.write_next[static_cast<std::size_t>(s)];
}

std::size_t ProtocolSearch::family_size(const Options& opts) {
  const std::size_t s = static_cast<std::size_t>(2 * opts.modes);
  const std::size_t m = static_cast<std::size_t>(opts.m);
  // Per state: m reads x S^3 transition tables + 2m writes x S successors
  // + 1 decide.
  const std::size_t per_state = m * s * s * s + 2 * m * s + 1;
  std::size_t total = 1;
  for (std::size_t i = 0; i < s; ++i) {
    if (total > std::numeric_limits<std::size_t>::max() / per_state) {
      return std::numeric_limits<std::size_t>::max();
    }
    total *= per_state;
  }
  return total;
}

bool ProtocolSearch::plausible(const TableProtocolSpec& spec) {
  // A protocol that can never decide is hopeless; skip the model checker.
  for (std::uint8_t k : spec.op_kind) {
    if (k == kDecide) return true;
  }
  return false;
}

void ProtocolSearch::check_one(const Options& opts,
                               const TableProtocolSpec& spec, Stats& stats) {
  ++stats.candidates;
  if (!plausible(spec)) {
    ++stats.skipped_trivial;
    return;
  }
  TableProtocol proto(spec);

  ModelChecker::Options safety_opts;
  safety_opts.k = 1;
  safety_opts.max_configs = opts.max_configs;
  safety_opts.check_solo_termination = false;
  ModelChecker safety(proto, safety_opts);
  auto safety_rep = safety.check_all_binary_inputs();
  if (!safety_rep.ok || safety_rep.truncated) return;
  ++stats.safe;

  ModelChecker::Options live_opts = safety_opts;
  live_opts.check_solo_termination = true;
  live_opts.solo_step_cap = opts.solo_step_cap;
  ModelChecker live(proto, live_opts);
  auto live_rep = live.check_all_binary_inputs();
  if (!live_rep.ok || live_rep.truncated) return;
  ++stats.live;
  stats.winners.push_back(spec);
}

ProtocolSearch::Stats ProtocolSearch::exhaustive(const Options& opts) {
  Stats stats;
  const int s_count = 2 * opts.modes;
  TableProtocolSpec spec;
  spec.n = opts.n;
  spec.m = opts.m;
  spec.modes = opts.modes;
  const auto us_count = static_cast<std::size_t>(s_count);
  spec.op_kind.assign(us_count, kDecide);
  spec.op_reg.assign(us_count, 0);
  spec.op_val.assign(us_count, 0);
  spec.read_next.assign(us_count * 3, 0);
  spec.write_next.assign(us_count, 0);

  bool stop = false;
  auto capped = [&] {
    return opts.max_candidates != 0 && stats.candidates >= opts.max_candidates;
  };

  // Depth-first enumeration over states; per state, iterate its local
  // branches (action + the transitions that action actually uses), so no
  // genome is visited twice with differing don't-care digits.
  std::function<void(int)> go = [&](int s) {
    if (stop) return;
    if (s == s_count) {
      check_one(opts, spec, stats);
      if (capped()) stop = true;
      return;
    }
    const auto us = static_cast<std::size_t>(s);

    // Reads.
    spec.op_kind[us] = kRead;
    for (int reg = 0; reg < opts.m && !stop; ++reg) {
      spec.op_reg[us] = static_cast<std::uint8_t>(reg);
      for (int a = 0; a < s_count && !stop; ++a) {
        spec.read_next[us * 3 + 0] = static_cast<std::uint8_t>(a);
        for (int b = 0; b < s_count && !stop; ++b) {
          spec.read_next[us * 3 + 1] = static_cast<std::uint8_t>(b);
          for (int c = 0; c < s_count && !stop; ++c) {
            spec.read_next[us * 3 + 2] = static_cast<std::uint8_t>(c);
            go(s + 1);
          }
        }
      }
    }
    spec.read_next[us * 3 + 0] = spec.read_next[us * 3 + 1] =
        spec.read_next[us * 3 + 2] = 0;

    // Writes.
    spec.op_kind[us] = kWrite;
    for (int reg = 0; reg < opts.m && !stop; ++reg) {
      spec.op_reg[us] = static_cast<std::uint8_t>(reg);
      for (int val = 0; val <= 1 && !stop; ++val) {
        spec.op_val[us] = static_cast<std::uint8_t>(val);
        for (int nxt = 0; nxt < s_count && !stop; ++nxt) {
          spec.write_next[us] = static_cast<std::uint8_t>(nxt);
          go(s + 1);
        }
      }
    }
    spec.op_reg[us] = spec.op_val[us] = spec.write_next[us] = 0;

    // Decide.
    if (!stop) {
      spec.op_kind[us] = kDecide;
      go(s + 1);
    }
  };
  go(0);
  return stats;
}

ProtocolSearch::Stats ProtocolSearch::sample(const Options& opts,
                                             std::size_t count,
                                             util::Rng& rng) {
  Stats stats;
  const int s_count = 2 * opts.modes;
  const auto us_count = static_cast<std::size_t>(s_count);
  const std::uint64_t s64 = static_cast<std::uint64_t>(s_count);
  const std::uint64_t m64 = static_cast<std::uint64_t>(opts.m);
  const std::uint64_t read_branches = m64 * s64 * s64 * s64;
  const std::uint64_t write_branches = 2 * m64 * s64;
  const std::uint64_t per_state = read_branches + write_branches + 1;

  for (std::size_t i = 0; i < count; ++i) {
    TableProtocolSpec spec;
    spec.n = opts.n;
    spec.m = opts.m;
    spec.modes = opts.modes;
    spec.op_kind.assign(us_count, kDecide);
    spec.op_reg.assign(us_count, 0);
    spec.op_val.assign(us_count, 0);
    spec.read_next.assign(us_count * 3, 0);
    spec.write_next.assign(us_count, 0);

    for (std::size_t us = 0; us < us_count; ++us) {
      std::uint64_t branch = rng.below(per_state);
      if (branch < read_branches) {
        spec.op_kind[us] = kRead;
        spec.op_reg[us] = static_cast<std::uint8_t>(branch % m64);
        branch /= m64;
        spec.read_next[us * 3 + 0] = static_cast<std::uint8_t>(branch % s64);
        branch /= s64;
        spec.read_next[us * 3 + 1] = static_cast<std::uint8_t>(branch % s64);
        branch /= s64;
        spec.read_next[us * 3 + 2] = static_cast<std::uint8_t>(branch % s64);
      } else if (branch < read_branches + write_branches) {
        branch -= read_branches;
        spec.op_kind[us] = kWrite;
        spec.op_reg[us] = static_cast<std::uint8_t>(branch % m64);
        branch /= m64;
        spec.op_val[us] = static_cast<std::uint8_t>(branch % 2);
        branch /= 2;
        spec.write_next[us] = static_cast<std::uint8_t>(rng.below(s64));
      } else {
        spec.op_kind[us] = kDecide;
      }
    }
    check_one(opts, spec, stats);
  }
  return stats;
}

}  // namespace tsb::sim

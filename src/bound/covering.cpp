#include "bound/covering.hpp"

namespace tsb::bound {

std::optional<RegId> covered_register(const Protocol& proto, const Config& c,
                                      ProcId p) {
  const sim::PendingOp op = sim::poised_in(proto, c, p);
  if (op.is_write()) return op.reg;
  return std::nullopt;
}

bool is_covering_set(const Protocol& proto, const Config& c, ProcSet r) {
  bool ok = true;
  r.for_each([&](int p) {
    if (!covered_register(proto, c, p)) ok = false;
  });
  return ok;
}

std::set<RegId> covered_registers(const Protocol& proto, const Config& c,
                                  ProcSet r) {
  std::set<RegId> regs;
  r.for_each([&](int p) {
    if (auto reg = covered_register(proto, c, p)) regs.insert(*reg);
  });
  return regs;
}

bool well_spread(const Protocol& proto, const Config& c, ProcSet r) {
  if (!is_covering_set(proto, c, r)) return false;
  return static_cast<int>(covered_registers(proto, c, r).size()) == r.size();
}

Schedule block_write(ProcSet r) {
  Schedule beta;
  r.for_each([&](int p) { beta.push(p); });
  return beta;
}

std::string describe_covering(const Protocol& proto, const Config& c,
                              ProcSet r) {
  std::string out;
  r.for_each([&](int p) {
    if (!out.empty()) out += ", ";
    out += 'p' + std::to_string(p);
    if (auto reg = covered_register(proto, c, p)) {
      out += " covers R" + std::to_string(*reg);
    } else {
      out += " covers nothing";
    }
  });
  return out.empty() ? "(empty covering set)" : out;
}

}  // namespace tsb::bound

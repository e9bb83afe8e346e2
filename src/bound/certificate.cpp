#include "bound/certificate.hpp"

namespace tsb::bound {

CertificateCheck check_certificate(const sim::Protocol& proto,
                                   const CoveringCertificate& cert) {
  CertificateCheck out;

  if (static_cast<int>(cert.inputs.size()) != proto.num_processes()) {
    out.error = "input vector size does not match process count";
    return out;
  }

  const sim::Config init = sim::initial_config(proto, cert.inputs);
  const sim::Config final_cfg = sim::run(proto, init, cert.schedule);

  // 1. Claimed poised writes.
  for (auto [p, r] : cert.covering) {
    const sim::PendingOp op = sim::poised_in(proto, final_cfg, p);
    if (!op.is_write()) {
      out.error = 'p' + std::to_string(p) + " is not poised to write";
      return out;
    }
    if (op.reg != r) {
      out.error = 'p' + std::to_string(p) + " covers R" +
                  std::to_string(op.reg) + ", certificate claims R" +
                  std::to_string(r);
      return out;
    }
    out.registers.insert(r);
  }

  // 2. Distinctness.
  if (out.registers.size() != cert.covering.size()) {
    out.error = "claimed covered registers are not pairwise distinct";
    return out;
  }
  out.distinct_registers = static_cast<int>(out.registers.size());

  // 3. The block write by the claimed processes writes exactly them.
  sim::Schedule block;
  for (auto [p, r] : cert.covering) block.push(p);
  sim::Trace trace;
  (void)sim::run(proto, final_cfg, block, &trace);
  out.written_after_block = trace.registers_written();
  if (out.written_after_block != out.registers) {
    out.error = "block write did not write exactly the covered registers";
    return out;
  }

  out.ok = true;
  return out;
}

}  // namespace tsb::bound

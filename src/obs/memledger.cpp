#include "obs/memledger.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "obs/jsonl_sink.hpp"

namespace tsb::obs {

const char* mem_account_name(MemAccount a) {
  switch (a) {
    case MemAccount::kArenaWords: return "arena.words";
    case MemAccount::kArenaTable: return "arena.table";
    case MemAccount::kArenaSpill: return "arena.spill";
    case MemAccount::kArenaMapped: return "arena.mapped";
    case MemAccount::kExploreFrontier: return "explore.frontier";
    case MemAccount::kReachNodes: return "reach.nodes";
    case MemAccount::kReachEdges: return "reach.edges";
    case MemAccount::kGraphSpill: return "graph.spill";
    case MemAccount::kGraphMapped: return "graph.mapped";
    case MemAccount::kReachFacts: return "reach.facts";
    case MemAccount::kReachQuery: return "reach.query";
    case MemAccount::kValencyMemo: return "valency.memo";
    case MemAccount::kCkptState: return "ckpt.state";
    case MemAccount::kCount: break;
  }
  return "?";
}

MemLedger& MemLedger::global() {
  // Leaked like Registry::global(): instrumented code must be able to
  // update accounts during static destruction.
  static MemLedger* ledger = new MemLedger();
  return *ledger;
}

std::uint64_t MemLedger::total() const {
  std::uint64_t t = 0;
  for (const Cell& c : cells_) t += c.cur.load(std::memory_order_relaxed);
  return t;
}

std::uint64_t MemLedger::peak_total() const {
  std::uint64_t t = 0;
  for (const Cell& c : cells_) t += c.peak.load(std::memory_order_relaxed);
  return t;
}

void MemLedger::reset() {
  for (Cell& c : cells_) {
    c.cur.store(0, std::memory_order_relaxed);
    c.peak.store(0, std::memory_order_relaxed);
  }
}

std::vector<MemLedger::Row> MemLedger::snapshot() const {
  std::vector<Row> rows;
  for (int i = 0; i < kMemAccounts; ++i) {
    const auto a = static_cast<MemAccount>(i);
    const Row r{a, get(a), peak(a)};
    if (r.bytes != 0 || r.peak != 0) rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& x, const Row& y) { return x.bytes > y.bytes; });
  return rows;
}

std::string MemLedger::json() const {
  JsonObj o;
  for (const Row& r : snapshot()) {
    o.num(mem_account_name(r.account), static_cast<std::int64_t>(r.bytes));
  }
  return o.render();
}

std::string MemLedger::attribution(int top) const {
  const std::vector<Row> rows = snapshot();
  const std::uint64_t t = total();
  std::string out;
  int shown = 0;
  for (const Row& r : rows) {
    if (shown == top || r.bytes == 0) break;
    if (shown) out += ", ";
    out += mem_account_name(r.account);
    out += ' ';
    out += format_bytes(r.bytes);
    if (t > 0) {
      char pct[16];
      std::snprintf(pct, sizeof(pct), " (%.0f%%)",
                    100.0 * static_cast<double>(r.bytes) /
                        static_cast<double>(t));
      out += pct;
    }
    ++shown;
  }
  return out.empty() ? "no tracked allocations" : out;
}

void MemLedger::render(std::ostream& out) const {
  const std::vector<Row> rows = snapshot();
  const std::uint64_t t = total();
  out << "memory ledger (tracked " << format_bytes(t) << ", tracked peak "
      << format_bytes(peak_total()) << "):\n";
  if (rows.empty()) {
    out << "  (no tracked allocations)\n";
    return;
  }
  for (const Row& r : rows) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-17s %10s  (peak %10s)  %5.1f%%\n",
                  mem_account_name(r.account), format_bytes(r.bytes).c_str(),
                  format_bytes(r.peak).c_str(),
                  t > 0 ? 100.0 * static_cast<double>(r.bytes) /
                              static_cast<double>(t)
                        : 0.0);
    out << line;
  }
}

void MemLedger::emit_record() const {
  if (!stats_enabled()) return;
  JsonObj rec = audit_event("ledger");
  rec.num("total", static_cast<std::int64_t>(total()))
      .num("peak_total", static_cast<std::int64_t>(peak_total()))
      .raw("accounts", json());
  JsonObj peaks;
  for (const Row& r : snapshot()) {
    peaks.num(mem_account_name(r.account), static_cast<std::int64_t>(r.peak));
  }
  rec.raw("peaks", peaks.render());
  stats_sink().write(rec.render());
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1fGiB",
                  static_cast<double>(bytes) / (1ull << 30));
  } else if (bytes >= (1ull << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB",
                  static_cast<double>(bytes) / (1ull << 20));
  } else if (bytes >= (1ull << 10)) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB",
                  static_cast<double>(bytes) / (1ull << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace tsb::obs

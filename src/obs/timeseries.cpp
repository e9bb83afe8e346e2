#include "obs/timeseries.hpp"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace tsb::obs::telemetry {

namespace detail {
std::atomic<bool> g_telemetry_enabled{false};
}  // namespace detail

namespace {

// All state under one mutex: ticks are heartbeat-cadence rare, and the
// writer may be any engine thread that beats the heartbeat or the CLI's
// final-snapshot path.
std::mutex g_mu;
std::FILE* g_file = nullptr;
std::uint64_t g_tick = 0;
std::chrono::steady_clock::time_point g_epoch{};
std::uint64_t g_mem_budget = 0;
std::int64_t (*g_ckpt_age_fn)() = nullptr;
std::uint64_t g_ckpt_interval_ms = 0;

// Previous tick, for the interval rate. Rates only make sense within one
// phase: visited restarts when an engine hands off.
std::string g_prev_phase;
std::int64_t g_prev_visited = -1;
double g_prev_t = 0.0;

void write_line(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), g_file);
  std::fputc('\n', g_file);
  // Flushed per record: a killed campaign keeps everything up to the last
  // completed interval, and a truncated final line is the worst case the
  // consumers must (and do) tolerate.
  std::fflush(g_file);
}

}  // namespace

bool open(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_file != nullptr) {
    std::fclose(g_file);
    g_file = nullptr;
  }
  g_file = std::fopen(path.c_str(), "w");
  if (g_file == nullptr) {
    detail::g_telemetry_enabled.store(false, std::memory_order_relaxed);
    return false;
  }
  g_tick = 0;
  g_epoch = std::chrono::steady_clock::now();
  g_prev_phase.clear();
  g_prev_visited = -1;
  g_prev_t = 0.0;
  Watchdog::global().reset();
  detail::g_telemetry_enabled.store(true, std::memory_order_relaxed);
  return true;
}

void close() {
  std::lock_guard<std::mutex> lock(g_mu);
  detail::g_telemetry_enabled.store(false, std::memory_order_relaxed);
  if (g_file != nullptr) {
    std::fclose(g_file);
    g_file = nullptr;
  }
}

void set_mem_budget(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_mem_budget = bytes;
}

void set_tick_base(std::uint64_t base) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_tick = base;
}

void set_ckpt_probe(std::int64_t (*age_s)(), std::uint64_t interval_ms) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_ckpt_age_fn = age_s;
  g_ckpt_interval_ms = interval_ms;
}

std::uint64_t ticks() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_tick;
}

void tick(const StatusSnapshot& s) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_file == nullptr) return;

  const double t_s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - g_epoch)
                         .count();
  const std::uint64_t id = g_tick++;

  double cps = -1.0;
  if (s.visited >= 0 && g_prev_visited >= 0 && s.phase == g_prev_phase &&
      t_s > g_prev_t && s.visited >= g_prev_visited) {
    cps = static_cast<double>(s.visited - g_prev_visited) / (t_s - g_prev_t);
  }

  MemLedger& ledger = MemLedger::global();
  Registry& reg = Registry::global();

  JsonObj o;
  o.str("type", "telemetry.tick")
      .num("tick", static_cast<std::int64_t>(id))
      .numf("t_s", t_s)
      .str("phase", s.phase);
  if (s.level >= 0) o.num("level", s.level);
  if (s.frontier >= 0) o.num("frontier", s.frontier);
  if (s.visited >= 0) o.num("visited", s.visited);
  if (s.cap >= 0) o.num("cap", s.cap);
  if (cps >= 0) o.numf("cps", cps);
  o.num("peak_rss_kb", peak_rss_kb())
      .num("ledger_total", static_cast<std::int64_t>(ledger.total()))
      .raw("ledger", ledger.json())
      .raw("counters", reg.counters_json())
      .raw("gauges", reg.gauges_json());
  write_line(o.render());

  WatchSample w;
  w.tick = id;
  w.t_s = t_s;
  w.phase = s.phase;
  w.visited = s.visited;
  w.frontier = s.frontier;
  w.cps = cps;
  w.mapped_bytes = ledger.get(MemAccount::kArenaMapped);
  w.spill_bytes = ledger.get(MemAccount::kArenaSpill);
  w.ledger_total = ledger.total();
  w.mem_budget = g_mem_budget;
  w.ckpt_age_s = g_ckpt_age_fn != nullptr ? g_ckpt_age_fn() : -1;
  w.ckpt_interval_ms = g_ckpt_interval_ms;

  Watchdog& dog = Watchdog::global();
  for (const WatchAlert& a : dog.observe(w)) {
    const char* rule = watch_rule_name(a.rule);
    JsonObj alert;
    alert.str("type", "watch.alert")
        .str("rule", rule)
        .num("tick", static_cast<std::int64_t>(a.tick))
        .numf("t_s", t_s)
        .str("phase", s.phase)
        .str("detail", a.detail);
    write_line(alert.render());
    std::fprintf(stderr, "[watch +%.1fs] %s: %s (tick %llu)\n", t_s, rule,
                 a.detail.c_str(), static_cast<unsigned long long>(a.tick));
    std::fflush(stderr);
    flight::record(flight::Ev::kWatch, static_cast<std::int64_t>(a.rule),
                   static_cast<std::int64_t>(a.tick));
  }
  for (WatchRule r : dog.cleared_last()) {
    JsonObj clear;
    clear.str("type", "watch.clear")
        .str("rule", watch_rule_name(r))
        .num("tick", static_cast<std::int64_t>(id))
        .numf("t_s", t_s);
    write_line(clear.render());
  }

  g_prev_phase = s.phase;
  g_prev_visited = s.visited;
  g_prev_t = t_s;
}

}  // namespace tsb::obs::telemetry

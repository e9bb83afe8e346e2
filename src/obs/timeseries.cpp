#include "obs/timeseries.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"

namespace tsb::obs::telemetry {

namespace {

// All state under one mutex: ticks are heartbeat-cadence rare, and the
// writer may be any engine thread that beats the heartbeat or the CLI's
// final-tick path.
std::mutex g_mu;
std::uint64_t g_tick = 0;
std::uint64_t g_mem_budget = 0;
std::chrono::steady_clock::time_point g_deadline =
    std::chrono::steady_clock::time_point::max();
std::int64_t (*g_ckpt_age_fn)() = nullptr;
std::uint64_t g_ckpt_interval_ms = 0;

// Previous tick, for the interval rate. Rates only make sense within one
// phase: visited restarts when an engine hands off.
std::string g_prev_phase;
std::int64_t g_prev_visited = -1;
double g_prev_t = 0.0;

}  // namespace

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_tick = 0;
  g_mem_budget = 0;
  g_deadline = std::chrono::steady_clock::time_point::max();
  g_prev_phase.clear();
  g_prev_visited = -1;
  g_prev_t = 0.0;
}

void set_budgets(std::uint64_t mem_bytes,
                 std::chrono::steady_clock::time_point deadline) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_mem_budget = mem_bytes;
  g_deadline = deadline;
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

void tick(const Sample& s) {
  if (!stats_enabled()) return;
  JsonlSink& sink = stats_sink();
  std::lock_guard<std::mutex> lock(g_mu);

  // One clock for the whole stream: ticks carry the sink's ts_ns, like the
  // decision trail.
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t ts_ns = sink.now_ns();
  const double t_s = static_cast<double>(ts_ns) / 1e9;
  const std::uint64_t id = g_tick++;

  double cps = -1.0;
  if (s.visited >= 0 && g_prev_visited >= 0 && s.phase == g_prev_phase &&
      t_s > g_prev_t && s.visited >= g_prev_visited) {
    cps = static_cast<double>(s.visited - g_prev_visited) / (t_s - g_prev_t);
  }

  MemLedger& ledger = MemLedger::global();
  Registry& reg = Registry::global();

  JsonObj o = audit_event("telemetry.tick", ts_ns);
  o.num("tick", static_cast<std::int64_t>(id)).str("phase", s.phase);
  if (s.level >= 0) o.num("level", s.level);
  if (s.frontier >= 0) o.num("frontier", s.frontier);
  if (s.visited >= 0) o.num("visited", s.visited);
  if (s.cap >= 0) o.num("cap", s.cap);
  if (s.covered >= 0) o.num("covered", s.covered);
  if (cps >= 0) o.numf("cps", cps);
  if (g_deadline != std::chrono::steady_clock::time_point::max()) {
    // Seconds left, floored at 0 once the deadline has passed.
    o.numf("deadline_s",
           std::max(0.0, std::chrono::duration<double>(g_deadline - now)
                             .count()));
  }
  if (flight::enabled()) {
    o.num("flight_events",
          static_cast<std::int64_t>(flight::events_recorded()));
  }
  // The inputs of RunReport's ledger-runaway and checkpoint-stall rules,
  // present only when the run configures them.
  const auto i64 = [](std::uint64_t v) {
    return static_cast<std::int64_t>(std::min<std::uint64_t>(v, INT64_MAX));
  };
  if (g_mem_budget != 0) o.num("mem_budget", i64(g_mem_budget));
  if (g_ckpt_age_fn != nullptr) {
    o.num("ckpt_age_s", g_ckpt_age_fn())
        .num("ckpt_interval_ms", i64(g_ckpt_interval_ms));
  }
  o.num("peak_rss_kb", peak_rss_kb())
      .num("ledger_total", static_cast<std::int64_t>(ledger.total()))
      .raw("ledger", ledger.json())
      .raw("counters", reg.counters_json())
      .raw("gauges", reg.gauges_json());
  sink.write(o.render());

  g_prev_phase = s.phase;
  g_prev_visited = s.visited;
  g_prev_t = t_s;
  // Flushed per tick: a killed campaign keeps everything up to the last
  // completed interval, and a truncated final line is the worst case the
  // consumers must (and do) tolerate.
  sink.flush();
}

}  // namespace tsb::obs::telemetry

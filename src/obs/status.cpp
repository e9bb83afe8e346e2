#include "obs/status.hpp"

#include <cstdio>
#include <chrono>
#include <mutex>

#include <vector>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"

namespace tsb::obs {

namespace detail {
std::atomic<bool> g_status_enabled{false};
}  // namespace detail

namespace {

std::mutex g_status_mu;
std::string g_status_path;
std::chrono::steady_clock::time_point g_status_epoch{};
std::chrono::steady_clock::time_point g_status_deadline =
    std::chrono::steady_clock::time_point::max();

}  // namespace

void set_status_file(const std::string& path) {
  std::lock_guard<std::mutex> lock(g_status_mu);
  g_status_path = path;
  g_status_epoch = std::chrono::steady_clock::now();
  detail::g_status_enabled.store(!path.empty(), std::memory_order_relaxed);
}

void set_status_deadline_ms(std::uint64_t ms_from_now) {
  std::lock_guard<std::mutex> lock(g_status_mu);
  g_status_deadline =
      ms_from_now == 0
          ? std::chrono::steady_clock::time_point::max()
          : std::chrono::steady_clock::now() +
                std::chrono::milliseconds(ms_from_now);
}

void publish_status(const StatusSnapshot& s) {
  if (!status_enabled()) return;
  std::lock_guard<std::mutex> lock(g_status_mu);
  if (g_status_path.empty()) return;

  const auto now = std::chrono::steady_clock::now();
  const double uptime =
      std::chrono::duration<double>(now - g_status_epoch).count();
  JsonObj o;
  o.str("phase", s.phase).numf("uptime_s", uptime);
  if (s.level >= 0) o.num("level", s.level);
  if (s.frontier >= 0) o.num("frontier", s.frontier);
  if (s.visited >= 0) o.num("visited", s.visited);
  if (s.cap >= 0) o.num("cap", s.cap);
  double cps = 0.0;
  if (s.visited > 0 && uptime > 0.0) {
    cps = static_cast<double>(s.visited) / uptime;
    o.numf("configs_per_sec", cps);
  }
  if (cps > 0.0 && s.cap > s.visited) {
    o.numf("eta_cap_s", static_cast<double>(s.cap - s.visited) / cps);
  }
  if (g_status_deadline != std::chrono::steady_clock::time_point::max()) {
    o.numf("eta_deadline_s",
           std::chrono::duration<double>(g_status_deadline - now).count());
  }
  // Active watchdog episodes, so a `tsb top` watcher sees the anomaly the
  // moment the telemetry tick latches it (empty and omitted when quiet or
  // when no --telemetry file is feeding the watchdog).
  const std::vector<WatchRule> alerts = Watchdog::global().active_rules();
  if (!alerts.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < alerts.size(); ++i) {
      if (i > 0) arr += ",";
      arr += std::string("\"") + watch_rule_name(alerts[i]) + "\"";
    }
    arr += "]";
    o.raw("watch", arr);
  }
  MemLedger& ledger = MemLedger::global();
  o.num("ledger_total", static_cast<std::int64_t>(ledger.total()))
      .raw("ledger", ledger.json())
      .num("peak_rss_kb", peak_rss_kb())
      .num("flight_events",
           static_cast<std::int64_t>(flight::enabled()
                                         ? flight::events_recorded()
                                         : 0));

  // Atomic rewrite: a reader either sees the previous snapshot or this
  // one, never a prefix.
  const std::string tmp = g_status_path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  const std::string body = o.render();
  std::fwrite(body.data(), 1, body.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::rename(tmp.c_str(), g_status_path.c_str());
}

}  // namespace tsb::obs

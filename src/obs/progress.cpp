#include "obs/progress.hpp"

#include <atomic>
#include <cstdio>
#include <string>
#include <utility>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace tsb::obs {

namespace {
std::atomic<bool> progress_on{false};
std::atomic<std::int64_t> interval_ms{1000};
}  // namespace

void set_progress(bool on) {
  progress_on.store(on, std::memory_order_relaxed);
}

bool progress_enabled() {
  return progress_on.load(std::memory_order_relaxed);
}

void set_progress_interval(std::chrono::milliseconds interval) {
  interval_ms.store(interval.count(), std::memory_order_relaxed);
}

std::chrono::milliseconds progress_interval() {
  return std::chrono::milliseconds(
      interval_ms.load(std::memory_order_relaxed));
}

Heartbeat::Heartbeat(const char* what) : Heartbeat(what, progress_interval()) {}

Heartbeat::Heartbeat(const char* what, std::chrono::milliseconds interval)
    : what_(what),
      interval_(interval),
      start_(std::chrono::steady_clock::now()),
      last_(start_) {}

void Heartbeat::beat(const SampleFn& sample) {
  // A SIGUSR1 dump request is served from here even when neither progress
  // nor the stats stream is on: the beat is the one rate-limited hook every
  // long-running engine already calls.
  flight::service_dump_request();
  const bool prog = progress_enabled();
  const bool ticks = stats_enabled();
  if (!prog && !ticks) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_ < interval_) return;
  last_ = now;
  // Mid-level RSS sample: level boundaries can be minutes apart at n >= 6,
  // and a blowup inside one must show in progress lines and telemetry
  // ticks, not only post mortem.
  const std::int64_t rss = peak_rss_kb();
  static Gauge& rss_gauge = Registry::global().gauge("process.peak_rss_kb");
  rss_gauge.set(rss);
  Sample s;
  s.phase = what_;
  sample(s);
  if (prog) {
    const double secs = std::chrono::duration<double>(now - start_).count();
    std::string fields;
    for (const auto& [name, v] :
         {std::pair{"level", s.level}, std::pair{"frontier", s.frontier},
          std::pair{"visited", s.visited}, std::pair{"cap", s.cap},
          std::pair{"covered", s.covered}}) {
      if (v >= 0) fields += std::string(name) + "=" + std::to_string(v) + " ";
    }
    std::fprintf(stderr, "[%s +%.1fs] %srss=%lldKiB tracked=%s\n", s.phase,
                 secs, fields.c_str(), static_cast<long long>(rss),
                 format_bytes(MemLedger::global().total()).c_str());
    std::fflush(stderr);
  }
  if (ticks) telemetry::tick(s);
}

}  // namespace tsb::obs

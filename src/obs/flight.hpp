#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace tsb::obs::flight {

/// Typed flight-recorder events. Each carries two int64 payload slots whose
/// meaning is fixed per type (and rendered by `tsb report`):
enum class Ev : std::uint8_t {
  kNone = 0,
  kLevel,         ///< BFS level committed: a=level index, b=frontier size
  kBudgetCheck,   ///< budget poll: a=tracked bytes, b=budget bytes (0=off)
  kBudgetTrip,    ///< budget exhausted: a=tracked bytes, b=budget bytes
  kValencyQuery,  ///< oracle lookup: a=root config id, b=1 if memo hit
  kReachQuery,    ///< shared-graph query: a=node id, b=pbits
  kChaosFault,    ///< rt fault injected: a=thread id, b=fault kind
  kPhase,         ///< adversary stage entered: a=phase code (see phase_name)
  kSpill,         ///< arena spill: a=bytes released, b=total spilled bytes
  kCkpt,          ///< checkpoint committed: a=state-file bytes, b=write ms
};

const char* ev_name(Ev ev);
/// Names for Ev::kPhase payloads (0=proposition2, 1=lemma4, 2=lemma3,
/// 3=solo_escape).
const char* phase_name(std::int64_t code);

namespace detail {
extern std::atomic<bool> g_flight_enabled;
extern std::atomic<bool> g_dump_requested;
void record_impl(Ev ev, std::int64_t a, std::int64_t b);
}  // namespace detail

/// Kept apart from the stats stream on purpose: rings are dumped from a
/// fatal-signal handler (SIGSEGV, SIGABRT, ...), where the stream's mutex
/// and stdio cannot be used.
///
/// Per-thread lock-free ring buffers of the last `ring_events` events each
/// (power of two, default 64k). Recording is wait-free for the owning
/// thread: a steady-clock read plus three relaxed stores into the ring.
/// Rings are registered on a thread's first event and leaked, so a dump
/// triggered from any context can walk every ring; slots are relaxed
/// atomics, making concurrent dumps TSan-clean at the cost of the odd torn
/// event in a mid-write slot (a forensics tool can live with one garbage
/// line in 64k).
void enable(std::size_t ring_events = 1u << 16);
void disable();

inline bool enabled() {
  return detail::g_flight_enabled.load(std::memory_order_relaxed);
}

/// The single instrumentation entry point: one relaxed load when the
/// recorder is off.
inline void record(Ev ev, std::int64_t a = 0, std::int64_t b = 0) {
  if (!enabled()) return;
  detail::record_impl(ev, a, b);
}

std::uint64_t events_recorded();

/// Dump every ring, oldest surviving event first per thread, as JSONL:
/// one {"type":"flight.dump",...} header then {"type":"flight.event",...}
/// lines. Stdio path — not for signal context. False if the file cannot
/// be opened or a line fails to write.
bool dump(const std::string& path, const char* reason);

/// Where signal-triggered dumps go (also the default `dump()` target the
/// CLI uses at exit). Truncated to an internal fixed buffer so the fatal
/// handler never allocates.
void set_dump_path(const std::string& path);

/// Install SIGUSR1 (request an in-band dump, serviced by the next
/// Heartbeat::beat) and fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/
/// SIGFPE: write the rings with raw write(2), restore the default handler,
/// re-raise).
void install_signal_handlers();

/// True if a SIGUSR1 arrived; clears the request and dumps to the
/// configured path. Called from the Heartbeat path — one relaxed load when
/// no request is pending.
bool service_dump_request();

}  // namespace tsb::obs::flight

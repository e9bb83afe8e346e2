#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace tsb::obs::flight {

const char* ev_name(Ev ev) {
  switch (ev) {
    case Ev::kNone: return "none";
    case Ev::kLevel: return "level";
    case Ev::kBudgetCheck: return "budget.check";
    case Ev::kBudgetTrip: return "budget.trip";
    case Ev::kValencyQuery: return "valency.query";
    case Ev::kReachQuery: return "reach.query";
    case Ev::kChaosFault: return "chaos.fault";
    case Ev::kPhase: return "phase";
    case Ev::kSpill: return "spill";
    case Ev::kCkpt: return "ckpt";
  }
  return "?";
}

const char* phase_name(std::int64_t code) {
  switch (code) {
    case 0: return "proposition2";
    case 1: return "lemma4";
    case 2: return "lemma3";
    case 3: return "solo_escape";
  }
  return "?";
}

namespace detail {
std::atomic<bool> g_flight_enabled{false};
std::atomic<bool> g_dump_requested{false};
}  // namespace detail

namespace {

// One slot = 3 relaxed atomics. ts_ev packs nanoseconds-since-enable in
// the high 56 bits and the event type in the low 8 (2+ years of range).
struct Slot {
  std::atomic<std::uint64_t> ts_ev{0};
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
};

struct Ring {
  explicit Ring(int tid, std::size_t cap) : tid(tid), slots(cap) {}
  int tid;
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};  ///< events ever written
};

std::mutex g_rings_mu;
std::vector<Ring*>& rings() {
  static std::vector<Ring*>* v = new std::vector<Ring*>();
  return *v;
}

thread_local Ring* t_ring = nullptr;

std::size_t g_ring_events = 1u << 16;
std::chrono::steady_clock::time_point g_epoch{};

char g_dump_path[512] = "flight.jsonl";

std::uint64_t now_rel_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count());
}

// One formatted line; false if it did not all reach the file.
bool put_line(int fd, const char* buf, int len) {
  return len > 0 && write(fd, buf, static_cast<std::size_t>(len)) == len;
}

// Signal-context dump: snprintf into a stack buffer + write(2) per line,
// no allocation, no stdio streams, no locks (a fatal handler cannot wait
// for a writer mid-record anyway — relaxed slot reads tolerate the race).
// False if any line failed to write.
bool dump_fd(int fd, const char* reason) {
  char buf[256];
  std::uint64_t total = 0;
  std::size_t nrings = 0;
  // Walking the registry unlocked: rings are only ever appended and never
  // freed, and fatal handlers cannot take the mutex.
  std::vector<Ring*>& rs = rings();
  nrings = rs.size();
  for (std::size_t i = 0; i < nrings; ++i) {
    total += rs[i]->head.load(std::memory_order_relaxed);
  }
  int len = std::snprintf(
      buf, sizeof(buf),
      "{\"type\":\"flight.dump\",\"reason\":\"%s\",\"threads\":%zu,"
      "\"events\":%llu,\"ring_events\":%zu}\n",
      reason, nrings, static_cast<unsigned long long>(total), g_ring_events);
  bool ok = put_line(fd, buf, len);
  for (std::size_t i = 0; i < nrings; ++i) {
    Ring* r = rs[i];
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t cap = r->slots.size();
    const std::uint64_t lo = head > cap ? head - cap : 0;
    for (std::uint64_t seq = lo; seq < head; ++seq) {
      const Slot& s = r->slots[seq & (cap - 1)];
      const std::uint64_t ts_ev = s.ts_ev.load(std::memory_order_relaxed);
      const Ev ev = static_cast<Ev>(ts_ev & 0xFF);
      len = std::snprintf(
          buf, sizeof(buf),
          "{\"type\":\"flight.event\",\"tid\":%d,\"seq\":%llu,"
          "\"ts_ns\":%llu,\"ev\":\"%s\",\"a\":%lld,\"b\":%lld}\n",
          r->tid, static_cast<unsigned long long>(seq),
          static_cast<unsigned long long>(ts_ev >> 8), ev_name(ev),
          static_cast<long long>(s.a.load(std::memory_order_relaxed)),
          static_cast<long long>(s.b.load(std::memory_order_relaxed)));
      ok = put_line(fd, buf, len) && ok;
    }
  }
  return ok;
}

void sigusr1_handler(int) {
  detail::g_dump_requested.store(true, std::memory_order_relaxed);
}

void fatal_handler(int sig) {
  const int fd =
      open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    (void)dump_fd(fd, "fatal");
    close(fd);
  }
  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

namespace detail {

void record_impl(Ev ev, std::int64_t a, std::int64_t b) {
  Ring* r = t_ring;
  if (r == nullptr) {
    r = new Ring(thread_id(), g_ring_events);  // leaked with the registry
    {
      std::lock_guard<std::mutex> lock(g_rings_mu);
      rings().push_back(r);
    }
    t_ring = r;
  }
  const std::uint64_t seq = r->head.load(std::memory_order_relaxed);
  Slot& s = r->slots[seq & (r->slots.size() - 1)];
  s.ts_ev.store((now_rel_ns() << 8) | static_cast<std::uint64_t>(ev),
                std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  r->head.store(seq + 1, std::memory_order_release);
}

}  // namespace detail

void enable(std::size_t ring_events) {
  if (enabled()) return;
  // Round up to a power of two (the ring index is a mask).
  std::size_t cap = 1;
  while (cap < ring_events) cap <<= 1;
  g_ring_events = cap;
  g_epoch = std::chrono::steady_clock::now();
  detail::g_flight_enabled.store(true, std::memory_order_relaxed);
}

void disable() {
  detail::g_flight_enabled.store(false, std::memory_order_relaxed);
}

std::uint64_t events_recorded() {
  std::lock_guard<std::mutex> lock(g_rings_mu);
  std::uint64_t total = 0;
  for (Ring* r : rings()) total += r->head.load(std::memory_order_relaxed);
  return total;
}

bool dump(const std::string& path, const char* reason) {
  const int fd =
      open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::lock_guard<std::mutex> lock(g_rings_mu);
  const bool ok = dump_fd(fd, reason);
  return close(fd) == 0 && ok;
}

void set_dump_path(const std::string& path) {
  std::strncpy(g_dump_path, path.c_str(), sizeof(g_dump_path) - 1);
  g_dump_path[sizeof(g_dump_path) - 1] = '\0';
}

void install_signal_handlers() {
  struct sigaction sa;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sa.sa_handler = sigusr1_handler;
  sigaction(SIGUSR1, &sa, nullptr);
  sa.sa_flags = 0;  // fatal handlers must not restart; they re-raise
  sa.sa_handler = fatal_handler;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE}) {
    sigaction(sig, &sa, nullptr);
  }
}

bool service_dump_request() {
  if (!detail::g_dump_requested.load(std::memory_order_relaxed)) return false;
  detail::g_dump_requested.store(false, std::memory_order_relaxed);
  dump(g_dump_path, "sigusr1");
  return true;
}

}  // namespace tsb::obs::flight

#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace tsb::obs {

namespace detail {
// The assigned-id fast path lives in the header: counting happens inside
// operations that cost a handful of nanoseconds, so the id lookup cannot
// afford an out-of-line call. constinit promises static initialization, so
// the compiler reads the variable directly instead of through a TLS
// init-wrapper call, which UBSan's null check flagged.
extern constinit thread_local int tls_thread_id;
int assign_thread_id();
}  // namespace detail

/// Dense per-thread id used to pick counter shards and to label trace
/// events. Assigned lazily on first use; rt::run_threads overrides it with
/// the logical process id so trace timelines line up with algorithm
/// processes rather than OS scheduling accidents.
inline int thread_id() {
  const int id = detail::tls_thread_id;
  return id >= 0 ? id : detail::assign_thread_id();
}
void set_thread_id(int id);

/// A monotonically increasing counter with per-thread sharded accumulation.
///
/// Each shard lives on its own cache line, so counting from inside a
/// contended algorithm does not add coherence traffic on a line any other
/// thread touches — instrumentation must not perturb the contention being
/// measured. The bump is a relaxed load+store rather than a locked RMW:
/// thread ids are dense, so shards are single-writer whenever at most
/// kShards threads are live (every workload here), making the count exact
/// without putting a locked instruction inside the paths being measured.
/// With more threads than shards, colliding writers may lose increments —
/// still atomic per access (TSan-clean), and acceptable for a statistic.
/// Reads merge the shards; no torn values, no ordering claims.
class Counter {
 public:
  static constexpr int kShards = 16;  // power of two

  void add(std::uint64_t delta = 1) {
    auto& v = shards_[static_cast<unsigned>(thread_id()) & (kShards - 1)].v;
    v.store(v.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-value gauge that also remembers the maximum it ever held.
class Gauge {
 public:
  void set(std::int64_t x) {
    v_.store(x, std::memory_order_relaxed);
    std::int64_t m = max_.load(std::memory_order_relaxed);
    while (x > m &&
           !max_.compare_exchange_weak(m, x, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t max() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    v_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Log-scale (power-of-two bucket) histogram with sharded accumulation.
///
/// Bucket b holds samples x with bit_width(x) == b, i.e. bucket 0 is {0},
/// bucket 1 is {1}, bucket 2 is [2,3], bucket 3 is [4,7], ... bucket 64 is
/// the top half of the uint64 range. Log buckets keep record() branch-free
/// and cheap while still answering the questions benches ask (orders of
/// magnitude, tail quantile bounds).
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  static int bucket_of(std::uint64_t x) {
    return static_cast<int>(std::bit_width(x));
  }
  /// Smallest / largest value that lands in bucket b.
  static std::uint64_t bucket_lo(int b) {
    return b == 0 ? 0 : 1ull << (b - 1);
  }
  static std::uint64_t bucket_hi(int b) {
    return b == 0 ? 0 : b >= 64 ? ~0ull : (1ull << b) - 1;
  }

  void record(std::uint64_t x) {
    Shard& s = shards_[static_cast<unsigned>(thread_id()) & (kShards - 1)];
    s.bucket[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(x, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const;
  std::uint64_t count_in_bucket(int b) const;
  /// Upper bound of the bucket containing the p-th percentile sample
  /// (p in [0,100]); 0 if empty. A bound, not an interpolation — log
  /// buckets only localize quantiles to a factor of two.
  std::uint64_t percentile_upper(double p) const;
  void reset();

 private:
  static constexpr int kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> bucket[kBuckets] = {};
    std::atomic<std::uint64_t> sum{0};
  };
  Shard shards_[kShards];
};

/// Process-wide registry of named metrics.
///
/// Registration takes a mutex; the returned references are stable for the
/// life of the process, so hot paths look a metric up once (function-local
/// static) and then touch only relaxed atomics. Names are dotted paths
/// ("sim.steps.write") and become JSON keys on export.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every registered metric (benches isolate phases with this).
  void reset();

  /// One-line JSON object of every non-zero metric:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  /// Gauges export {"last":v,"max":m}; histograms export count, sum, mean
  /// and p50/p99 upper bounds.
  std::string json() const;

  /// Flat {"name":value} objects of every non-zero counter / every gauge
  /// with a non-zero last value — the delta-friendly shape the telemetry
  /// time-series embeds per tick (cumulative values; consumers diff).
  std::string counters_json() const;
  std::string gauges_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide peak resident set size in KiB (getrusage), 0 where
/// unavailable. The explorers publish it per BFS level as the
/// "process.peak_rss_kb" gauge so memory blowups are visible in-flight,
/// not only post-mortem.
std::int64_t peak_rss_kb();

/// Print the process's metrics as a single JSON line on stdout, tagged with
/// `who` — every bench binary calls this last, giving perf-tracking scripts
/// one greppable machine-readable record per run.
void emit_metrics(const std::string& who);

}  // namespace tsb::obs

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "rt/harness.hpp"

namespace tsb::obs {
namespace {

TEST(Histogram, BucketBoundaries) {
  // Bucket b is exactly the values with bit_width b: {0}, {1}, [2,3],
  // [4,7], ... — every boundary is a power of two.
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(1023), 10);
  EXPECT_EQ(Histogram::bucket_of(1024), 11);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64);

  for (int b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b)), b) << b;
    if (b > 0) {
      EXPECT_EQ(Histogram::bucket_hi(b - 1) + 1, Histogram::bucket_lo(b))
          << "buckets must tile the range with no gap at " << b;
    }
  }
}

TEST(Histogram, RecordAndSummarize) {
  Histogram h;
  for (std::uint64_t x : {0ull, 1ull, 2ull, 3ull, 4ull, 100ull, 1000ull}) {
    h.record(x);
  }
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 1110u);
  EXPECT_EQ(h.count_in_bucket(0), 1u);
  EXPECT_EQ(h.count_in_bucket(2), 2u);  // 2 and 3
  // p50 of {0,1,2,3,4,100,1000} is 3; its bucket [2,3] has upper bound 3.
  EXPECT_EQ(h.percentile_upper(50), 3u);
  // p100 lands in 1000's bucket [512,1023].
  EXPECT_EQ(h.percentile_upper(100), 1023u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Counter, MergeIsExactUnderEightThreads) {
  Counter c;
  Histogram h;
  const int n = 8;
  const std::uint64_t per_thread = 50'000;
  rt::run_threads(n, [&](int) {
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      c.add();
      h.record(i);
    }
  });
  EXPECT_EQ(c.value(), per_thread * n)
      << "sharded relaxed counting must still merge to an exact total";
  EXPECT_EQ(h.count(), per_thread * n);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, NamesAreStableAndJsonExports) {
  Registry& reg = Registry::global();
  Counter& a = reg.counter("test.registry.counter");
  Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b) << "same name must resolve to the same counter";
  a.reset();
  a.add(41);
  b.add();
  EXPECT_EQ(a.value(), 42u);
  reg.gauge("test.registry.gauge").set(7);
  const std::string json = reg.json();
  EXPECT_NE(json.find("\"test.registry.counter\":42"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.registry.gauge\":{\"last\":7,\"max\":7}"),
            std::string::npos)
      << json;
  a.reset();
  reg.gauge("test.registry.gauge").reset();
}

TEST(Gauge, TracksLastAndMax) {
  Gauge g;
  g.set(5);
  g.set(9);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 9);
}

// Minimal JSONL field scraping: each line is one flat JSON object written
// by our own exporter, so integer-field extraction by key is sufficient —
// this is a round-trip test, not a JSON parser.
std::int64_t int_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + needle.size(), nullptr, 10);
}

std::string str_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  return line.substr(start, line.find('"', start) - start);
}

TEST(TraceSink, JsonlRoundTripPreservesPerThreadOrder) {
  TraceSink& sink = TraceSink::global();
  sink.enable(1 << 16);
  const int n = 8;
  const int per_thread = 500;
  rt::run_threads(n, [&](int p) {
    for (int i = 0; i < per_thread; ++i) {
      // Value encodes (thread, sequence) so the parse can check ordering.
      sink.instant("evt", p * per_thread + i);
    }
  });
  sink.disable();
  // n * per_thread instants plus the n "rt.thread" spans the harness emits.
  EXPECT_EQ(sink.size(), static_cast<std::size_t>(n * per_thread + n));
  EXPECT_EQ(sink.dropped(), 0u);

  std::ostringstream out;
  sink.write_jsonl(out);
  std::istringstream in(out.str());

  // Parse back: per thread, ts must be nondecreasing and values must appear
  // in emission order (the sink may interleave threads arbitrarily, but
  // never reorder one thread against itself).
  std::map<std::int64_t, std::int64_t> last_value;
  std::map<std::int64_t, std::int64_t> last_ts;
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) {
    if (str_field(line, "name") != "evt") continue;  // harness span events
    ++lines;
    ASSERT_EQ(str_field(line, "ph"), "i") << line;
    const std::int64_t tid = int_field(line, "tid");
    const std::int64_t ts = int_field(line, "ts_ns");
    const std::int64_t value = int_field(line, "value");
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, n);
    if (last_value.count(tid)) {
      EXPECT_EQ(value, last_value[tid] + 1)
          << "thread " << tid << " events out of order";
      EXPECT_GE(ts, last_ts[tid]) << "time ran backwards on thread " << tid;
    } else {
      EXPECT_EQ(value, tid * per_thread) << "first event of thread " << tid;
    }
    last_value[tid] = value;
    last_ts[tid] = ts;
  }
  EXPECT_EQ(lines, static_cast<std::size_t>(n * per_thread));
  ASSERT_EQ(last_value.size(), static_cast<std::size_t>(n));
  for (const auto& [tid, v] : last_value) {
    EXPECT_EQ(v, tid * per_thread + per_thread - 1);
  }
}

TEST(TraceSink, BoundedSinkCountsDropsInsteadOfWrapping) {
  TraceSink& sink = TraceSink::global();
  sink.enable(16);
  for (int i = 0; i < 40; ++i) sink.instant("evt", i);
  sink.disable();
  EXPECT_EQ(sink.size(), 16u);
  EXPECT_EQ(sink.dropped(), 24u);
  // The survivors are the prefix — slot claims are in emission order.
  const auto events = sink.snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].value, i);
}

TEST(TraceSink, DisabledRecordingIsANoOp) {
  TraceSink& sink = TraceSink::global();
  sink.enable(16);
  sink.disable();
  sink.instant("evt", 1);
  sink.counter("evt", 2);
  sink.complete("evt", 0, 1);
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, ChromeTraceIsWellFormedJson) {
  TraceSink& sink = TraceSink::global();
  sink.enable(64);
  {
    Span span("outer");
    span.set_value(11);
    sink.counter("covered", 2);
    sink.instant("mark", 3);
  }
  sink.disable();
  std::ostringstream out;
  sink.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.find("\"traceEvents\":["), json.find("\"traceEvents\":"))
      << json;
  // Counter events key their value by the series name (Perfetto's format).
  EXPECT_NE(json.find("\"args\":{\"covered\":2}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos) << json;
  // Crude but effective structural check: braces balance.
  int depth = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Heartbeat, DisabledBeatNeverRendersTheLine) {
  set_progress(false);
  Heartbeat hb("test", std::chrono::milliseconds(0));
  bool described = false;
  hb.beat([&](Sample& s) {
    described = true;
    s.visited = 1;
  });
  EXPECT_FALSE(described)
      << "sample callback must not run with progress and stats off";
}

TEST(Heartbeat, RateLimitSkipsTheLambdaInsideTheInterval) {
  // The interval clock starts at construction, so with a long interval no
  // beat of a short computation ever pays for describing its progress.
  set_progress(true);
  Heartbeat hb("test", std::chrono::hours(1));
  int samples = 0;
  for (int i = 0; i < 1000; ++i) {
    hb.beat([&](Sample&) { ++samples; });
  }
  set_progress(false);
  EXPECT_EQ(samples, 0);
}

TEST(Heartbeat, ZeroIntervalRendersEveryBeat) {
  set_progress(true);
  Heartbeat hb("test", std::chrono::milliseconds(0));
  int samples = 0;
  for (int i = 0; i < 3; ++i) {
    hb.beat([&](Sample& s) {
      EXPECT_STREQ(s.phase, "test") << "the beat names the phase";
      s.level = ++samples;
      s.covered = 2;
    });
  }
  set_progress(false);
  EXPECT_EQ(samples, 3);
}

TEST(TraceSink, ConcurrentDropAccountingSumsAcrossCategories) {
  // Overfill a tiny buffer from eight threads with a mix of all three
  // event categories; every victim must land in exactly one per-category
  // drop counter, and survivors + drops must reconcile per category.
  TraceSink& sink = TraceSink::global();
  sink.enable(64);
  const int n = 8;
  const int per_thread = 300;
  rt::run_threads(n, [&](int) {
    for (int i = 0; i < per_thread; ++i) {
      switch (i % 3) {
        case 0: sink.instant("evt", i); break;
        case 1: sink.counter("evt", i); break;
        default: sink.complete("evt", 0, 1, i); break;
      }
    }
  });
  sink.disable();
  // Per thread: 100 of each category, plus the harness's own "rt.thread"
  // span at thread exit.
  const std::uint64_t instants = static_cast<std::uint64_t>(n) * 100;
  const std::uint64_t counters = static_cast<std::uint64_t>(n) * 100;
  const std::uint64_t spans = static_cast<std::uint64_t>(n) * 100 + n;
  EXPECT_EQ(sink.size(), 64u);
  EXPECT_EQ(sink.dropped(), instants + counters + spans - 64);
  EXPECT_EQ(sink.dropped(Ph::kComplete) + sink.dropped(Ph::kInstant) +
                sink.dropped(Ph::kCounter),
            sink.dropped())
      << "per-category drops must partition the total";
  std::uint64_t kept[3] = {0, 0, 0};
  for (const TraceEvent& ev : sink.snapshot()) {
    ++kept[ev.ph == Ph::kComplete ? 0 : ev.ph == Ph::kInstant ? 1 : 2];
  }
  EXPECT_EQ(kept[0] + sink.dropped(Ph::kComplete), spans);
  EXPECT_EQ(kept[1] + sink.dropped(Ph::kInstant), instants);
  EXPECT_EQ(kept[2] + sink.dropped(Ph::kCounter), counters);
}

TEST(JsonObj, EscapesQuotesBackslashesAndBluntsControlCharacters) {
  const std::string line = JsonObj()
                               .str("k", "a\"b\\c\nd")
                               .num("n", -3)
                               .boolean("b", true)
                               .raw("a", "[1,2]")
                               .render();
  EXPECT_EQ(line, "{\"k\":\"a\\\"b\\\\c d\",\"n\":-3,\"b\":true,\"a\":[1,2]}");
  EXPECT_EQ(json_int_array({}), "[]");
  EXPECT_EQ(json_int_array({1, -2, 3}), "[1,-2,3]");
}

TEST(JsonObj, NonFiniteNumbersRenderAsNull) {
  // JSON has no inf/nan; a division by a zero interval must not make the
  // record unparseable.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonObj().numf("a", inf).numf("b", -inf).numf("c", 0.5).render(),
            "{\"a\":null,\"b\":null,\"c\":0.5}");
  EXPECT_EQ(JsonObj().numf("n", std::nan("")).render(), "{\"n\":null}");
}

TEST(JsonlSink, GateFollowsOpenCloseAndLinesCount) {
  JsonlSink& sink = stats_sink();
  ASSERT_FALSE(stats_enabled());
  const std::uint64_t before = sink.lines();
  sink.write("{\"ignored\":true}");  // closed: a no-op, never an error
  EXPECT_EQ(sink.lines(), before);

  const std::string path = ::testing::TempDir() + "obs_jsonl_sink_test.jsonl";
  ASSERT_TRUE(sink.open(path));
  EXPECT_TRUE(stats_enabled()) << "open() must raise the emitters' gate";
  sink.write(JsonObj().str("type", "t").num("x", 1).render());
  sink.write(JsonObj().str("type", "t").num("x", 2).render());
  EXPECT_EQ(sink.lines(), 2u) << "open() must reset the line count";
  EXPECT_GT(sink.now_ns(), 0u);
  sink.close();
  EXPECT_FALSE(stats_enabled()) << "close() must lower the gate";
  sink.write("{\"late\":true}");
  EXPECT_EQ(sink.lines(), 2u);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(int_field(lines[0], "x"), 1);
  EXPECT_EQ(int_field(lines[1], "x"), 2);
  EXPECT_EQ(str_field(lines[0], "type"), "t");
}

TEST(JsonlSink, FailedOpenLeavesTheGateDown) {
  JsonlSink& sink = chaos_sink();
  EXPECT_FALSE(sink.open("/nonexistent-dir-tsb-test/chaos.jsonl"));
  EXPECT_FALSE(chaos_enabled());
}

}  // namespace
}  // namespace tsb::obs

#pragma once

#include "obs/trace_sink.hpp"

namespace tsb::obs {

/// RAII timing span: records a Chrome "complete" event covering its
/// lifetime on the current thread's track. Construction when tracing is
/// disabled costs one relaxed load and the destructor another — spans can
/// wrap hot sections unconditionally.
///
/// `value` rides along in the event's args; callers use it for a result
/// the span produced (configs visited, round number, ...). Names must be
/// static strings — the sink stores the pointer.
class Span {
 public:
  explicit Span(const char* name) {
    TraceSink& sink = TraceSink::global();
    if (sink.enabled()) {
      name_ = name;
      start_ns_ = sink.now_ns();
      live_ = true;
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void set_value(std::int64_t v) { value_ = v; }

  ~Span() {
    if (!live_) return;
    TraceSink& sink = TraceSink::global();
    // If tracing stopped mid-span, drop it rather than emit a bogus time.
    if (!sink.enabled()) return;
    const std::uint64_t end = sink.now_ns();
    sink.complete(name_, start_ns_, end - start_ns_, value_);
  }

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::int64_t value_ = 0;
  bool live_ = false;
};

}  // namespace tsb::obs

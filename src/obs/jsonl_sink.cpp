#include "obs/jsonl_sink.hpp"

#include <cmath>

namespace tsb::obs {

namespace detail {
std::atomic<bool> g_stats_enabled{false};
std::atomic<bool> g_chaos_enabled{false};
}  // namespace detail

void JsonObj::key(std::string_view k) {
  if (!first_) s_ += ',';
  first_ = false;
  s_ += '"';
  s_.append(k);
  s_ += "\":";
}

JsonObj& JsonObj::num(std::string_view k, std::int64_t v) {
  key(k);
  s_ += std::to_string(v);
  return *this;
}

JsonObj& JsonObj::numf(std::string_view k, double v) {
  key(k);
  if (!std::isfinite(v)) {  // JSON has no inf/nan
    s_ += "null";
    return *this;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  s_ += buf;
  return *this;
}

JsonObj& JsonObj::boolean(std::string_view k, bool v) {
  key(k);
  s_ += v ? "true" : "false";
  return *this;
}

JsonObj& JsonObj::str(std::string_view k, std::string_view v) {
  key(k);
  s_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') s_ += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      s_ += ' ';  // control characters never appear in our strings; blunt
      continue;   // them rather than grow an escaper nothing needs
    }
    s_ += c;
  }
  s_ += '"';
  return *this;
}

JsonObj& JsonObj::raw(std::string_view k, std::string_view json) {
  key(k);
  s_.append(json);
  return *this;
}

std::string JsonObj::render() {
  s_ += '}';
  return std::move(s_);
}

std::string json_int_array(const std::vector<int>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(xs[i]);
  }
  return s + "]";
}

std::string json_u64_array(const std::vector<std::uint64_t>& xs) {
  std::string s = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(xs[i]);
  }
  return s + "]";
}

bool JsonlSink::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (f_) {
    std::fclose(f_);
    f_ = nullptr;
  }
  f_ = std::fopen(path.c_str(), "w");
  if (!f_) return false;
  lines_.store(0, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
  gate_.store(true, std::memory_order_release);
  return true;
}

void JsonlSink::close() {
  gate_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  if (f_) {
    std::fclose(f_);
    f_ = nullptr;
  }
}

std::uint64_t JsonlSink::now_ns() const {
  if (!is_open()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void JsonlSink::write(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!f_) return;
  std::fwrite(line.data(), 1, line.size(), f_);
  std::fputc('\n', f_);
  lines_.fetch_add(1, std::memory_order_relaxed);
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (f_) std::fflush(f_);
}

JsonlSink& stats_sink() {
  // Leaked like Registry::global(): records may be written from object
  // destructors at shutdown.
  static JsonlSink* sink = new JsonlSink(detail::g_stats_enabled);
  return *sink;
}

JsonlSink& chaos_sink() {
  static JsonlSink* sink = new JsonlSink(detail::g_chaos_enabled);
  return *sink;
}

}  // namespace tsb::obs

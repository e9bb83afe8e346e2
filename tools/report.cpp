#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "util/table.hpp"

namespace tsb::report {

// --- JSON ------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view s) : s_(s) {}

  bool parse(JsonValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(std::string_view word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool value(JsonValue& out) {
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) return false;
        ++depth_;
        const bool ok = s_[pos_] == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.type = JsonValue::Type::kStr;
        return string(out.str);
      case 't':
        out.type = JsonValue::Type::kBool;
        out.b = true;
        return literal("true");
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.b = false;
        return literal("false");
      case 'n':
        out.type = JsonValue::Type::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool object(JsonValue& out) {
    out.type = JsonValue::Type::kObj;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      JsonValue v;
      if (!value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat('}');
    }
  }

  bool array(JsonValue& out) {
    out.type = JsonValue::Type::kArr;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      JsonValue v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (eat(',')) continue;
      return eat(']');
    }
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        switch (e) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case '/': out += '/'; break;
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'u': {
            // \uXXXX escapes, decoded to UTF-8. Our emitters never write
            // them, but foreign tooling feeding `tsb report` (jq, python's
            // json) escapes anything non-ASCII by default. Surrogate pairs
            // combine; a lone or out-of-order surrogate is a parse error.
            std::uint32_t cp;
            if (!hex4(cp)) return false;
            if (cp >= 0xDC00 && cp <= 0xDFFF) return false;  // stray low
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              std::uint32_t lo;
              if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' ||
                  s_[pos_ + 1] != 'u') {
                return false;  // lone high surrogate
              }
              pos_ += 2;
              if (!hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) return false;
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default: return false;
        }
        continue;
      }
      out += c;
    }
    return false;  // unterminated
  }

  /// Four hex digits at pos_ -> code unit; advances past them.
  bool hex4(std::uint32_t& out) {
    if (pos_ + 4 > s_.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = s_[pos_++];
      out <<= 4;
      if (h >= '0' && h <= '9') {
        out |= static_cast<std::uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        out |= static_cast<std::uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        out |= static_cast<std::uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool number(JsonValue& out) {
    // strtod on a copy of the token: the view need not be NUL-terminated,
    // and strtod alone would also take "inf", "nan" and hex floats.
    std::size_t end = pos_;
    while (end < s_.size() &&
           ((s_[end] >= '0' && s_[end] <= '9') || s_[end] == '-' ||
            s_[end] == '+' || s_[end] == '.' || s_[end] == 'e' ||
            s_[end] == 'E')) {
      ++end;
    }
    const std::string token(s_.substr(pos_, end - pos_));
    char* stop = nullptr;
    out.num = std::strtod(token.c_str(), &stop);
    if (token.empty() || stop != token.c_str() + token.size()) return false;
    out.type = JsonValue::Type::kNum;
    pos_ = end;
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< open arrays/objects around pos_
};

std::string fmt(double v) { return util::Table::to_cell(v); }

// Parsed numbers are hostile input: saturate instead of the undefined
// behaviour of casting an out-of-range double (1e300, inf, nan).
std::int64_t to_i64(double x) {
  if (std::isnan(x)) return 0;
  if (x <= -9.2e18) return std::numeric_limits<std::int64_t>::min();
  if (x >= 9.2e18) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(x);
}

}  // namespace

bool parse_json(std::string_view text, JsonValue& out) {
  return Parser(text).parse(out);
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num_or(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kNum ? v->num : def;
}

std::int64_t JsonValue::int_or(std::string_view key, std::int64_t def) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kNum ? to_i64(v->num) : def;
}

bool JsonValue::bool_or(std::string_view key, bool def) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kBool ? v->b : def;
}

std::string JsonValue::str_or(std::string_view key,
                              std::string_view def) const {
  const JsonValue* v = find(key);
  return v && v->type == Type::kStr ? v->str : std::string(def);
}

std::vector<int> JsonValue::int_array(std::string_view key) const {
  std::vector<int> out;
  const JsonValue* v = find(key);
  if (!v || v->type != Type::kArr) return out;
  out.reserve(v->arr.size());
  for (const JsonValue& e : v->arr) {
    if (e.type == Type::kNum) {
      out.push_back(static_cast<int>(
          std::clamp<std::int64_t>(to_i64(e.num), INT32_MIN, INT32_MAX)));
    }
  }
  return out;
}

// --- ingestion -------------------------------------------------------------

void RunReport::ingest_line(const std::string& line) {
  if (line.empty()) return;
  ++lines_;
  JsonValue v;
  if (!parse_json(line, v) || v.type != JsonValue::Type::kObj) {
    ++malformed_;
    return;
  }
  if (v.find("ph") != nullptr) {
    ingest_trace(v);
    return;
  }
  const std::string type = v.str_or("type", "");
  if (type.empty()) {
    ++malformed_;
    return;
  }
  ingest_record(v, type);
}

bool RunReport::load(const std::string& path, std::string* error) {
  const auto refuse = [&](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  std::ifstream in(path);
  if (!in) return refuse("cannot read " + path);
  run_starts_.push_back(ticks_.size());
  std::string line;
  for (bool first = true; std::getline(in, line); first = false) {
    if (first && line.find(R"("traceEvents":[)") != std::string::npos) {
      return refuse(path +
                    " is a Chrome trace_event document (open it in "
                    "Perfetto); tsb report reads the JSONL trace: record "
                    "with --trace=FILE.jsonl");
    }
    ingest_line(line);
  }
  return true;
}

void RunReport::ingest_tick(const JsonValue& v) {
  Tick t;
  t.tick = v.int_or("tick", 0);
  t.ts_ns = v.int_or("ts_ns", 0);
  t.phase = v.str_or("phase", "?");
  t.level = v.int_or("level", -1);
  t.frontier = v.int_or("frontier", -1);
  t.visited = v.int_or("visited", -1);
  t.cap = v.int_or("cap", -1);
  t.covered = v.int_or("covered", -1);
  t.cps = v.num_or("cps", -1.0);
  t.deadline_s = v.num_or("deadline_s", -1.0);
  t.flight_events = v.int_or("flight_events", -1);
  t.peak_rss_kb = v.int_or("peak_rss_kb", 0);
  t.ledger_total = v.int_or("ledger_total", 0);
  t.mem_budget = v.int_or("mem_budget", 0);
  t.ckpt_age_s = v.int_or("ckpt_age_s", -1);
  t.ckpt_interval_ms = v.int_or("ckpt_interval_ms", 0);
  for (const auto& [key, dst] : {std::pair{"ledger", &t.ledger},
                                 std::pair{"counters", &t.counters}}) {
    if (const JsonValue* obj = v.find(key);
        obj && obj->type == JsonValue::Type::kObj) {
      for (const auto& [name, val] : obj->obj) {
        (*dst)[name] = to_i64(val.num);
      }
    }
  }
  ticks_.push_back(std::move(t));
}

std::vector<std::string> RunReport::active_alerts() const {
  std::vector<std::string> out;
  for (const Alert& a : alerts_) {
    if (a.cleared_tick < 0) out.push_back(a.rule);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool RunReport::monotonic() const {
  for (std::size_t i = 1; i < ticks_.size(); ++i) {
    if (ticks_[i].tick <= ticks_[i - 1].tick) return false;
  }
  return true;
}

void RunReport::ingest_trace(const JsonValue& v) {
  ++trace_events_;
  const std::string ph = v.str_or("ph", "");
  if (ph != "X") return;  // only spans carry durations
  TraceSpan span;
  span.tid = v.int_or("tid", 0);
  span.name = v.str_or("name", "?");
  span.start_ns = v.num_or("ts_ns", 0.0);
  const double dur_ns = v.num_or("dur_ns", 0.0);
  span.end_ns = span.start_ns + dur_ns;
  SpanAgg& agg = spans_[span.name];
  ++agg.count;
  agg.total_ms += dur_ns / 1e6;
  // Hostile input: 1e400 parses as inf, and a NaN end would break the
  // nesting sort's ordering.
  if (std::isfinite(span.start_ns) && std::isfinite(span.end_ns)) {
    trace_spans_.push_back(std::move(span));
  }
}

void RunReport::count_regs(const std::vector<int>& regs) {
  for (int r : regs) ++reg_cover_counts_[r];
}

void RunReport::ingest_record(const JsonValue& v, const std::string& type) {
  if (type == "telemetry.tick") {
    ingest_tick(v);
  } else if (type == "explore.level") {
    LevelRow row;
    row.who = v.str_or("who", "?");
    row.level = v.int_or("level", 0);
    row.frontier = v.int_or("frontier", 0);
    row.discovered = v.int_or("discovered", 0);
    row.dedup = v.int_or("dedup_hits", 0);
    row.dedup_rate = v.num_or("dedup_rate", 0.0);
    row.ms = v.num_or("ms", 0.0);
    row.configs_per_sec = v.num_or("configs_per_sec", 0.0);
    row.arena_bytes = v.int_or("arena_bytes", 0);
    levels_.push_back(std::move(row));
  } else if (type == "explore.done") {
    ++explore_runs_;
    explore_visited_ += static_cast<std::uint64_t>(v.int_or("visited", 0));
    explore_dedup_ += static_cast<std::uint64_t>(v.int_or("dedup_hits", 0));
    explore_ms_ += v.num_or("ms", 0.0);
  } else if (type == "mc.input") {
    ++mc_inputs_;
  } else if (type == "ckpt.write") {
    ++ckpt_writes_;
    ckpt_bytes_ += static_cast<std::uint64_t>(v.int_or("bytes", 0));
    ckpt_ms_ += static_cast<std::uint64_t>(v.int_or("ms", 0));
    ckpt_last_generation_ = v.int_or("generation", ckpt_last_generation_);
    ckpt_last_why_ = v.str_or("why", ckpt_last_why_);
    ckpt_last_sections_.clear();
    if (const JsonValue* obj = v.find("section_bytes");
        obj && obj->type == JsonValue::Type::kObj) {
      for (const auto& [name, val] : obj->obj) {
        ckpt_last_sections_.emplace_back(name, to_i64(val.num));
      }
    }
  } else if (type == "adversary.begin") {
    protocol_ = v.str_or("protocol", "");
    n_ = static_cast<int>(v.int_or("n", 0));
  } else if (type == "valency") {
    ++valency_queries_;
    if (v.bool_or("memo_hit", false)) ++valency_memo_hits_;
  } else if (type == "valency.pass") {
    ++valency_explores_;
    // The shared-subgraph engine's counters ride only its passes; the
    // fresh-BFS backend's work shows in its explore.* records instead.
    if (v.find("expanded") != nullptr) {
      ++reuse_records_;
      ReuseRow row;
      row.config = v.int_or("config", -1);
      const std::vector<int> procs = v.int_array("procs");
      for (std::size_t i = 0; i < procs.size(); ++i) {
        if (i > 0) row.procs += ",";
        row.procs += std::to_string(procs[i]);
      }
      row.expanded = static_cast<std::uint64_t>(v.int_or("expanded", 0));
      row.reused = static_cast<std::uint64_t>(v.int_or("reused", 0));
      row.visited = static_cast<std::uint64_t>(v.int_or("visited", 0));
      row.from_facts = v.bool_or("from_facts", false);
      row.replay_ok = v.bool_or("replay_ok", true);
      reuse_expanded_ += row.expanded;
      reuse_reused_ += row.reused;
      if (row.from_facts) ++reuse_fact_answers_;
      if (v.bool_or("truncated", false)) ++reuse_truncated_;
      if (!row.replay_ok) ++reuse_replay_failures_;
      reuse_graph_nodes_ = v.int_or("graph_nodes", reuse_graph_nodes_);
      reuse_facts_ = v.int_or("facts", reuse_facts_);
      reuse_rows_.push_back(std::move(row));
    }
    if (v.find("canonical") != nullptr) {
      ++orbit_records_;
      if (!v.bool_or("identity", true)) ++orbit_nonidentity_;
    }
  } else if (type == "lemma1") {
    ++lemma1_;
  } else if (type == "lemma3") {
    ++lemma3_;
    count_regs(v.int_array("covered"));
  } else if (type == "lemma4.enter") {
    ++lemma4_;
  } else if (type == "lemma4.stage") {
    ++stages_;
    count_regs(v.int_array("covered"));
  } else if (type == "lemma4.pigeonhole") {
    ++pigeonholes_;
  } else if (type == "block_write") {
    ++block_writes_;
    count_regs(v.int_array("regs"));
  } else if (type == "solo_escape") {
    if (v.bool_or("found", false)) {
      ++clones_;
      have_escape_ = true;
      last_escape_reg_ = static_cast<int>(v.int_or("escape_reg", -1));
      ++reg_cover_counts_[last_escape_reg_];
    }
  } else if (type == "covering.pre_escape") {
    have_pre_escape_ = true;
    pre_escape_regs_ = v.int_array("regs");
    count_regs(pre_escape_regs_);
  } else if (type == "adversary.budget_exhausted") {
    budget_exhausted_ = true;
    budget_detail_ = v.str_or("detail", "");
  } else if (type == "adversary.resume") {
    ckpt_resumed_ = true;
  } else if (type == "adversary.stopped") {
    ckpt_stopped_ = true;
  } else if (type == "certificate") {
    have_cert_ = true;
    cert_verified_ = v.bool_or("verified", false);
    cert_distinct_ = v.int_or("distinct_registers", 0);
    cert_regs_ = v.int_array("registers");
    cert_clones_ = v.int_or("clones", -1);
    cert_schedule_len_ = v.int_or("schedule_len", 0);
    cert_error_ = v.str_or("error", "");
    if (protocol_.empty()) protocol_ = v.str_or("protocol", "");
  } else if (type == "ledger") {
    // Gauges, not counters: every record is a full snapshot, last wins.
    ledger_accounts_.clear();
    ledger_peaks_.clear();
    for (const auto& [key, dst] : {std::pair{"accounts", &ledger_accounts_},
                                   std::pair{"peaks", &ledger_peaks_}}) {
      if (const JsonValue* obj = v.find(key);
          obj && obj->type == JsonValue::Type::kObj) {
        for (const auto& [name, val] : obj->obj) {
          (*dst)[name] = to_i64(val.num);
        }
      }
    }
    ledger_total_ = v.int_or("total", 0);
    ledger_peak_total_ = v.int_or("peak_total", 0);
  } else if (type == "flight.dump") {
    flight_reason_ = v.str_or("reason", "?");
    flight_threads_ = v.int_or("threads", 0);
    flight_total_events_ = v.int_or("events", 0);
  } else if (type == "flight.event") {
    FlightRow row;
    row.tid = v.int_or("tid", 0);
    row.seq = v.int_or("seq", 0);
    row.ts_ns = v.int_or("ts_ns", 0);
    row.ev = v.str_or("ev", "?");
    row.a = v.int_or("a", 0);
    row.b = v.int_or("b", 0);
    flight_rows_.push_back(std::move(row));
  } else if (type == "chaos.run") {
    ++chaos_runs_;
    ChaosTargetAgg& agg = chaos_targets_[v.str_or("target", "?")];
    ++agg.runs;
    const std::uint64_t steps =
        static_cast<std::uint64_t>(v.int_or("steps", 0));
    agg.steps += steps;
    chaos_steps_ += steps;
    const std::string status = v.str_or("status", "");
    if (status == "violation") {
      ++chaos_violations_;
      ++agg.violations;
    } else if (status == "solo_fail") {
      ++chaos_solo_fails_;
      ++agg.solo_fails;
    } else if (status == "timeout") {
      ++chaos_timeouts_;
      ++agg.timeouts;
    }
    if ((status == "violation" || status == "solo_fail") &&
        chaos_first_bad_.empty()) {
      chaos_first_bad_ = "seed " + std::to_string(v.int_or("seed", -1)) +
                         " (" + v.str_or("target", "?") +
                         "): " + v.str_or("detail", status);
    }
  } else if (type == "chaos.campaign") {
    // The campaign summary is authoritative for the counters we did not
    // re-derive (fault mix sizes); keep it verbatim for the report.
    have_chaos_campaign_ = true;
    obs::JsonObj o;
    o.num("runs", v.int_or("runs", 0))
        .num("violations", v.int_or("violations", 0))
        .num("solo_runs", v.int_or("solo_runs", 0))
        .num("solo_failures", v.int_or("solo_failures", 0))
        .num("timeouts", v.int_or("timeouts", 0))
        .num("crashes", v.int_or("crashes", 0))
        .num("stalls", v.int_or("stalls", 0))
        .num("yields", v.int_or("yields", 0))
        .boolean("ok", v.bool_or("ok", false));
    chaos_campaign_line_ = o.render();
  }
  // Any other type is well-formed and skipped: the decision-trail records
  // no view aggregates (prop2, lemma4.done, ...) and the legacy records
  // older runs wrote (prof.*, watch.*, valency.explore, valency.reuse,
  // canonical.orbit).
}

// --- alerts ----------------------------------------------------------------
//
// The watchdog rules, evaluated over the ingested ticks. A rule fires on the
// rising edge of its condition and stays latched until the condition
// clears, so a six-hour throughput collapse is one alert, not 21600, and a
// second collapse after recovery is a second alert. The window is the last
// kWindow ticks of the current phase: comparing lemma4's rate against
// explore's median would alert on every handoff. Tick fields come from
// disk, so the rules treat them as hostile: a negative or non-finite input
// disarms the rules that need it, and every double cast saturates.

namespace {

constexpr std::size_t kWindow = 16;         // ticks retained (thrash horizon)
constexpr std::size_t kMinSamples = 5;      // same-phase history to arm
constexpr double kCollapseFrac = 0.30;      // fire below this share of median
constexpr double kThrashChurnFactor = 2.0;  // window churn vs peak mapped
constexpr double kFlatVisitedFrac = 0.01;   // "flat" = growth under this share
constexpr double kRunawayEtaS = 60.0;       // alert when exit-4 ETA dips below
constexpr double kCkptStallFactor = 3.0;    // fire past this multiple of cadence
constexpr double kCkptStallMinS = 5.0;      // but never under this age

using Window = std::span<const RunReport::Tick>;  // newest tick = back()

// A byte count as the rules read it: negative (hostile) means none.
std::uint64_t bytes_of(std::int64_t v) {
  return v > 0 ? static_cast<std::uint64_t>(v) : 0;
}

std::uint64_t mapped_bytes(const RunReport::Tick& t) {
  const auto it = t.ledger.find("arena.mapped");
  return it != t.ledger.end() ? bytes_of(it->second) : 0;
}

bool known_cps(double cps) { return std::isfinite(cps) && cps >= 0; }

bool collapse_now(Window w, std::string* detail) {
  const double cps = w.back().cps;
  if (!known_cps(cps)) return false;
  // Trailing median of the window's earlier rates; the current one is the
  // accused and does not vote.
  std::vector<double> hist;
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    if (known_cps(w[i].cps)) hist.push_back(w[i].cps);
  }
  if (hist.size() < kMinSamples) return false;
  std::nth_element(hist.begin(), hist.begin() + hist.size() / 2, hist.end());
  const double median = hist[hist.size() / 2];
  if (median <= 0 || cps >= kCollapseFrac * median) return false;
  *detail = "rate " + std::to_string(to_i64(cps)) + " configs/s under " +
            std::to_string(static_cast<int>(kCollapseFrac * 100)) +
            "% of trailing median " + std::to_string(to_i64(median));
  return true;
}

bool thrash_now(Window w, std::string* detail) {
  if (w.size() < kMinSamples) return false;
  std::uint64_t churn = 0;
  std::uint64_t peak_mapped = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    peak_mapped = std::max(peak_mapped, mapped_bytes(w[i]));
    if (i == 0) continue;
    const std::uint64_t a = mapped_bytes(w[i - 1]);
    const std::uint64_t b = mapped_bytes(w[i]);
    churn += b > a ? b - a : a - b;
  }
  if (peak_mapped == 0 ||
      static_cast<double>(churn) <
          kThrashChurnFactor * static_cast<double>(peak_mapped)) {
    return false;
  }
  const std::int64_t v0 = w.front().visited;
  const std::int64_t v1 = w.back().visited;
  if (v0 < 0 || v1 < 0) return false;
  const double growth = static_cast<double>(v1 - v0);
  if (growth >
      kFlatVisitedFrac * static_cast<double>(std::max<std::int64_t>(v1, 1))) {
    return false;
  }
  *detail = "mapped-byte churn " + std::to_string(churn) + " B vs peak " +
            std::to_string(peak_mapped) + " B with visited growth " +
            std::to_string(v1 - v0) + " over the window";
  return true;
}

bool runaway_now(Window w, std::string* detail) {
  const std::uint64_t budget = bytes_of(w.back().mem_budget);
  const std::uint64_t total = bytes_of(w.back().ledger_total);
  if (budget == 0 || w.size() < 2) return false;
  if (total >= budget) {
    *detail = "tracked " + std::to_string(total) + " B at/over budget " +
              std::to_string(budget) + " B";
    return true;
  }
  const std::uint64_t first = bytes_of(w.front().ledger_total);
  const double dt = static_cast<double>(w.back().ts_ns) / 1e9 -
                    static_cast<double>(w.front().ts_ns) / 1e9;
  if (dt <= 0 || total <= first) return false;
  const double rate = static_cast<double>(total - first) / dt;
  const double eta = static_cast<double>(budget - total) / rate;
  if (eta >= kRunawayEtaS) return false;
  *detail = "tracked bytes growing " + std::to_string(to_i64(rate)) +
            " B/s, projected exit-4 in " + std::to_string(to_i64(eta)) +
            " s (" + obs::format_bytes(budget - total) + " headroom)";
  return true;
}

bool ckpt_stall_now(Window w, std::string* detail) {
  const RunReport::Tick& cur = w.back();
  // Armed only with a wall-clock cadence and a live age: an expansion-count
  // cadence has no wall-clock expectation.
  if (cur.ckpt_interval_ms <= 0 || cur.ckpt_age_s < 0) return false;
  const double age_s = static_cast<double>(cur.ckpt_age_s);
  const double expect_s = static_cast<double>(cur.ckpt_interval_ms) / 1000.0;
  if (age_s < kCkptStallMinS || age_s < kCkptStallFactor * expect_s) {
    return false;
  }
  *detail = "last checkpoint " + std::to_string(cur.ckpt_age_s) +
            " s ago vs configured interval " +
            std::to_string(to_i64(expect_s)) +
            " s (engine not reaching a quiescent point, or writes stuck)";
  return true;
}

struct Rule {
  const char* name;
  bool (*now)(Window, std::string*);
};
constexpr Rule kRules[] = {
    {"throughput_collapse", collapse_now},
    {"spill_thrash", thrash_now},
    {"ledger_runaway", runaway_now},
    {"checkpoint_stall", ckpt_stall_now},
};

}  // namespace

void RunReport::derive_alerts(std::size_t begin, std::size_t end) {
  constexpr std::size_t kNoEpisode = static_cast<std::size_t>(-1);
  std::size_t open[std::size(kRules)];  // alerts_ index of each live episode
  std::fill(std::begin(open), std::end(open), kNoEpisode);
  std::size_t phase_start = begin;
  for (std::size_t i = begin; i < end; ++i) {
    const Tick& t = ticks_[i];
    if (i > begin && t.phase != ticks_[i - 1].phase) phase_start = i;
    const std::size_t lo =
        std::max(phase_start, i + 1 > kWindow ? i + 1 - kWindow : 0);
    const Window w(ticks_.data() + lo, i + 1 - lo);
    for (std::size_t r = 0; r < std::size(kRules); ++r) {
      std::string detail;
      const bool cond = kRules[r].now(w, &detail);
      if (cond && open[r] == kNoEpisode) {
        open[r] = alerts_.size();
        alerts_.push_back(
            {kRules[r].name, t.tick, t.ts_ns, t.phase, std::move(detail)});
      } else if (!cond && open[r] != kNoEpisode) {
        alerts_[open[r]].cleared_tick = t.tick;
        open[r] = kNoEpisode;
      }
    }
  }
}

void RunReport::finalize() {
  // Each loaded file is one run, with its own alert window and latches.
  alerts_.clear();
  std::size_t begin = 0;
  for (std::size_t end : run_starts_) {
    derive_alerts(begin, end);
    begin = end;
  }
  derive_alerts(begin, ticks_.size());

  // Self time from the span nesting on each tid: walk the spans in start
  // order (longest first on ties) with a stack of open ancestors, and charge
  // each span to its direct parent. A child is clipped to its parent, so
  // a hostile file cannot charge a parent more child time than it lasted.
  for (auto& [name, agg] : spans_) agg.self_ms = 0.0;
  std::sort(trace_spans_.begin(), trace_spans_.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  std::vector<std::pair<const TraceSpan*, double>> open;  // span, child ns
  const auto close = [&] {
    const auto& [s, child_ns] = open.back();
    spans_[s->name].self_ms += (s->end_ns - s->start_ns - child_ns) / 1e6;
    open.pop_back();
  };
  for (const TraceSpan& s : trace_spans_) {
    while (!open.empty() && (open.back().first->tid != s.tid ||
                             open.back().first->end_ns <= s.start_ns)) {
      close();
    }
    if (!open.empty()) {
      open.back().second +=
          std::min(s.end_ns, open.back().first->end_ns) - s.start_ns;
    }
    open.emplace_back(&s, 0.0);
  }
  while (!open.empty()) close();

  // The construction's own account of the final covering: the registers R
  // covered going into the last escape, plus z's escape register. For
  // n = 2 there is no pre-escape event and the escape register is the
  // whole story.
  narrative_regs_ = pre_escape_regs_;
  if (have_escape_) narrative_regs_.push_back(last_escape_reg_);
  std::sort(narrative_regs_.begin(), narrative_regs_.end());
  narrative_regs_.erase(
      std::unique(narrative_regs_.begin(), narrative_regs_.end()),
      narrative_regs_.end());

  consistent_ = true;
  if (have_cert_) {
    if (!cert_verified_) consistent_ = false;
    // Only compare against the narrative when the audit trail actually
    // recorded one (report over a stats-only run has no escape events).
    if (have_escape_ && narrative_regs_ != cert_regs_) consistent_ = false;
    if (have_escape_ && cert_clones_ >= 0 &&
        cert_clones_ != static_cast<std::int64_t>(clones_)) {
      consistent_ = false;
    }
  }
}

// --- rendering -------------------------------------------------------------

void RunReport::render_text(std::ostream& out) const {
  out << "== tsb report ==\n";
  out << "lines: " << lines_ << " (malformed: " << malformed_ << ")";
  if (!protocol_.empty()) out << "  protocol: " << protocol_;
  if (n_ > 0) out << "  n: " << n_;
  out << "\n";

  if (!spans_.empty()) {
    // Phase breakdown, widest phases first.
    std::vector<std::pair<std::string, SpanAgg>> rows(spans_.begin(),
                                                      spans_.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.second.total_ms > b.second.total_ms;
    });
    util::Table t({"phase", "count", "total_ms", "self_ms"});
    for (const auto& [name, agg] : rows) {
      t.row(name, agg.count, agg.total_ms, agg.self_ms);
    }
    t.print(out, "phase time breakdown (" + std::to_string(trace_events_) +
                     " trace events)");
  }

  if (!levels_.empty()) {
    util::Table t({"who", "level", "frontier", "discovered", "dedup%", "ms",
                   "configs/s", "arena_MB"});
    for (const LevelRow& r : levels_) {
      t.row(r.who, r.level, r.frontier, r.discovered, 100.0 * r.dedup_rate,
            r.ms, r.configs_per_sec,
            static_cast<double>(r.arena_bytes) / (1024.0 * 1024.0));
    }
    t.print(out, "per-level exploration");
  }

  if (explore_runs_ > 0) {
    out << "\nexplorations: " << explore_runs_ << " runs, "
        << explore_visited_ << " configs visited, " << explore_dedup_
        << " dedup hits, " << fmt(explore_ms_) << " ms total";
    if (explore_ms_ > 0) {
      out << " ("
          << fmt(static_cast<double>(explore_visited_) * 1000.0 / explore_ms_)
          << " configs/s)";
    }
    out << "\n";
  }
  if (mc_inputs_ > 0) out << "model-checker inputs: " << mc_inputs_ << "\n";

  if (valency_queries_ > 0 || valency_explores_ > 0) {
    out << "valency cache: " << valency_queries_ << " queries, "
        << valency_memo_hits_ << " memo hits ("
        << fmt(valency_queries_
                   ? 100.0 * static_cast<double>(valency_memo_hits_) /
                         static_cast<double>(valency_queries_)
                   : 0.0)
        << "%), " << valency_explores_ << " shared explorations\n";
  }
  if (reuse_records_ > 0) {
    // Per-query engine economics: what each reachability pass paid
    // (expanded = fresh protocol steps) versus consumed for free (reused =
    // stored edges; from_facts = answered with zero graph work). The
    // heaviest queries first — they are where the engine's sharing either
    // pays or doesn't.
    std::vector<const ReuseRow*> rows;
    rows.reserve(reuse_rows_.size());
    for (const ReuseRow& r : reuse_rows_) rows.push_back(&r);
    std::sort(rows.begin(), rows.end(),
              [](const ReuseRow* a, const ReuseRow* b) {
                return a->expanded + a->reused > b->expanded + b->reused;
              });
    if (rows.size() > kTopK) rows.resize(kTopK);
    util::Table t({"config", "procs", "expanded", "reused", "visited",
                   "from_facts", "replay"});
    for (const ReuseRow* r : rows) {
      t.row(r->config, r->procs, r->expanded, r->reused, r->visited,
            r->from_facts ? "yes" : "no", r->replay_ok ? "ok" : "FAILED");
    }
    t.print(out, "shared-subgraph valency queries (top " +
                     std::to_string(kTopK) + " by traversals)");
    const std::uint64_t total = reuse_expanded_ + reuse_reused_;
    out << "work saved: " << reuse_reused_ << " stored-edge reuses + "
        << reuse_fact_answers_ << " fact-answered queries of "
        << reuse_records_ << " passes, " << total << " traversals ("
        << fmt(100.0 * reuse_rate()) << "% reused); graph "
        << reuse_graph_nodes_ << " nodes, " << reuse_facts_ << " facts"
        << (reuse_truncated_ > 0
                ? ", " + std::to_string(reuse_truncated_) + " truncated"
                : "")
        << "\n";
    if (orbit_records_ > 0) {
      out << "canonical orbits: " << orbit_records_ << " symmetric queries, "
          << orbit_nonidentity_ << " answered through a non-identity "
          << "renaming\n";
    }
    if (reuse_replay_failures_ > 0) {
      out << "REPLAY FAILURES: " << reuse_replay_failures_
          << " witness(es) failed de-canonicalized replay — the engine or "
             "a symmetry declaration is unsound\n";
    }
  }
  if (lemma4_ + lemma3_ + lemma1_ > 0) {
    out << "lemma calls: lemma4 x" << lemma4_ << " (stages " << stages_
        << ", pigeonholes " << pigeonholes_ << "), lemma3 x" << lemma3_
        << ", lemma1 x" << lemma1_ << ", block writes " << block_writes_
        << ", clones (hidden solo insertions) " << clones_ << "\n";
  }

  if (!reg_cover_counts_.empty()) {
    std::vector<std::pair<int, std::uint64_t>> hot(reg_cover_counts_.begin(),
                                                   reg_cover_counts_.end());
    std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    if (hot.size() > kTopK) hot.resize(kTopK);
    util::Table t({"register", "cover_count"});
    for (const auto& [reg, cnt] : hot) {
      t.row("R" + std::to_string(reg), cnt);
    }
    t.print(out, "hottest registers (top " + std::to_string(kTopK) + ")");
  }

  if (chaos_runs_ > 0 || have_chaos_campaign_) {
    out << "\nchaos campaign: " << chaos_runs_ << " run records, "
        << chaos_violations_ << " violations, " << chaos_solo_fails_
        << " solo failures, " << chaos_timeouts_ << " timeouts, "
        << chaos_steps_ << " scheduler steps\n";
    if (!chaos_targets_.empty()) {
      util::Table t({"target", "runs", "violations", "solo_fails",
                     "timeouts", "steps"});
      for (const auto& [name, agg] : chaos_targets_) {
        t.row(name, agg.runs, agg.violations, agg.solo_fails, agg.timeouts,
              agg.steps);
      }
      t.print(out, "per-target chaos outcomes");
    }
    if (!chaos_first_bad_.empty()) {
      out << "first failing run: " << chaos_first_bad_ << "\n";
    }
    if (have_chaos_campaign_) {
      out << "campaign summary: " << chaos_campaign_line_ << "\n";
    }
  }
  if (budget_exhausted_) {
    out << "\nadversary budget exhausted (clean truncation, not a "
           "refutation): "
        << budget_detail_ << "\n";
  }
  if (ckpt_writes_ > 0 || ckpt_resumed_ || ckpt_stopped_) {
    out << "\ncheckpoints: " << ckpt_writes_ << " write(s), " << ckpt_bytes_
        << " B state, overhead " << ckpt_ms_ << " ms";
    if (ckpt_writes_ > 0) {
      out << " (last generation " << ckpt_last_generation_ << ", why \""
          << ckpt_last_why_ << "\")";
    }
    out << "\n";
    if (!ckpt_last_sections_.empty()) {
      out << "last state file by section:";
      const char* sep = " ";
      for (const auto& [name, bytes] : ckpt_last_sections_) {
        out << sep << name << " " << bytes << " B";
        sep = ", ";
      }
      out << "\n";
    }
    if (ckpt_resumed_) {
      out << "run resumed from a checkpoint (warm replay; verdicts and "
             "certificate identical to an uninterrupted run)\n";
    }
    if (ckpt_stopped_) {
      out << "run checkpointed and stopped (resumable with tsb resume)\n";
    }
  }

  if (!ledger_accounts_.empty()) {
    // Sorted by final bytes, so the subsystem that held the memory when
    // the run ended (or tripped its budget) leads the table.
    std::vector<std::pair<std::string, std::int64_t>> rows(
        ledger_accounts_.begin(), ledger_accounts_.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    util::Table t({"account", "bytes", "peak_bytes", "share%"});
    for (const auto& [name, bytes] : rows) {
      const auto pk = ledger_peaks_.find(name);
      t.row(name, bytes, pk != ledger_peaks_.end() ? pk->second : bytes,
            ledger_total_ > 0
                ? 100.0 * static_cast<double>(bytes) /
                      static_cast<double>(ledger_total_)
                : 0.0);
    }
    t.print(out, "memory ledger (tracked " + std::to_string(ledger_total_) +
                     " B, peak " + std::to_string(ledger_peak_total_) + " B)");
  }

  if (!flight_rows_.empty()) {
    out << "\nflight recorder: " << flight_total_events_ << " events from "
        << flight_threads_ << " thread(s), dump reason \"" << flight_reason_
        << "\"\n";
    // The last moments before the dump, merged across threads by
    // timestamp: what the run was doing when it died.
    std::vector<FlightRow> tail = flight_rows_;
    std::sort(tail.begin(), tail.end(), [](const auto& a, const auto& b) {
      return a.ts_ns < b.ts_ns;
    });
    const std::size_t keep = std::min<std::size_t>(tail.size(), 24);
    util::Table t({"t_ms", "tid", "event", "detail"});
    for (std::size_t i = tail.size() - keep; i < tail.size(); ++i) {
      const FlightRow& r = tail[i];
      std::string detail;
      if (r.ev == "phase") {
        detail = obs::flight::phase_name(r.a);
      } else if (r.ev == "level") {
        detail = "level " + std::to_string(r.a) + ", frontier " +
                 std::to_string(r.b);
      } else if (r.ev == "budget.check" || r.ev == "budget.trip") {
        detail = std::to_string(r.a) + " / " + std::to_string(r.b) + " B";
      } else if (r.ev == "valency.query") {
        detail = "config " + std::to_string(r.a) +
                 (r.b != 0 ? " (memo hit)" : " (miss)");
      } else if (r.ev == "reach.query") {
        detail = "root " + std::to_string(r.a);
      } else if (r.ev == "spill") {
        detail = "released " + std::to_string(r.a) + " B, " +
                 std::to_string(r.b) + " B on disk";
      } else if (r.ev == "ckpt") {
        detail = std::to_string(r.a) + " B state in " + std::to_string(r.b) +
                 " ms";
      } else if (r.ev == "chaos.fault") {
        detail = "tid " + std::to_string(r.a) + " action " +
                 std::to_string(r.b);
      } else {
        detail = std::to_string(r.a) + ", " + std::to_string(r.b);
      }
      t.row(static_cast<double>(r.ts_ns) / 1e6, r.tid, r.ev, detail);
    }
    t.print(out, "last " + std::to_string(keep) + " flight events");
  }

  render_telemetry(out);

  if (have_cert_) {
    auto regs_str = [](const std::vector<int>& regs) {
      std::string s = "{";
      for (std::size_t i = 0; i < regs.size(); ++i) {
        s += i > 0 ? ", R" : "R";
        s += std::to_string(regs[i]);
      }
      return s + "}";
    };
    out << "\ncovering narrative vs certificate:\n";
    if (have_escape_) {
      out << "  narrative: " << regs_str(narrative_regs_) << " ("
          << pre_escape_regs_.size() << " covered pre-escape + escape R"
          << last_escape_reg_ << "), clones " << clones_ << "\n";
    } else {
      out << "  narrative: (no audit trail ingested)\n";
    }
    out << "  certificate: " << regs_str(cert_regs_) << " = "
        << cert_distinct_ << " distinct registers, clones " << cert_clones_
        << ", schedule " << cert_schedule_len_ << " steps, "
        << (cert_verified_ ? "VERIFIED" : "NOT VERIFIED") << "\n";
    if (!cert_error_.empty()) out << "  error: " << cert_error_ << "\n";
    out << "  " << (consistent_ ? "CONSISTENT" : "MISMATCH") << "\n";
  }
}

void RunReport::render_telemetry(std::ostream& out) const {
  if (ticks_.empty()) return;
  out << "\ntelemetry: " << ticks_.size() << " tick(s), " << alerts_.size()
      << " watchdog alert(s)" << (monotonic() ? "" : ", NON-MONOTONIC TICK IDS")
      << "\n";
  // The latest tick that carried a field: the terminal tick has no engine
  // sample, and lemma4's ticks interleave with the valency engine's.
  const auto latest = [&](auto has) -> const Tick* {
    for (auto it = ticks_.rbegin(); it != ticks_.rend(); ++it) {
      if (has(*it)) return &*it;
    }
    return nullptr;
  };
  const Tick& last = ticks_.back();
  out << "  phase      " << last.phase << ", tick " << last.tick << "\n";
  out << "  uptime     " << fmt(static_cast<double>(last.ts_ns) / 1e9)
      << " s\n";
  if (last.level >= 0) out << "  level      " << last.level << "\n";
  if (last.visited >= 0) {
    out << "  visited    " << last.visited;
    if (last.cap >= 0) out << " / cap " << last.cap;
    out << "\n";
  }
  if (const Tick* t = latest([](const Tick& x) { return x.covered >= 0; })) {
    out << "  covered    " << t->covered << " registers (" << t->phase
        << " stage " << t->level << ", tick " << t->tick << ")\n";
  }
  if (const Tick* t = latest([](const Tick& x) { return x.cps >= 0; })) {
    out << "  rate       " << to_i64(t->cps) << " configs/s (" << t->phase
        << ", tick " << t->tick << ")\n";
    if (t->cps > 0 && t->visited >= 0 && t->cap > t->visited) {
      out << "  eta->cap   "
          << fmt(static_cast<double>(t->cap - t->visited) / t->cps)
          << " s\n";
    }
  }
  if (last.deadline_s >= 0) {
    out << "  deadline   " << fmt(last.deadline_s) << " s left\n";
  }
  out << "  rss peak   " << last.peak_rss_kb << " KiB, tracked "
      << obs::format_bytes(static_cast<std::size_t>(last.ledger_total))
      << "\n";
  for (const auto& [name, bytes] : last.ledger) {
    if (bytes <= 0) continue;
    out << "    " << name
        << std::string(name.size() < 18 ? 18 - name.size() : 1, ' ')
        << obs::format_bytes(static_cast<std::size_t>(bytes)) << "\n";
  }
  if (last.flight_events >= 0) {
    out << "  flight     " << last.flight_events << " events\n";
  }

  constexpr std::size_t kTrendTicks = 96;  // window the sparklines cover
  constexpr std::size_t kWidth = 32;
  const std::size_t lo =
      ticks_.size() > kTrendTicks ? ticks_.size() - kTrendTicks : 0;
  const auto trend = [&](const char* name, auto get,
                         const std::string& current) {
    std::vector<double> xs;
    for (std::size_t i = lo; i < ticks_.size(); ++i) {
      const double v = get(ticks_[i]);
      if (v >= 0) xs.push_back(v);
    }
    if (xs.empty()) return;
    out << "  " << name << " " << sparkline(xs, kWidth) << "  " << current
        << "\n";
  };
  trend("cps       ", [](const Tick& t) { return t.cps; },
        last.cps >= 0 ? std::to_string(to_i64(last.cps)) + " configs/s" : "-");
  trend("frontier  ",
        [](const Tick& t) { return static_cast<double>(t.frontier); },
        last.frontier >= 0 ? std::to_string(last.frontier) : "-");
  trend("tracked   ",
        [](const Tick& t) { return static_cast<double>(t.ledger_total); },
        obs::format_bytes(static_cast<std::size_t>(last.ledger_total)));
  trend("rss       ",
        [](const Tick& t) { return static_cast<double>(t.peak_rss_kb); },
        std::to_string(last.peak_rss_kb) + " KiB");

  const std::vector<std::string> active = active_alerts();
  if (active.empty()) return;
  out << "  ALERTS    ";
  for (std::size_t i = 0; i < active.size(); ++i) {
    out << (i > 0 ? ", " : "") << active[i];
  }
  out << "\n";
  // The most recent detail line per still-active rule.
  for (const std::string& rule : active) {
    for (auto it = alerts_.rbegin(); it != alerts_.rend(); ++it) {
      if (it->rule == rule && it->cleared_tick < 0) {
        out << "    " << rule << ": " << it->detail << "\n";
        break;
      }
    }
  }
}

std::string RunReport::baseline_json() const {
  obs::JsonObj o;
  o.str("type", "baseline");
  if (!protocol_.empty()) o.str("protocol", protocol_);
  if (n_ > 0) o.num("n", n_);
  o.num("valency_queries", static_cast<std::int64_t>(valency_queries_))
      .num("valency_memo_hits", static_cast<std::int64_t>(valency_memo_hits_))
      .num("valency_explorations",
           static_cast<std::int64_t>(valency_explores_))
      .num("lemma4_calls", static_cast<std::int64_t>(lemma4_))
      .num("di_stages", static_cast<std::int64_t>(stages_))
      .num("clones", static_cast<std::int64_t>(clones_))
      .num("explore_runs", static_cast<std::int64_t>(explore_runs_))
      .num("explore_visited", static_cast<std::int64_t>(explore_visited_));
  if (reuse_records_ > 0) {
    // Engine traversal counts are deterministic (ids, discovery order and
    // fact coverage are fixed per protocol + query sequence), so they
    // belong in the baseline: a drift means the sharing changed.
    o.num("reach_passes", static_cast<std::int64_t>(reuse_records_))
        .num("reach_expanded", static_cast<std::int64_t>(reuse_expanded_))
        .num("reach_reused", static_cast<std::int64_t>(reuse_reused_))
        .num("reach_fact_answers",
             static_cast<std::int64_t>(reuse_fact_answers_))
        .num("reach_graph_nodes", reuse_graph_nodes_)
        .num("reach_facts", reuse_facts_)
        .num("reach_replay_failures",
             static_cast<std::int64_t>(reuse_replay_failures_));
  }
  if (orbit_records_ > 0) {
    o.num("orbit_records", static_cast<std::int64_t>(orbit_records_))
        .num("orbit_nonidentity",
             static_cast<std::int64_t>(orbit_nonidentity_));
  }
  if (have_cert_) {
    o.boolean("verified", cert_verified_)
        .num("distinct_registers", cert_distinct_)
        .raw("registers", obs::json_int_array(cert_regs_))
        .num("schedule_len", cert_schedule_len_)
        .boolean("consistent", consistent_);
  }
  if (chaos_runs_ > 0) {
    o.num("chaos_runs", static_cast<std::int64_t>(chaos_runs_))
        .num("chaos_violations", static_cast<std::int64_t>(chaos_violations_))
        .num("chaos_solo_failures",
             static_cast<std::int64_t>(chaos_solo_fails_))
        .num("chaos_timeouts", static_cast<std::int64_t>(chaos_timeouts_));
  }
  if (budget_exhausted_) o.boolean("budget_exhausted", true);
  return o.render();
}

int analyze_files(const std::vector<std::string>& files, std::ostream& out) {
  RunReport rep;
  for (const std::string& path : files) {
    if (std::string error; !rep.load(path, &error)) {
      out << "tsb report: " << error << "\n";
      return 2;
    }
  }
  rep.finalize();
  rep.render_text(out);
  out << "baseline: " << rep.baseline_json() << "\n";
  if (rep.has_certificate() && !rep.consistent()) return 1;
  // A safety violation or failed solo run in the chaos records fails the
  // report; a budget-exhausted adversary run does not (clean truncation).
  if (rep.chaos_violations() > 0) return 1;
  // A shared-graph witness that failed de-canonicalized replay is an
  // engine soundness bug, never a tolerable outcome.
  if (rep.replay_failures() > 0) return 1;
  return 0;
}

// --- telemetry -------------------------------------------------------------

std::string sparkline(const std::vector<double>& xs, std::size_t width) {
  static const char* kBlocks[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (width == 0) return "";
  if (xs.empty()) return std::string(width, ' ');
  // Downsample by averaging equal tick ranges; upsample by repetition is
  // pointless, so narrow inputs just render short.
  std::vector<double> cells;
  const std::size_t n = xs.size();
  const std::size_t w = std::min(width, n);
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t lo = c * n / w;
    const std::size_t hi = std::max(lo + 1, (c + 1) * n / w);
    double sum = 0;
    for (std::size_t i = lo; i < hi; ++i) sum += xs[i];
    cells.push_back(sum / static_cast<double>(hi - lo));
  }
  const auto [mn_it, mx_it] = std::minmax_element(cells.begin(), cells.end());
  const double mn = *mn_it, mx = *mx_it;
  std::string out;
  for (double x : cells) {
    // Clamped as a double: an inf/nan sample must not reach the int cast.
    const double f = mx > mn ? (x - mn) / (mx - mn) * 7.0 + 0.5 : 0.0;
    out += kBlocks[f >= 7.0 ? 7 : f >= 0.0 ? static_cast<int>(f) : 0];
  }
  out.append(width - w, ' ');
  return out;
}

namespace {

// Per-phase aggregates one compare side derives from its timeline. Mean of
// the per-tick interval rates (not last-minus-first over wall): a phase can
// run several times (one explore per valency query), resetting visited.
struct PhaseAgg {
  std::uint64_t ticks = 0;
  double cps_sum = 0.0;
  std::uint64_t cps_samples = 0;
  std::int64_t max_ledger = 0;
  std::int64_t max_rss_kb = 0;
  double mean_cps() const {
    return cps_samples > 0 ? cps_sum / static_cast<double>(cps_samples) : 0.0;
  }
};

struct CompareSide {
  double wall_s = 0.0;
  std::size_t alerts = 0;
  PhaseAgg total;
  std::map<std::string, PhaseAgg> phases;
};

CompareSide aggregate(const RunReport& rep) {
  CompareSide s;
  for (const RunReport::Tick& t : rep.ticks()) {
    s.wall_s = std::max(s.wall_s, static_cast<double>(t.ts_ns) / 1e9);
    for (PhaseAgg* agg : {&s.total, &s.phases[t.phase]}) {
      ++agg->ticks;
      if (t.cps >= 0) {
        agg->cps_sum += t.cps;
        ++agg->cps_samples;
      }
      agg->max_ledger = std::max(agg->max_ledger, t.ledger_total);
      agg->max_rss_kb = std::max(agg->max_rss_kb, t.peak_rss_kb);
    }
  }
  s.alerts = rep.alerts().size();
  return s;
}

double pct_delta(double a, double b) {
  return a != 0.0 ? (b - a) / a * 100.0 : 0.0;
}

}  // namespace

int compare_timelines(const std::string& path_a, const std::string& path_b,
                      std::ostream& out) {
  RunReport ta, tb;
  if (std::string error; !ta.load(path_a, &error) || !tb.load(path_b, &error)) {
    out << "tsb report --compare: " << error << "\n";
    return 2;
  }
  ta.finalize();
  tb.finalize();
  if (ta.ticks().empty() || tb.ticks().empty()) {
    out << "tsb report --compare: "
        << (ta.ticks().empty() ? path_a : path_b)
        << " holds no telemetry.tick records\n";
    return 2;
  }
  const CompareSide a = aggregate(ta);
  const CompareSide b = aggregate(tb);

  out << "timeline A: " << path_a << " (" << ta.ticks().size()
      << " ticks, wall " << a.wall_s << " s)\n";
  out << "timeline B: " << path_b << " (" << tb.ticks().size()
      << " ticks, wall " << b.wall_s << " s)\n";

  bool regressed = false;
  util::Table t({"phase", "metric", "A", "B", "delta_pct", "verdict"});
  // Gated rows: wall time may grow, throughput may shrink, by at most
  // kTolerancePct. A phase missing on either side is structural drift the
  // rate gates cannot judge; it renders as informational.
  auto gate = [&](const std::string& phase, const char* metric, double va,
                  double vb, bool higher_is_better) {
    const double d = pct_delta(va, vb);
    const bool bad =
        higher_is_better ? d < -kTolerancePct : d > kTolerancePct;
    regressed = regressed || bad;
    t.row(phase, metric, va, vb, d, bad ? "REGRESSED" : "ok");
  };
  gate("(run)", "wall_s", a.wall_s, b.wall_s, /*higher_is_better=*/false);
  if (a.total.cps_samples > 0 && b.total.cps_samples > 0) {
    gate("(run)", "mean_cps", a.total.mean_cps(), b.total.mean_cps(),
         /*higher_is_better=*/true);
  }
  for (const auto& [phase, pa] : a.phases) {
    const auto it = b.phases.find(phase);
    if (it == b.phases.end()) {
      t.row(phase, "ticks", static_cast<double>(pa.ticks), 0.0, -100.0,
            "info (B missing)");
      continue;
    }
    const PhaseAgg& pb = it->second;
    if (pa.cps_samples > 0 && pb.cps_samples > 0) {
      gate(phase, "mean_cps", pa.mean_cps(), pb.mean_cps(),
           /*higher_is_better=*/true);
    }
    t.row(phase, "max_ledger_b", static_cast<double>(pa.max_ledger),
          static_cast<double>(pb.max_ledger),
          pct_delta(static_cast<double>(pa.max_ledger),
                    static_cast<double>(pb.max_ledger)),
          "info");
  }
  for (const auto& [phase, pb] : b.phases) {
    if (a.phases.find(phase) == a.phases.end()) {
      t.row(phase, "ticks", 0.0, static_cast<double>(pb.ticks), 100.0,
            "info (A missing)");
    }
  }
  t.row("(run)", "max_rss_kb", static_cast<double>(a.total.max_rss_kb),
        static_cast<double>(b.total.max_rss_kb),
        pct_delta(static_cast<double>(a.total.max_rss_kb),
                  static_cast<double>(b.total.max_rss_kb)),
        "info");
  t.row("(run)", "watch_alerts", static_cast<double>(a.alerts),
        static_cast<double>(b.alerts),
        pct_delta(static_cast<double>(a.alerts),
                  static_cast<double>(b.alerts)),
        "info");
  t.print(out, "B vs A, tolerance " + std::to_string(kTolerancePct) + "%");
  out << (regressed ? "REGRESSED past tolerance\n" : "within tolerance\n");
  return regressed ? 1 : 0;
}

}  // namespace tsb::report

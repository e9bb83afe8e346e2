#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/watchdog.hpp"
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
  if (type.rfind("explore", 0) == 0 || type.rfind("mc.", 0) == 0 ||
      type.rfind("bench", 0) == 0 || type.rfind("ckpt.", 0) == 0) {
    ingest_stats(v, type);
  } else if (type.rfind("chaos.", 0) == 0) {
    ingest_chaos(v, type);
  } else if (type == "ledger" || type.rfind("prof.", 0) == 0 ||
             type.rfind("flight.", 0) == 0) {
    ingest_introspection(v, type);
  } else if (type.rfind("telemetry.", 0) == 0 ||
             type.rfind("watch.", 0) == 0) {
    ingest_telemetry(v, type);
  } else {
    ingest_audit(v, type);
  }
}

void RunReport::ingest_telemetry(const JsonValue& v, const std::string& type) {
  if (type == "telemetry.tick") {
    ++telemetry_ticks_;
  } else if (type == "watch.alert") {
    ++watch_alerts_;
    ++watch_alert_counts_[v.str_or("rule", "?")];
  }
  // watch.clear is episode bookkeeping; nothing to aggregate.
}

void RunReport::ingest_introspection(const JsonValue& v,
                                     const std::string& type) {
  if (type == "ledger") {
    // Gauges, not counters: every record is a full snapshot, last wins.
    ledger_accounts_.clear();
    ledger_peaks_.clear();
    if (const JsonValue* acc = v.find("accounts");
        acc && acc->type == JsonValue::Type::kObj) {
      for (const auto& [name, val] : acc->obj) {
        ledger_accounts_[name] = to_i64(val.num);
      }
    }
    if (const JsonValue* pk = v.find("peaks");
        pk && pk->type == JsonValue::Type::kObj) {
      for (const auto& [name, val] : pk->obj) {
        ledger_peaks_[name] = to_i64(val.num);
      }
    }
    ledger_total_ = v.int_or("total", 0);
    ledger_peak_total_ = v.int_or("peak_total", 0);
  } else if (type == "prof.label") {
    ProfRow row;
    row.label = v.str_or("label", "?");
    row.cpu_self_ms = v.num_or("cpu_self_ms", 0.0);
    row.cpu_total_ms = v.num_or("cpu_total_ms", 0.0);
    row.wall_self_ms = v.num_or("wall_self_ms", 0.0);
    row.wall_total_ms = v.num_or("wall_total_ms", 0.0);
    prof_rows_.push_back(std::move(row));
  } else if (type == "prof.summary") {
    prof_hz_ = static_cast<int>(v.int_or("hz", 0));
    prof_cpu_samples_ = static_cast<std::uint64_t>(v.int_or("cpu_samples", 0));
    prof_wall_samples_ =
        static_cast<std::uint64_t>(v.int_or("wall_samples", 0));
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
  }
}

void RunReport::ingest_trace(const JsonValue& v) {
  ++trace_events_;
  const std::string ph = v.str_or("ph", "");
  if (ph != "X") return;  // only spans carry durations
  const std::string name = v.str_or("name", "?");
  // --trace=x.jsonl writes dur_ns; the Chrome format writes dur (us).
  double ms = v.num_or("dur_ns", -1.0);
  ms = ms >= 0 ? ms / 1e6 : v.num_or("dur", 0.0) / 1e3;
  SpanAgg& agg = spans_[name];
  ++agg.count;
  agg.total_ms += ms;
}

void RunReport::ingest_stats(const JsonValue& v, const std::string& type) {
  if (type == "explore.level") {
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
  }
}

void RunReport::count_regs(const std::vector<int>& regs) {
  for (int r : regs) ++reg_cover_counts_[r];
}

void RunReport::ingest_audit(const JsonValue& v, const std::string& type) {
  if (type == "adversary.begin") {
    protocol_ = v.str_or("protocol", "");
    n_ = static_cast<int>(v.int_or("n", 0));
  } else if (type == "valency") {
    ++valency_queries_;
    if (v.bool_or("memo_hit", false)) ++valency_memo_hits_;
  } else if (type == "valency.explore") {
    ++valency_explores_;
  } else if (type == "valency.reuse") {
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
  } else if (type == "canonical.orbit") {
    ++orbit_records_;
    if (!v.bool_or("identity", true)) ++orbit_nonidentity_;
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
  }
}

void RunReport::ingest_chaos(const JsonValue& v, const std::string& type) {
  if (type == "chaos.run") {
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
}

void RunReport::finalize() {
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

void RunReport::render_text(std::ostream& out, int top_k) const {
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
    util::Table t({"phase", "count", "total_ms"});
    for (const auto& [name, agg] : rows) {
      t.row(name, agg.count, agg.total_ms);
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
    if (static_cast<int>(rows.size()) > top_k) {
      rows.resize(static_cast<std::size_t>(top_k));
    }
    util::Table t({"config", "procs", "expanded", "reused", "visited",
                   "from_facts", "replay"});
    for (const ReuseRow* r : rows) {
      t.row(r->config, r->procs, r->expanded, r->reused, r->visited,
            r->from_facts ? "yes" : "no", r->replay_ok ? "ok" : "FAILED");
    }
    t.print(out, "shared-subgraph valency queries (top " +
                     std::to_string(top_k) + " by traversals)");
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
    if (static_cast<int>(hot.size()) > top_k) {
      hot.resize(static_cast<std::size_t>(top_k));
    }
    util::Table t({"register", "cover_count"});
    for (const auto& [reg, cnt] : hot) {
      t.row("R" + std::to_string(reg), cnt);
    }
    t.print(out, "hottest registers (top " + std::to_string(top_k) + ")");
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

  if (!prof_rows_.empty()) {
    std::vector<ProfRow> rows = prof_rows_;
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
      return a.cpu_self_ms > b.cpu_self_ms;
    });
    util::Table t({"label", "cpu_self_ms", "cpu_total_ms", "wall_self_ms",
                   "wall_total_ms"});
    for (const ProfRow& r : rows) {
      t.row(r.label, r.cpu_self_ms, r.cpu_total_ms, r.wall_self_ms,
            r.wall_total_ms);
    }
    t.print(out, "sampling profile (" + std::to_string(prof_hz_) + " Hz, " +
                     std::to_string(prof_cpu_samples_) + " cpu + " +
                     std::to_string(prof_wall_samples_) + " wall samples)");
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
      } else if (r.ev == "watch") {
        detail = std::string(obs::watch_rule_name(
                     static_cast<obs::WatchRule>(r.a))) +
                 " at tick " + std::to_string(r.b);
      } else {
        detail = std::to_string(r.a) + ", " + std::to_string(r.b);
      }
      t.row(static_cast<double>(r.ts_ns) / 1e6, r.tid, r.ev, detail);
    }
    t.print(out, "last " + std::to_string(keep) + " flight events");
  }

  if (telemetry_ticks_ > 0 || watch_alerts_ > 0) {
    out << "\ntelemetry: " << telemetry_ticks_ << " tick(s), "
        << watch_alerts_ << " watchdog alert(s)";
    if (!watch_alert_counts_.empty()) {
      out << " (";
      bool first = true;
      for (const auto& [rule, n] : watch_alert_counts_) {
        out << (first ? "" : ", ") << rule << " x" << n;
        first = false;
      }
      out << ")";
    }
    out << "\n";
  }

  if (have_cert_) {
    auto regs_str = [](const std::vector<int>& regs) {
      std::string s = "{";
      for (std::size_t i = 0; i < regs.size(); ++i) {
        if (i > 0) s += ", ";
        s += "R" + std::to_string(regs[i]);
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

int analyze_files(const std::vector<std::string>& files, int top_k,
                  const std::string& baseline_file, std::ostream& out) {
  RunReport rep;
  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      out << "tsb report: cannot read " << path << "\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) rep.ingest_line(line);
  }
  rep.finalize();
  rep.render_text(out, top_k);
  if (!baseline_file.empty()) {
    std::ofstream bf(baseline_file);
    if (!bf) {
      out << "tsb report: cannot write " << baseline_file << "\n";
      return 2;
    }
    bf << rep.baseline_json() << "\n";
    out << "baseline -> " << baseline_file << "\n";
  } else {
    out << "baseline: " << rep.baseline_json() << "\n";
  }
  if (rep.has_certificate() && !rep.consistent()) return 1;
  // A safety violation or failed solo run in the chaos records fails the
  // report; a budget-exhausted adversary run does not (clean truncation).
  if (rep.chaos_violations() > 0) return 1;
  // A shared-graph witness that failed de-canonicalized replay is an
  // engine soundness bug, never a tolerable outcome.
  if (rep.replay_failures() > 0) return 1;
  return 0;
}

// --- telemetry timelines ---------------------------------------------------

void Timeline::ingest_line(const std::string& line) {
  if (line.empty()) return;
  ++lines_;
  JsonValue v;
  if (!parse_json(line, v) || v.type != JsonValue::Type::kObj) {
    ++malformed_;
    return;
  }
  const std::string type = v.str_or("type", "");
  if (type == "telemetry.tick") {
    TimelineTick t;
    t.tick = v.int_or("tick", 0);
    t.t_s = v.num_or("t_s", 0.0);
    t.phase = v.str_or("phase", "?");
    t.level = v.int_or("level", -1);
    t.frontier = v.int_or("frontier", -1);
    t.visited = v.int_or("visited", -1);
    t.cap = v.int_or("cap", -1);
    t.cps = v.num_or("cps", -1.0);
    t.deadline_s = v.num_or("deadline_s", -1.0);
    t.flight_events = v.int_or("flight_events", -1);
    t.peak_rss_kb = v.int_or("peak_rss_kb", 0);
    t.ledger_total = v.int_or("ledger_total", 0);
    if (const JsonValue* led = v.find("ledger");
        led && led->type == JsonValue::Type::kObj) {
      for (const auto& [name, val] : led->obj) {
        t.ledger[name] = to_i64(val.num);
      }
    }
    if (const JsonValue* c = v.find("counters");
        c && c->type == JsonValue::Type::kObj) {
      for (const auto& [name, val] : c->obj) {
        t.counters[name] = to_i64(val.num);
      }
    }
    ticks_.push_back(std::move(t));
  } else if (type == "watch.alert" || type == "watch.clear") {
    TimelineAlert a;
    a.rule = v.str_or("rule", "?");
    a.tick = v.int_or("tick", 0);
    a.t_s = v.num_or("t_s", 0.0);
    a.phase = v.str_or("phase", "");
    a.detail = v.str_or("detail", "");
    a.clear = type == "watch.clear";
    alerts_.push_back(std::move(a));
  }
  // Every other record type in the stream (levels, decision trail, ledger)
  // is not part of the timeline and is skipped.
}

bool Timeline::load(const std::string& path, std::string* err) {
  std::ifstream in(path);
  if (!in) {
    if (err != nullptr) *err = "cannot read " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) ingest_line(line);
  return true;
}

std::vector<std::string> Timeline::active_alerts() const {
  std::map<std::string, bool> latched;  // rule -> alert without later clear
  for (const TimelineAlert& a : alerts_) latched[a.rule] = !a.clear;
  std::vector<std::string> out;
  for (const auto& [rule, on] : latched) {
    if (on) out.push_back(rule);
  }
  return out;
}

bool Timeline::monotonic() const {
  for (std::size_t i = 1; i < ticks_.size(); ++i) {
    if (ticks_[i].tick <= ticks_[i - 1].tick) return false;
  }
  return true;
}

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
  std::uint64_t alerts = 0;
  PhaseAgg total;
  std::map<std::string, PhaseAgg> phases;
};

CompareSide aggregate(const Timeline& tl) {
  CompareSide s;
  for (const TimelineTick& t : tl.ticks()) {
    s.wall_s = std::max(s.wall_s, t.t_s);
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
  for (const TimelineAlert& a : tl.alerts()) {
    if (!a.clear) ++s.alerts;
  }
  return s;
}

double pct_delta(double a, double b) {
  return a != 0.0 ? (b - a) / a * 100.0 : 0.0;
}

}  // namespace

int compare_timelines(const std::string& path_a, const std::string& path_b,
                      double tol_pct, std::ostream& out) {
  Timeline ta, tb;
  std::string err;
  if (!ta.load(path_a, &err) || !tb.load(path_b, &err)) {
    out << "tsb report --compare: " << err << "\n";
    return 2;
  }
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
  // tol_pct. A phase missing on either side is structural drift the rate
  // gates cannot judge; it renders as informational.
  auto gate = [&](const std::string& phase, const char* metric, double va,
                  double vb, bool higher_is_better) {
    const double d = pct_delta(va, vb);
    const bool bad = higher_is_better ? d < -tol_pct : d > tol_pct;
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
  t.print(out, "B vs A, tolerance " + std::to_string(tol_pct) + "%");
  out << (regressed ? "REGRESSED past tolerance\n" : "within tolerance\n");
  return regressed ? 1 : 0;
}

}  // namespace tsb::report

#include "report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <string>

#include "obs/jsonl_sink.hpp"

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

}  // namespace

// Parsed numbers are hostile input: saturate instead of the undefined
// behaviour of casting an out-of-range double (1e300, inf, nan).
std::int64_t to_i64(double x) {
  if (std::isnan(x)) return 0;
  if (x <= -9.2e18) return std::numeric_limits<std::int64_t>::min();
  if (x >= 9.2e18) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(x);
}

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

// --- Chrome trace export ---------------------------------------------------

namespace {

// Nanoseconds as fractional microseconds, exact to the nanosecond: a
// 2,351 ns span lasts 2.351 us, not a truncated 2.
std::string micros(std::int64_t ns) {
  const std::uint64_t mag = ns < 0 ? 0 - static_cast<std::uint64_t>(ns)
                                   : static_cast<std::uint64_t>(ns);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%" PRIu64 ".%03" PRIu64, ns < 0 ? "-" : "",
                mag / 1000, mag % 1000);
  return buf;
}

}  // namespace

int export_chrome(const std::string& path, std::ostream& out,
                  std::ostream& err) {
  std::ifstream in(path);
  if (!in) {
    err << "tsb report --chrome: cannot read " << path << "\n";
    return 2;
  }
  std::string line;
  std::getline(in, line);
  if (line.find(kChromeMarker) != std::string::npos) {
    err << "tsb report --chrome: " << path
        << " is already a Chrome trace_event document\n";
    return 2;
  }
  out << "{\"displayTimeUnit\":\"ns\"," << kChromeMarker;
  const char* sep = "";
  do {
    JsonValue v;
    if (!parse_json(line, v) || v.type != JsonValue::Type::kObj) continue;
    const std::string ph = v.str_or("ph", "");
    if (ph != "X" && ph != "i" && ph != "C") continue;
    const std::string name = v.str_or("name", "?");
    // Perfetto draws a counter's track from args keyed by the series name.
    const std::string arg = ph == "C" ? name : "value";
    const JsonValue* args = v.find("args");
    obs::JsonObj ev;
    ev.str("name", name)
        .str("ph", ph)
        .num("pid", v.int_or("pid", 1))
        .num("tid", v.int_or("tid", 0))
        .raw("ts", micros(v.int_or("ts_ns", 0)));
    if (ph == "X") ev.raw("dur", micros(v.int_or("dur_ns", 0)));
    ev.raw("args", obs::JsonObj()
                       .num(arg, args ? args->int_or(arg, 0) : 0)
                       .render());
    if (ph == "i") ev.str("s", "t");
    out << sep << ev.render();
    sep = ",\n";
  } while (std::getline(in, line));
  out << "]}\n";
  return 0;
}

}  // namespace tsb::report

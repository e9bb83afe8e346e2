#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>

#include "obs/memledger.hpp"
#include "util/table.hpp"

namespace tsb::report {

// --- ticks ------------------------------------------------------------------

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

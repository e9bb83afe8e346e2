#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <ostream>

#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "util/table.hpp"

namespace tsb::report {

std::string fmt(double v) { return util::Table::to_cell(v); }


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
    if (first && line.find(kChromeMarker) != std::string::npos) {
      return refuse(path +
                    " is a Chrome trace_event document (open it in "
                    "Perfetto); tsb report reads the JSONL trace --trace "
                    "writes, and tsb report --chrome exports one");
    }
    ingest_line(line);
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

}  // namespace tsb::report

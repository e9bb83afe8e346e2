#include "sim/model_checker.hpp"

#include <set>

#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"

namespace tsb::sim {

namespace {
struct CheckMetrics {
  obs::Counter& initial =
      obs::Registry::global().counter("mc.initial_configs");
  obs::Counter& configs = obs::Registry::global().counter("mc.configs");
  obs::Counter& solo_runs = obs::Registry::global().counter("mc.solo_runs");
  obs::Gauge& max_solo = obs::Registry::global().gauge("mc.max_solo_steps");
};
CheckMetrics& check_metrics() {
  static CheckMetrics m;
  return m;
}
}  // namespace

std::vector<std::vector<Value>> all_binary_inputs(int n) {
  std::vector<std::vector<Value>> out;
  const std::size_t count = 1ull << n;
  out.reserve(count);
  for (std::size_t mask = 0; mask < count; ++mask) {
    std::vector<Value> inputs(static_cast<std::size_t>(n));
    for (int p = 0; p < n; ++p) {
      inputs[static_cast<std::size_t>(p)] = (mask >> p) & 1u;
    }
    out.push_back(std::move(inputs));
  }
  return out;
}

std::string ModelChecker::Report::summary() const {
  std::string s = ok ? "OK" : ("VIOLATION: " + violation);
  s += " (initial configs: " + std::to_string(initial_configs) +
       ", reachable configs: " + std::to_string(total_configs) +
       ", solo runs: " + std::to_string(solo_runs_checked) +
       ", max solo steps: " + std::to_string(max_solo_steps_seen) + ")";
  if (solo_failures > 0) {
    s += " [" + std::to_string(solo_failures) +
         " configs without solo termination]";
  }
  if (truncated) s += " [TRUNCATED: bound exceeded, result incomplete]";
  return s;
}

ModelChecker::Report ModelChecker::check(
    const std::vector<std::vector<Value>>& input_vectors) {
  Explorer explorer(proto_, {.limits = {.max_configs = opts_.max_configs}});
  Report rep;
  const int n = proto_.num_processes();
  const ProcSet everyone = ProcSet::first_n(n);
  CheckMetrics& metrics = check_metrics();
  obs::Heartbeat hb("model-check");

  for (const auto& inputs : input_vectors) {
    obs::Span span("mc.input_vector");
    ++rep.initial_configs;
    metrics.initial.add();
    hb.beat([&](obs::Sample& s) {
      s.level = static_cast<std::int64_t>(rep.initial_configs - 1);
      s.visited = static_cast<std::int64_t>(rep.total_configs);
    });
    const Config init = initial_config(proto_, inputs);
    const std::set<Value> legal(inputs.begin(), inputs.end());

    auto fail = [&](const ConfigView& c, std::string what) {
      rep.ok = false;
      rep.violation = std::move(what);
      rep.bad_config = c.materialize();
      rep.bad_inputs = inputs;
      return false;  // abort exploration
    };

    auto result = explorer.explore(init, everyone, [&](const ConfigView& c) {
      // Agreement (k-set) + validity over decided values in c.
      std::set<Value> decided;
      for (ProcId p = 0; p < n; ++p) {
        if (auto d = decision_of(proto_, c, p)) {
          decided.insert(*d);
          if (legal.count(*d) == 0) {
            return fail(c, "validity: p" + std::to_string(p) + " decided " +
                               std::to_string(*d) +
                               " which is no process's input");
          }
        }
      }
      if (static_cast<int>(decided.size()) > opts_.k) {
        return fail(c, std::to_string(decided.size()) +
                           " distinct values decided; k = " +
                           std::to_string(opts_.k));
      }

      if (opts_.check_solo_termination) {
        for (ProcId p = 0; p < n; ++p) {
          if (decision_of(proto_, c, p)) continue;
          // run_solo materializes: it steps through Config objects. The
          // copy is per solo run, not per probe, so it is off the BFS
          // hot path.
          SoloRun solo = run_solo(proto_, c.materialize(), p,
                                  opts_.solo_step_cap);
          ++rep.solo_runs_checked;
          metrics.solo_runs.add();
          metrics.max_solo.set(static_cast<std::int64_t>(solo.schedule.size()));
          rep.max_solo_steps_seen =
              std::max(rep.max_solo_steps_seen, solo.schedule.size());
          if (!solo.decided) {
            if (opts_.fail_on_solo_violation) {
              return fail(c, "solo termination: p" + std::to_string(p) +
                                 " ran alone for " +
                                 std::to_string(opts_.solo_step_cap) +
                                 " steps without deciding");
            }
            ++rep.solo_failures;
            if (!rep.sample_solo_failure) rep.sample_solo_failure =
                c.materialize();
            break;  // count each configuration at most once
          }
        }
      }
      return true;
    });

    rep.total_configs += result.visited;
    metrics.configs.add(result.visited);
    span.set_value(static_cast<std::int64_t>(result.visited));
    rep.truncated = rep.truncated || result.truncated;

    if (obs::stats_enabled()) {
      std::vector<int> in;
      in.reserve(inputs.size());
      for (Value v : inputs) in.push_back(static_cast<int>(v));
      obs::stats_sink().write(
          obs::audit_event("mc.input")
              .num("index", static_cast<std::int64_t>(rep.initial_configs - 1))
              .raw("inputs", obs::json_int_array(in))
              .num("visited", static_cast<std::int64_t>(result.visited))
              .boolean("truncated", result.truncated)
              .num("solo_runs_total",
                   static_cast<std::int64_t>(rep.solo_runs_checked))
              .num("solo_failures_total",
                   static_cast<std::int64_t>(rep.solo_failures))
              .boolean("ok", rep.ok)
              .render());
    }

    if (!rep.ok) {
      if (rep.bad_config) {
        rep.schedule_to_bad = explorer.witness(*rep.bad_config);
      }
      return rep;
    }
  }
  return rep;
}

ModelChecker::Report ModelChecker::check_all_binary_inputs() {
  return check(all_binary_inputs(proto_.num_processes()));
}

}  // namespace tsb::sim

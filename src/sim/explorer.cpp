#include "sim/explorer.hpp"

#include <algorithm>
#include <cerrno>

#include "util/spill_store.hpp"

namespace tsb::sim {

namespace detail {
ExploreMetrics& explore_metrics() {
  static ExploreMetrics m{
      obs::Registry::global().counter("sim.explore.visited"),
      obs::Registry::global().counter("sim.explore.dedup_hits"),
      obs::Registry::global().gauge("sim.explore.frontier"),
  };
  return m;
}

namespace {
double elapsed_ms(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
}  // namespace

LevelStatsTracker::LevelStatsTracker(const char* who)
    : who_(who), active_(obs::stats_enabled()) {
  if (!active_) return;
  t_start_ = std::chrono::steady_clock::now();
  t_level_ = t_start_;
}

obs::JsonObj LevelStatsTracker::level_record(const ConfigArena& arena,
                                             std::uint64_t frontier,
                                             std::uint64_t discovered,
                                             std::uint64_t dedup) {
  const auto now = std::chrono::steady_clock::now();
  const double ms = elapsed_ms(t_level_, now);
  t_level_ = now;
  const std::uint64_t edges = discovered + dedup;
  const std::size_t slots = arena.table_slots();
  const std::int64_t bytes = static_cast<std::int64_t>(arena.memory_bytes());
  const std::int64_t rss = obs::peak_rss_kb();
  configs_ = arena.size();
  obs::Registry& reg = obs::Registry::global();
  reg.gauge("sim.explore.arena_bytes").set(bytes);
  reg.gauge("process.peak_rss_kb").set(rss);
  obs::JsonObj rec = obs::audit_event("explore.level");
  rec.str("who", who_)
      .num("level", static_cast<std::int64_t>(levels_++))
      .num("frontier", static_cast<std::int64_t>(frontier))
      .num("discovered", static_cast<std::int64_t>(discovered))
      .num("dedup_hits", static_cast<std::int64_t>(dedup))
      .numf("dedup_rate", edges ? static_cast<double>(dedup) /
                                      static_cast<double>(edges)
                                : 0.0)
      .num("total_configs", static_cast<std::int64_t>(arena.size()))
      .numf("ms", ms)
      .numf("configs_per_sec",
            ms > 0.0 ? static_cast<double>(discovered) * 1000.0 / ms : 0.0)
      .numf("table_load", slots ? static_cast<double>(arena.size()) /
                                      static_cast<double>(slots)
                                : 0.0)
      .num("table_slots", static_cast<std::int64_t>(slots))
      .num("arena_bytes", bytes)
      .num("peak_rss_kb", rss);
  return rec;
}

void LevelStatsTracker::commit_level(obs::JsonObj&& record) {
  buffered_.push_back(std::move(record).render());
  if (configs_ < kStatsMinVisited) return;
  obs::JsonlSink& sink = obs::stats_sink();
  for (const std::string& line : buffered_) sink.write(line);
  buffered_.clear();
}

void LevelStatsTracker::done(const ConfigArena& arena,
                             const ExploreResult& res,
                             std::uint64_t dedup_total) {
  obs::JsonlSink& sink = obs::stats_sink();
  const double ms = elapsed_ms(t_start_, std::chrono::steady_clock::now());
  sink.write(obs::audit_event("explore.done")
                 .str("who", who_)
                 .num("visited", static_cast<std::int64_t>(res.visited))
                 .num("levels", static_cast<std::int64_t>(levels_))
                 .num("dedup_hits", static_cast<std::int64_t>(dedup_total))
                 .boolean("truncated", res.truncated)
                 .boolean("aborted", res.aborted)
                 .numf("ms", ms)
                 .numf("configs_per_sec",
                       ms > 0.0 ? static_cast<double>(res.visited) * 1000.0 / ms
                                : 0.0)
                 .num("arena_bytes",
                      static_cast<std::int64_t>(arena.memory_bytes()))
                 .render());
}
}  // namespace detail

Explorer::Explorer(const Protocol& proto, Options opts)
    : proto_(proto),
      opts_(std::move(opts)),
      arena_(proto.num_processes(), proto.num_registers(), "explorer"),
      pvals_(arena_.words_per_config()),
      pcodes_(arena_.row_codes()),
      scodes_(arena_.row_codes()) {
  const Limits::Spill& spill = opts_.limits.spill;
  if (spill.armed() &&
      !arena_.set_spill(spill.dir, spill.threshold_bytes, spill.seg_configs)) {
    util::spill::throw_unusable_dir(spill.dir, errno);
  }
}

std::optional<Schedule> Explorer::witness(const Config& target) const {
  std::vector<Value> packed(arena_.words_per_config());
  arena_.pack(target, packed.data());
  const ConfigId id = arena_.find(packed.data());
  if (id == kNoConfig) return std::nullopt;
  return witness_by_id(id);
}

std::optional<Schedule> Explorer::witness_by_id(ConfigId id) const {
  if (id >= parent_.size()) return std::nullopt;
  std::vector<ProcId> rev;
  ConfigId idx = id;
  while (idx != kNoConfig) {
    const auto [par, via] = parent_[idx];
    if (par != kNoConfig) rev.push_back(via);
    idx = par;
  }
  std::reverse(rev.begin(), rev.end());
  return Schedule(std::move(rev));
}

}  // namespace tsb::sim

#pragma once

#include <cstdint>

#include "obs/progress.hpp"

namespace tsb::obs::telemetry {

/// Heartbeat telemetry rides the stats stream: while stats_enabled(), every
/// Heartbeat tick appends one {"type":"telemetry.tick",...} record to
/// stats_sink(). There is no separate file or gate.

/// Start a new timeline: tick ids restart at 0, the interval-rate baseline
/// is dropped and the global watchdog forgets its window. The CLI calls it
/// right after opening the stats file for a run command — a file is one
/// run.
void reset();

/// Budgets the ticks project against (the CLI forwards --mem-budget and
/// --time-budget-ms). mem_bytes feeds the ledger-runaway watchdog rule;
/// time_ms fixes a deadline `time_ms` from now, reported as `deadline_s`
/// (seconds left) on each tick. 0 disables either.
void set_budgets(std::uint64_t mem_bytes, std::uint64_t time_ms);

/// First tick id the next ticks will use. A resumed run passes the tick
/// count recorded in the checkpoint manifest so tick ids stay monotonic
/// across the interruption — `tsb report` can concatenate the original and
/// resumed timelines and still assert a strictly increasing sequence.
void set_tick_base(std::uint64_t base);

/// Register the checkpoint-age probe the checkpoint-stall watchdog rule
/// samples each tick: `age_s` returns seconds since the last successful
/// checkpoint write (-1 = checkpointing disabled), `interval_ms` is the
/// configured cadence (0 = no wall-clock cadence, rule off). Pass
/// (nullptr, 0) to unregister.
void set_ckpt_probe(std::int64_t (*age_s)(), std::uint64_t interval_ms);

/// Append one self-contained {"type":"telemetry.tick",...} record to the
/// stats stream — phase, level/frontier/visited/cap from the sample,
/// interval configs/sec, deadline_s (with a time budget), flight_events
/// (with the flight recorder on), every non-zero metrics-registry counter
/// and gauge, the full memory ledger, and peak RSS — then run the watchdog
/// over the updated window, appending {"type":"watch.alert"/"watch.clear",
/// ...} records, a stderr warning and a flight-recorder event for every
/// episode edge. No-op unless stats_enabled().
///
/// Riding the Heartbeat cadence keeps this off the hot path: callers are
/// already rate-limited to the progress interval. The sink is flushed after
/// every tick, so a run killed mid-campaign loses at most the interval
/// since the last tick; tick ids are monotonic within the file.
void tick(const Sample& s);

/// Ticks written since reset() (plus any tick base).
std::uint64_t ticks();

}  // namespace tsb::obs::telemetry

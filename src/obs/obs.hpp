#pragma once

/// Umbrella header for the observability layer.
///
/// src/obs is dependency-free (standard library only) and sits below every
/// other module: sim, bound, rt, mutex and perturb all instrument through
/// it, the CLI and benches export through it.
///
/// The discipline, enforced by tests/test_obs.cpp and the TSan CI job:
///  * disabled instrumentation costs one relaxed load (tracing) or one
///    sharded relaxed load+store (metrics) — never a locked instruction,
///    never a shared contended cache line;
///  * enabling tracing/metrics changes no observable behavior, only emits.
#include "obs/flight.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/memledger.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace_sink.hpp"

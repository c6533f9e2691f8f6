// Human-readable metrics report for `vc2m simulate --report`.
//
// Renders the end-of-run picture as aligned tables (util::Table): per-core
// utilization / throttle / idle fractions, per-task response-time ratios
// (max and registry-histogram quantiles), per-VCPU server behaviour, and —
// when an allocator produced the deployment — the allocator effort
// counters (write_alloc_effort).
#pragma once

#include <iosfwd>

#include "obs/metrics.h"
#include "sim/simulation.h"
#include "util/instrument.h"

namespace vc2m::obs {

/// The full report. `registry` may carry the MetricsRecorder's histograms
/// (used for response-ratio quantiles); pass an empty registry to skip the
/// quantile columns. `alloc` is optional.
void write_report(std::ostream& os, const sim::SimConfig& cfg,
                  const sim::SimStats& stats, const MetricsRegistry& registry,
                  util::Time duration,
                  const util::AllocCounters* alloc = nullptr);

/// The "Allocator effort" table: every allocator counter, one per row.
/// write_report ends with it; `vc2m experiment --preset fig4` prints it for
/// the whole sweep.
void write_alloc_effort(std::ostream& os, const util::AllocCounters& c);

}  // namespace vc2m::obs

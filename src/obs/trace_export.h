// Trace serialisation: Chrome/Perfetto `trace_event` JSON and compact CSV.
//
// The JSON form renders the schedule as tracks — one per core (which VCPU
// occupies it, throttle windows) and one per VCPU (which task executes,
// job releases/completions/misses, budget exhaustions, hypercalls) — and
// opens directly in chrome://tracing or https://ui.perfetto.dev. Besides
// the rendered `traceEvents`, the file carries a lossless `vc2mEvents`
// array (one compact record per raw event, ignored by the viewers) so a
// trace written to disk can be re-imported and replayed by the invariant
// checker. The CSV form is the same raw stream, one event per row.
//
// Field ordering and number formatting are fixed (golden-file tested):
// timestamps are emitted in microseconds with three decimals, events in
// recorded order.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulation.h"
#include "sim/trace.h"

namespace vc2m::obs {

/// A numeric time series rendered as a Perfetto counter track ("C" phase
/// events): thread-pool executed/steal/pending telemetry, queue depths…
/// Samples must be in nondecreasing time order.
struct CounterTrack {
  std::string name;
  std::vector<std::pair<util::Time, double>> samples;
};

/// Track labelling for the JSON exporter (which core each VCPU lives on,
/// which VM it belongs to). Derivable from a SimConfig; default-constructed
/// meta labels tracks by bare indices.
struct TraceMeta {
  unsigned num_cores = 0;            ///< 0: inferred from the events
  std::vector<int> vcpu_core;        ///< per VCPU; -1 = unknown
  std::vector<int> vcpu_vm;          ///< per VCPU; -1 = unknown
  /// Optional counter tracks shown as a separate "telemetry" process.
  /// Empty (the default) emits nothing, so existing golden traces are
  /// byte-identical.
  std::vector<CounterTrack> counters;

  static TraceMeta from_config(const sim::SimConfig& cfg);
};

/// Chrome trace_event JSON ("JSON Object Format" with a traceEvents
/// array), one event per line.
void write_chrome_trace(std::ostream& os,
                        std::span<const sim::TraceEvent> events,
                        const TraceMeta& meta = {});

/// Compact CSV: header `time_ns,kind,core,vcpu,task,job`, one event/row.
void write_trace_csv(std::ostream& os,
                     std::span<const sim::TraceEvent> events);

/// Re-import a CSV trace written by write_trace_csv. Throws util::Error on
/// malformed rows or unknown kinds.
std::vector<sim::TraceEvent> read_trace_csv(std::istream& is);

/// Re-import the `vc2mEvents` array of a JSON trace written by
/// write_chrome_trace. Throws util::Error when the array is absent.
std::vector<sim::TraceEvent> read_chrome_trace(std::istream& is);

/// Dispatch on file extension (.csv → CSV, anything else → JSON); writes
/// the file and throws util::Error when it cannot be opened.
void write_trace_file(const std::string& path,
                      std::span<const sim::TraceEvent> events,
                      const TraceMeta& meta = {});
std::vector<sim::TraceEvent> read_trace_file(const std::string& path);

}  // namespace vc2m::obs

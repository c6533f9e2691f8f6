// Machine-readable bench reports (`BENCH_*.json`) and the perf-diff gate.
//
// Every bench binary (and `vc2m experiment --profile`) can serialise one
// BenchReport: what ran (name, git rev, config strings), how hard the
// allocator worked (AllocCounters), where the wall time went (merged
// phase-profiler tree), latency distributions (histogram quantiles) and
// thread-pool telemetry. The JSON schema is versioned
// ("vc2m-bench-report/1") and read back by `vc2m perfdiff`, which compares
// two reports per-phase and per-counter and exits nonzero on regression —
// the gate scripts/check.sh runs on every bench smoke.
//
// The report's members are declared once, in `fields` below, and written
// and read through obs/json.h: the reader accepts exactly the documents
// the writer produces plus ordinary whitespace variations, and rejects
// duplicate object keys and non-finite numbers with a byte-offset error
// instead of silently accepting a corrupted report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "obs/profiler.h"
#include "util/instrument.h"
#include "util/log_histogram.h"
#include "util/record.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace vc2m::obs {

/// Fixed-quantile summary of a latency distribution — enough for the diff
/// gate without shipping raw buckets.
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p95 = 0;
  double p99 = 0;

  /// The summary of a util::LogHistogram or util::SampleStats.
  template <class H>
  static HistogramSummary of(const H& h) {
    if (h.empty()) return {h.count()};
    return {h.count(), h.mean(),   h.min(),    h.max(),
            h.p(0.50), h.p(0.90), h.p(0.95), h.p(0.99)};
  }
};

/// The JSON members of a histogram summary, shared by the bench and serve
/// reports (obs/json.h).
template <util::RecordOf<HistogramSummary> R, class V>
void fields(R& h, V&& v) {
  v("count", h.count);
  v("mean", h.mean);
  v("min", h.min);
  v("max", h.max);
  v("p50", h.p50);
  v("p90", h.p90);
  v("p95", h.p95);
  v("p99", h.p99);
}

/// Thread-pool telemetry as report data (idle time in seconds).
struct PoolSummary {
  struct Worker {
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
    double idle_sec = 0;
    std::uint64_t max_queue = 0;
  };
  std::vector<Worker> workers;

  bool empty() const { return workers.empty(); }
  static PoolSummary of(const util::PoolTelemetry& t);
};

inline constexpr const char* kBenchReportSchema = "vc2m-bench-report/1";

/// One bench run, ready to serialise. `phases` is the merged profile root
/// (synthetic unnamed node; see obs/profiler.h).
struct BenchReport {
  std::string schema = kBenchReportSchema;
  std::string name;
  std::string git_rev;
  std::map<std::string, std::string> config;
  std::map<std::string, double> counters;
  PhaseStats phases;
  std::map<std::string, HistogramSummary> histograms;
  PoolSummary pool;
};

// The bench report's JSON members (obs/json.h), in wire order.

template <util::RecordOf<PhaseStats> R, class V>
void fields(R& p, V&& v) {
  v("name", p.name);
  v("count", p.count);
  v("total_sec", p.total_sec);
  v("self_sec", p.self_sec);
  v("children", p.children);
}

template <util::RecordOf<PoolSummary::Worker> R, class V>
void fields(R& w, V&& v) {
  v("executed", w.executed);
  v("steals", w.steals);
  v("idle_sec", w.idle_sec);
  v("max_queue", w.max_queue);
}

template <util::RecordOf<PoolSummary> R, class V>
void fields(R& p, V&& v) {
  v("workers", p.workers);
}

template <util::RecordOf<BenchReport> R, class V>
void fields(R& r, V&& v) {
  v("schema", r.schema);
  v("name", r.name);
  v("git_rev", r.git_rev);
  v("config", r.config);
  v("counters", r.counters);
  v("phases", r.phases.children);
  v("histograms", r.histograms);
  v("pool", r.pool);
}

/// The git revision baked in at configure time ("unknown" outside a
/// checkout).
std::string build_git_rev();

/// Flatten an AllocCounters into the report's counter map (names match the
/// struct fields).
void set_counters(BenchReport& r, const util::AllocCounters& c);

void write_bench_report(std::ostream& os, const BenchReport& r);

/// Throws util::Error on malformed JSON, a missing member, a schema the
/// reader does not understand, or counters/histograms/config keys out of
/// ascending order. Unknown fields at any level are reported through
/// `notes` (when given).
BenchReport read_bench_report(std::istream& is,
                              std::vector<std::string>* notes = nullptr);

struct PerfDiffOptions {
  double max_regress = 0.10;    ///< allowed fractional growth (0.10 = +10%)
  double min_abs_sec = 1e-4;    ///< ignore time deltas below this (noise)
  double min_abs_count = 1.0;   ///< ignore counter deltas below this
};

struct PerfDiffEntry {
  std::string kind;   ///< "phase", "counter", "histogram", "pool"
  std::string key;    ///< phase path / counter name / histogram.quantile
  double base = 0;
  double current = 0;
  bool regression = false;
};

struct PerfDiffResult {
  std::vector<PerfDiffEntry> entries;   ///< every compared quantity
  std::vector<std::string> notes;       ///< keys present on one side only
  bool has_regression() const {
    for (const auto& e : entries)
      if (e.regression) return true;
    return false;
  }
};

/// The config keys present in both reports with different values, one
/// "key: 'base' vs 'current'" line each, in key order. Reports that differ
/// in a shared key (say `jobs`) measured different work, so perfdiff
/// refuses to compare them. A key on one side only is not a difference: a
/// report written before the key existed says nothing about it.
std::vector<std::string> unlike_config(const BenchReport& base,
                                       const BenchReport& current);

/// Compare `current` against `base`. A quantity regresses when it grows by
/// more than max_regress relative AND more than the absolute floor — small
/// absolute jitter on a near-zero phase must not fail a gate. Counters
/// where more is better (cache hits, admissions passed) are skipped.
PerfDiffResult diff_reports(const BenchReport& base, const BenchReport& current,
                            const PerfDiffOptions& opt = {});

/// Human-readable rendering of a diff (regressions flagged with "REGRESS").
void write_perfdiff(std::ostream& os, const PerfDiffResult& d);

}  // namespace vc2m::obs

// The versioned serve-report artifact ("vc2m-serve-report/1"): the
// machine-readable outcome of one `vc2m serve` run, declared once in
// `fields` below and written and read through obs/json.h like the
// bench/explain/scenario reports.
//
// Every field is deterministic — counters fold in processing order, the
// latency distribution is a virtual-time LogHistogram, and the final-state
// digest reuses the frozen scenario digest format — so a report is
// byte-identical for a fixed (trace, seed, config) whether the run was
// uninterrupted or crash-killed and recovered (scripts/check.sh diffs the
// two byte for byte). Wall-clock timing deliberately stays out.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "obs/json.h"

namespace vc2m::service {

inline constexpr const char* kServeReportSchema = "vc2m-serve-report/1";

/// Integer fields, the seed among them, are JSON numbers (doubles): only
/// values below 2^53 survive the round trip exactly, so the reader rejects
/// anything at or above and `vc2m serve --seed` refuses such seeds.
using obs::json::kMaxExactCount;

struct ServeReport {
  std::string schema = kServeReportSchema;
  std::string git_rev;
  std::string trace;      ///< the trace spec string
  std::string platform;   ///< "A" | "B" | "C"
  std::uint64_t seed = 0;
  // Config echo (what the run actually used).
  std::int64_t deadline_us = 0;  ///< 0 = no per-request deadline
  std::string shed_policy;
  std::uint64_t queue_cap = 0;
  std::uint64_t max_retries = 0;
  std::int64_t backoff_us = 0;
  std::uint64_t snapshot_every = 0;
  // Totals (terminal outcomes partition the processed requests).
  std::uint64_t requests = 0;        ///< trace length
  std::uint64_t arrivals = 0;        ///< arrivals enqueued before the end
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;        ///< full-solver capacity rejections
  std::uint64_t probe_rejected = 0;  ///< headroom-probe rejections
  std::uint64_t removed = 0;
  std::uint64_t resized = 0;
  std::uint64_t resize_rejected = 0;
  std::uint64_t not_present = 0;     ///< remove/resize of an absent VM
  std::uint64_t deferred = 0;        ///< deferral events (non-terminal)
  std::uint64_t retries = 0;         ///< re-enqueued deferred requests
  std::uint64_t shed = 0;            ///< dropped by the overload policy
  std::uint64_t timed_out = 0;       ///< retry budget exhausted
  std::uint64_t downgrades = 0;      ///< full solve -> headroom probe
  std::uint64_t commits = 0;
  std::uint64_t snapshots = 0;
  // Queue behaviour.
  std::uint64_t queue_max_depth = 0;
  std::uint64_t backpressure = 0;    ///< enqueues at >= 3/4 capacity
  // Decision-log provenance volume (events emitted per request, summed).
  std::uint64_t decision_events = 0;
  std::uint64_t decision_dropped = 0;
  /// Virtual end-to-end latency (arrival -> decision), µs, split by
  /// outcome class: admitted = {admitted, removed, resized}; rejected =
  /// {rejected, probe_rejected, resize_rejected, not_present, timed_out};
  /// deferred = arrival -> defer decision; shed = arrival -> shed.
  obs::HistogramSummary latency_admitted_us;
  obs::HistogramSummary latency_rejected_us;
  obs::HistogramSummary latency_deferred_us;
  obs::HistogramSummary latency_shed_us;
  // Final admitted state.
  std::uint64_t vms = 0;
  std::uint64_t vcpus = 0;
  std::uint64_t cores_used = 0;
  std::string digest;  ///< scenario/digest.h solve digest of the state
  /// True when the run stopped early on SIGINT/SIGTERM; such a partial
  /// report is still schema-valid and internally consistent.
  bool interrupted = false;
};

/// The report's JSON members (obs/json.h), in wire order: the flat
/// ServeReport grouped into its sections.
template <util::RecordOf<ServeReport> R, class V>
void fields(R& r, V&& v) {
  using obs::json::Group;
  v("schema", r.schema);
  v("git_rev", r.git_rev);
  v("trace", r.trace);
  v("platform", r.platform);
  v("seed", r.seed);
  v("config", Group{[&](auto&& g) {
    g("deadline_us", r.deadline_us);
    g("shed_policy", r.shed_policy);
    g("queue_cap", r.queue_cap);
    g("max_retries", r.max_retries);
    g("backoff_us", r.backoff_us);
    g("snapshot_every", r.snapshot_every);
  }});
  v("totals", Group{[&](auto&& g) {
    g("requests", r.requests);
    g("arrivals", r.arrivals);
    g("admitted", r.admitted);
    g("rejected", r.rejected);
    g("probe_rejected", r.probe_rejected);
    g("removed", r.removed);
    g("resized", r.resized);
    g("resize_rejected", r.resize_rejected);
    g("not_present", r.not_present);
    g("deferred", r.deferred);
    g("retries", r.retries);
    g("shed", r.shed);
    g("timed_out", r.timed_out);
    g("downgrades", r.downgrades);
    g("commits", r.commits);
    g("snapshots", r.snapshots);
  }});
  v("queue", Group{[&](auto&& g) {
    g("max_depth", r.queue_max_depth);
    g("backpressure", r.backpressure);
  }});
  v("decisions", Group{[&](auto&& g) {
    g("events", r.decision_events);
    g("dropped", r.decision_dropped);
  }});
  v("latency_us", Group{[&](auto&& g) {
    g("admitted", r.latency_admitted_us);
    g("rejected", r.latency_rejected_us);
    g("deferred", r.latency_deferred_us);
    g("shed", r.latency_shed_us);
  }});
  v("state", Group{[&](auto&& g) {
    g("vms", r.vms);
    g("vcpus", r.vcpus);
    g("cores_used", r.cores_used);
    g("digest", r.digest);
  }});
  v("interrupted", obs::json::Flag{r.interrupted});
}

void write_serve_report(std::ostream& os, const ServeReport& r);

/// Strict reader (throws util::Error on malformed JSON, a bad schema,
/// missing/ill-typed fields, or values no run writes: an unknown platform
/// or shed policy, an empty trace, queue_cap 0, more arrivals than
/// requests, a queue deeper than its cap, a state digest that is not a
/// solve digest, totals that do not cover the enqueued attempts). Unknown
/// fields at any level — a newer writer's additions — are surfaced through
/// `notes` (when given) instead of being rejected, so old readers keep
/// working across forward-compatible schema growth.
ServeReport read_serve_report(std::istream& is,
                              const std::string& what = "serve report",
                              std::vector<std::string>* notes = nullptr);

}  // namespace vc2m::service

// Runtime telemetry for the admission-control service
// ("vc2m-metrics-timeline/1") — docs/telemetry.md.
//
// The timeline is a framed, checksummed sequence of metrics samples using
// the journal framing (service/journal.h): a header naming the schema, the
// config digest, and the sampling cadence, then one frame per sample. A
// sample is taken every `every` *decisions* — journal-record events in
// virtual time — so the file is a pure function of (trace, seed, config,
// every): bit-identical at any --jobs/--inner-jobs, and a crash +
// --recover run regenerates it exactly. The scan is torn-tail tolerant
// like the journal's: a partial trailing frame (or a frame that fails the
// strict sample parse) ends the valid prefix with a warning, never a
// crash.
//
// The span ring is the post-mortem half: a bounded buffer of the last K
// request spans, dumped as "vc2m-span-dump/1" text next to the journal
// when the service crashes or is interrupted. Because a span is pushed
// only after its journal record is durable, the dump's tail always
// matches the journal's tail.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/request_span.h"
#include "util/log_histogram.h"
#include "util/record.h"

namespace vc2m::service {

inline constexpr const char* kTimelineSchema = "vc2m-metrics-timeline/1";
inline constexpr const char* kSpanDumpSchema = "vc2m-span-dump/1";

/// The service's cumulative counters. The snapshot restores them whole,
/// so anything derived from them (the timeline's decision count) restores
/// too.
struct Stats {
  std::uint64_t arrivals = 0, admitted = 0, rejected = 0, probe_rejected = 0,
                removed = 0, resized = 0, resize_rejected = 0, not_present = 0,
                deferred = 0, retries = 0, shed = 0, timed_out = 0,
                downgrades = 0, queue_max_depth = 0, backpressure = 0,
                decision_events = 0, decision_dropped = 0,
                // Cumulative allocator effort, folded from the journal's
                // per-record deltas on replay so the metrics timeline is
                // replay-stable even for decisions whose solver run is
                // skipped.
                dbf_evals = 0, budget_evals = 0, admission_tests = 0;
};

/// The snapshot's `stats=` line, in this order.
template <util::RecordOf<Stats> R, class V>
void fields(R& s, V&& v) {
  v("arrivals", s.arrivals);
  v("admitted", s.admitted);
  v("rejected", s.rejected);
  v("probe_rejected", s.probe_rejected);
  v("removed", s.removed);
  v("resized", s.resized);
  v("resize_rejected", s.resize_rejected);
  v("not_present", s.not_present);
  v("deferred", s.deferred);
  v("retries", s.retries);
  v("shed", s.shed);
  v("timed_out", s.timed_out);
  v("downgrades", s.downgrades);
  v("queue_max_depth", s.queue_max_depth);
  v("backpressure", s.backpressure);
  v("decision_events", s.decision_events);
  v("decision_dropped", s.decision_dropped);
  v("dbf_evals", s.dbf_evals);
  v("budget_evals", s.budget_evals);
  v("admission_tests", s.admission_tests);
}

/// One timeline sample: the service's externally observable state after
/// `served` decisions. Every counter is cumulative — including the
/// AllocCounters trio — so any sample stands alone and recovery can resume
/// sampling from a snapshot without reconstructing a delta baseline.
/// Display layers (vc2m timeline --csv) derive deltas when they want them.
struct MetricsSample {
  std::uint64_t index = 0;   ///< 0-based sample number
  std::uint64_t served = 0;  ///< decisions (journal records) so far
  std::int64_t vt_ns = 0;    ///< virtual time of the last decision
  std::uint64_t queue_depth = 0;
  std::uint64_t retry_depth = 0;
  std::int64_t est_ns_per_task = 0;  ///< EWMA solver-cost estimate
  /// The service's counters; a sample carries those sample_counters lists.
  Stats stats;
  std::uint64_t commits = 0;
  /// Per-outcome-class latency histograms (µs), cumulative. Classes:
  /// admitted = {admitted, removed, resized}; rejected = {rejected,
  /// probe_rejected, resize_rejected, not_present, timed_out}; deferred =
  /// arrival → defer decision; shed = arrival → shed decision.
  util::LogHistogram lat_admitted, lat_rejected, lat_deferred, lat_shed;
};

/// A sample's cumulative counters, in wire order; check_timeline holds
/// each one non-decreasing.
template <util::RecordOf<MetricsSample> R, class V>
void sample_counters(R& s, V&& v) {
  v("arrivals", s.stats.arrivals);
  v("admitted", s.stats.admitted);
  v("rejected", s.stats.rejected);
  v("probe_rejected", s.stats.probe_rejected);
  v("deferred", s.stats.deferred);
  v("timed_out", s.stats.timed_out);
  v("shed", s.stats.shed);
  v("downgrades", s.stats.downgrades);
  v("backpressure", s.stats.backpressure);
  v("commits", s.commits);
  v("dbf", s.stats.dbf_evals);
  v("budget", s.stats.budget_evals);
  v("adm", s.stats.admission_tests);
}

/// A timeline sample's payload, `key=value` joined by '|'.
template <util::RecordOf<MetricsSample> R, class V>
void fields(R& s, V&& v) {
  v("sample", s.index);
  v("served", s.served);
  v("vt_ns", s.vt_ns);
  v("queue", s.queue_depth);
  v("retry", s.retry_depth);
  v("est", s.est_ns_per_task);
  sample_counters(s, v);
  v("lat_admitted", s.lat_admitted);
  v("lat_rejected", s.lat_rejected);
  v("lat_deferred", s.lat_deferred);
  v("lat_shed", s.lat_shed);
}

std::string serialize(const MetricsSample& s);
/// Strict parse; throws util::Error on any malformed field.
MetricsSample parse_metrics_sample(const std::string& payload);

/// "vc2m-metrics-timeline/1|config=<hex16>|every=<N>".
std::string timeline_header_payload(const std::string& config_digest,
                                    std::uint64_t every);

/// Tolerant timeline scan. `header_ok` is false when the file is missing,
/// empty, or its first frame is not a timeline header. A frame whose
/// checksum is valid but whose payload fails the strict sample parse ends
/// the valid prefix (with a warning), exactly like a torn tail — the
/// scanner never throws for malformed content.
struct TimelineScan {
  bool exists = false;
  bool header_ok = false;
  std::string config_digest;
  std::uint64_t every = 0;
  std::vector<MetricsSample> samples;
  std::vector<std::string> raw;   ///< serialized payloads, one per sample
  std::uint64_t valid_bytes = 0;  ///< prefix covering header + samples
  bool torn = false;              ///< trailing bytes past the prefix
  std::vector<std::string> warnings;
};

TimelineScan scan_timeline(const std::string& path);

/// The semantic checks a scan does not make (recovery does not need them):
/// a 16-hex config digest, served == (index + 1) * every, virtual time and
/// every cumulative counter and latency count non-decreasing, and no more
/// latency samples than decisions. Throws util::Error naming the first
/// offending sample.
void check_timeline(const TimelineScan& scan);

/// Bounded ring of the most recent request spans (oldest evicted first).
/// capacity 0 disables it (push is a no-op).
class SpanRing {
 public:
  explicit SpanRing(std::size_t capacity) : cap_(capacity) {}

  void push(const obs::RequestSpan& s) {
    if (cap_ == 0) return;
    if (buf_.size() < cap_) {
      buf_.push_back(s);
    } else {
      buf_[next_] = s;
      next_ = (next_ + 1) % cap_;
    }
  }

  std::size_t size() const { return buf_.size(); }

  /// Spans oldest → newest.
  std::vector<obs::RequestSpan> snapshot() const {
    std::vector<obs::RequestSpan> out;
    out.reserve(buf_.size());
    for (std::size_t i = 0; i < buf_.size(); ++i)
      out.push_back(buf_[(next_ + i) % buf_.size()]);
    return out;
  }

 private:
  std::size_t cap_ = 0;
  std::vector<obs::RequestSpan> buf_;
  std::size_t next_ = 0;  ///< eviction cursor once full
};

/// Durable ring dump: "vc2m-span-dump/1 <count>" then one serialized span
/// per line. Written with write_file_durable; throws on I/O failure.
void write_span_dump(const std::string& path, const SpanRing& ring);
/// Strict re-read (`vc2m validate` reads dumps with it); throws
/// util::Error on a malformed header or span, a blank line, a missing
/// final newline, or a span count other than the header's.
std::vector<obs::RequestSpan> read_span_dump(const std::string& path);

/// Deterministic multi-line stats snapshot (the --stats-every / SIGUSR1
/// rendering): virtual-time quantities only, identical for the same
/// sample on every machine.
std::string render_stats_snapshot(const MetricsSample& s);

}  // namespace vc2m::service

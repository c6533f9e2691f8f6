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

namespace vc2m::service {

inline constexpr const char* kTimelineSchema = "vc2m-metrics-timeline/1";
inline constexpr const char* kSpanDumpSchema = "vc2m-span-dump/1";

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
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t probe_rejected = 0;
  std::uint64_t deferred = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shed = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t backpressure = 0;
  std::uint64_t commits = 0;
  std::uint64_t dbf_evals = 0;        ///< cumulative dbf_evaluations
  std::uint64_t budget_evals = 0;     ///< cumulative budget_evaluations
  std::uint64_t admission_tests = 0;  ///< cumulative admission_tests
  /// Per-outcome-class latency histograms (µs), cumulative. Classes:
  /// admitted = {admitted, removed, resized}; rejected = {rejected,
  /// probe_rejected, resize_rejected, not_present, timed_out}; deferred =
  /// arrival → defer decision; shed = arrival → shed decision.
  util::LogHistogram lat_admitted, lat_rejected, lat_deferred, lat_shed;
};

/// Exact text round-trip of a histogram's internal state:
/// "<count> <nonpositive> <sum_bits> <min_bits> <max_bits> <npairs>
/// i:c..." with doubles as 16-hex-digit bit patterns. Shared by the
/// timeline samples and the service snapshot.
std::string serialize_histogram(const util::LogHistogram& h);
/// Strict parse; throws util::Error on any malformed field.
util::LogHistogram parse_histogram(std::string_view text);

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
/// Strict re-read; throws util::Error on malformed content.
std::vector<obs::RequestSpan> read_span_dump(const std::string& path);

/// Deterministic multi-line stats snapshot (the --stats-every / SIGUSR1
/// rendering): virtual-time quantities only, identical for the same
/// sample on every machine.
std::string render_stats_snapshot(const MetricsSample& s);

}  // namespace vc2m::service

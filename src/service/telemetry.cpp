#include "service/telemetry.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "service/journal.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/parse.h"
#include "util/record.h"

namespace vc2m::service {

std::string serialize_histogram(const util::LogHistogram& h) {
  const auto snap = h.snapshot();
  std::ostringstream os;
  const auto bits = [](double d) {
    return util::hex16(std::bit_cast<std::uint64_t>(d));
  };
  os << snap.count << ' ' << snap.nonpositive << ' ' << bits(snap.sum) << ' '
     << bits(snap.min) << ' ' << bits(snap.max) << ' ' << snap.counts.size();
  for (const auto& [i, c] : snap.counts) os << ' ' << i << ':' << c;
  return os.str();
}

util::LogHistogram parse_histogram(std::string_view text) {
  util::FieldReader in(text, ' ', "telemetry histogram");
  util::LogHistogram::Snapshot snap;
  snap.count = in.u64();
  snap.nonpositive = in.u64();
  const auto bits = [&] {
    return std::bit_cast<double>(
        util::parse_hex16(in.next(), "telemetry histogram"));
  };
  snap.sum = bits();
  snap.min = bits();
  snap.max = bits();
  const std::uint64_t pairs = in.u64();
  if (in.left() != pairs) in.fail("bucket count mismatch");
  // Every sample is non-positive or in exactly one bucket.
  if (snap.nonpositive > snap.count) in.fail("bucket counts exceed count");
  std::uint64_t unplaced = snap.count - snap.nonpositive;
  // Buckets are written non-zero and in ascending index order; anything
  // else would not re-serialize to the bytes it was read from.
  for (std::uint64_t k = 0; k < pairs; ++k) {
    util::FieldReader cell(in.next(), ':', "telemetry histogram bucket");
    cell.expect_fields(2);
    const auto index = cell.integer<std::size_t>();
    const std::uint64_t count = cell.u64();
    if (count == 0 ||
        (!snap.counts.empty() && index <= snap.counts.back().first))
      in.fail("buckets must be non-zero and in ascending order");
    if (count > unplaced) in.fail("bucket counts exceed count");
    unplaced -= count;
    snap.counts.emplace_back(index, count);
  }
  if (unplaced != 0) in.fail("bucket counts do not sum to count");
  return util::LogHistogram::from_snapshot(snap);
}

std::string serialize(const MetricsSample& s) {
  std::ostringstream os;
  os << "sample=" << s.index << "|served=" << s.served
     << "|vt_ns=" << s.vt_ns << "|queue=" << s.queue_depth
     << "|retry=" << s.retry_depth << "|est=" << s.est_ns_per_task
     << "|arrivals=" << s.arrivals << "|admitted=" << s.admitted
     << "|rejected=" << s.rejected << "|probe_rejected=" << s.probe_rejected
     << "|deferred=" << s.deferred << "|timed_out=" << s.timed_out
     << "|shed=" << s.shed << "|downgrades=" << s.downgrades
     << "|backpressure=" << s.backpressure << "|commits=" << s.commits
     << "|dbf=" << s.dbf_evals << "|budget=" << s.budget_evals
     << "|adm=" << s.admission_tests
     << "|lat_admitted=" << serialize_histogram(s.lat_admitted)
     << "|lat_rejected=" << serialize_histogram(s.lat_rejected)
     << "|lat_deferred=" << serialize_histogram(s.lat_deferred)
     << "|lat_shed=" << serialize_histogram(s.lat_shed);
  return os.str();
}

MetricsSample parse_metrics_sample(const std::string& payload) {
  util::FieldReader in = util::read_record(payload, 23, "metrics sample");
  MetricsSample s;
  s.index = in.u64("sample");
  s.served = in.u64("served");
  s.vt_ns = in.i64("vt_ns");
  s.queue_depth = in.u64("queue");
  s.retry_depth = in.u64("retry");
  s.est_ns_per_task = in.i64("est");
  s.arrivals = in.u64("arrivals");
  s.admitted = in.u64("admitted");
  s.rejected = in.u64("rejected");
  s.probe_rejected = in.u64("probe_rejected");
  s.deferred = in.u64("deferred");
  s.timed_out = in.u64("timed_out");
  s.shed = in.u64("shed");
  s.downgrades = in.u64("downgrades");
  s.backpressure = in.u64("backpressure");
  s.commits = in.u64("commits");
  s.dbf_evals = in.u64("dbf");
  s.budget_evals = in.u64("budget");
  s.admission_tests = in.u64("adm");
  s.lat_admitted = parse_histogram(in.value("lat_admitted"));
  s.lat_rejected = parse_histogram(in.value("lat_rejected"));
  s.lat_deferred = parse_histogram(in.value("lat_deferred"));
  s.lat_shed = parse_histogram(in.value("lat_shed"));
  return s;
}

std::string timeline_header_payload(const std::string& config_digest,
                                    std::uint64_t every) {
  std::ostringstream os;
  os << kTimelineSchema << "|config=" << config_digest << "|every=" << every;
  return os.str();
}

TimelineScan scan_timeline(const std::string& path) {
  TimelineScan out;
  FrameScan frames = scan_frames(path);
  out.exists = frames.exists;
  if (!frames.exists) return out;
  out.valid_bytes = frames.valid_bytes;
  out.torn = frames.torn;

  out.header_ok = read_header(frames, kTimelineSchema, "every",
                              out.config_digest, out.every) &&
                  out.every > 0;
  if (!out.header_ok) {
    out.valid_bytes = 0;
    out.torn = !frames.payloads.empty() || frames.torn;
    return out;
  }

  // A checksum-valid frame whose payload is not a well-formed sample, or
  // breaks the index sequence, ends the valid prefix exactly like a torn
  // tail would.
  std::uint64_t off = 12 + frames.payloads.front().size();
  for (std::size_t i = 1; i < frames.payloads.size(); ++i) {
    std::string why;
    try {
      MetricsSample s = parse_metrics_sample(frames.payloads[i]);
      if (s.index == out.samples.size()) {
        out.samples.push_back(std::move(s));
        out.raw.push_back(frames.payloads[i]);
        off += 12 + frames.payloads[i].size();
        continue;
      }
      why = "has index " + std::to_string(s.index) + " (expected " +
            std::to_string(out.samples.size()) +
            ") — truncating to the last consistent sample";
    } catch (const util::Error& e) {
      why = "is malformed — truncating to the last valid sample (" +
            std::string(e.what()) + ")";
    }
    out.warnings.push_back("timeline sample " + std::to_string(i - 1) + " " +
                           why);
    out.valid_bytes = off;
    out.torn = true;
    return out;
  }
  return out;
}

void check_timeline(const TimelineScan& scan) {
  VC2M_CHECK_MSG(util::try_hex16(scan.config_digest),
                 "timeline header: config digest '"
                     << scan.config_digest
                     << "' is not 16 lowercase hex digits");
  const MetricsSample* prev = nullptr;
  for (const MetricsSample& s : scan.samples) {
    const std::string at = "timeline sample " + std::to_string(s.index);
    VC2M_CHECK_MSG(s.served == (s.index + 1) * scan.every,
                   at << ": served " << s.served << " breaks the every-"
                      << scan.every << " cadence");
    std::uint64_t untimed = s.served;  // decisions without a latency yet
    for (util::LogHistogram MetricsSample::*lat :
         {&MetricsSample::lat_admitted, &MetricsSample::lat_rejected,
          &MetricsSample::lat_deferred, &MetricsSample::lat_shed}) {
      const std::uint64_t n = (s.*lat).count();
      VC2M_CHECK_MSG(n <= untimed, at << ": more latency samples than "
                                      << s.served << " decisions");
      VC2M_CHECK_MSG(!prev || n >= (prev->*lat).count(),
                     at << ": a latency count moved backwards");
      untimed -= n;
    }
    if (prev) {
      const auto backwards = [&](std::uint64_t MetricsSample::*field) {
        return s.*field < prev->*field;
      };
      VC2M_CHECK_MSG(
          s.vt_ns >= prev->vt_ns && !backwards(&MetricsSample::arrivals) &&
              !backwards(&MetricsSample::admitted) &&
              !backwards(&MetricsSample::rejected) &&
              !backwards(&MetricsSample::probe_rejected) &&
              !backwards(&MetricsSample::deferred) &&
              !backwards(&MetricsSample::timed_out) &&
              !backwards(&MetricsSample::shed) &&
              !backwards(&MetricsSample::downgrades) &&
              !backwards(&MetricsSample::backpressure) &&
              !backwards(&MetricsSample::commits) &&
              !backwards(&MetricsSample::dbf_evals) &&
              !backwards(&MetricsSample::budget_evals) &&
              !backwards(&MetricsSample::admission_tests),
          at << ": virtual time or a cumulative counter moved backwards");
    }
    prev = &s;
  }
}

void write_span_dump(const std::string& path, const SpanRing& ring) {
  const auto spans = ring.snapshot();
  std::ostringstream os;
  os << kSpanDumpSchema << ' ' << spans.size() << '\n';
  for (const auto& s : spans) os << obs::serialize(s) << '\n';
  write_file_durable(path, os.str());
}

std::vector<obs::RequestSpan> read_span_dump(const std::string& path) {
  std::ifstream f(path);
  VC2M_CHECK_MSG(f.good(), "cannot open span dump '" << path << "'");
  std::string line;
  VC2M_CHECK_MSG(std::getline(f, line) &&
                     line.rfind(std::string(kSpanDumpSchema) + " ", 0) == 0,
                 "'" << path << "' is not a " << kSpanDumpSchema << " dump");
  const std::uint64_t count = util::parse_u64(
      std::string_view(line).substr(std::strlen(kSpanDumpSchema) + 1),
      "span dump count");
  std::vector<obs::RequestSpan> out;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    out.push_back(obs::parse_request_span(line));
  }
  VC2M_CHECK_MSG(out.size() == count,
                 "span dump '" << path << "': header says " << count
                               << " spans, found " << out.size());
  return out;
}

std::string render_stats_snapshot(const MetricsSample& s) {
  auto lat = [](const util::LogHistogram& h) {
    char buf[80];
    if (h.empty()) return std::string("-/- (0)");
    std::snprintf(buf, sizeof buf, "%.1f/%.1f (%llu)", h.quantile(0.50),
                  h.quantile(0.95),
                  static_cast<unsigned long long>(h.count()));
    return std::string(buf);
  };
  char vt[40];
  std::snprintf(vt, sizeof vt, "%.3f", static_cast<double>(s.vt_ns) / 1e6);
  std::ostringstream os;
  os << "[vc2m serve] served=" << s.served << " vt_ms=" << vt
     << " queue=" << s.queue_depth << " retry=" << s.retry_depth
     << " est_ns_per_task=" << s.est_ns_per_task << '\n'
     << "  outcomes: arrivals=" << s.arrivals << " admitted=" << s.admitted
     << " rejected=" << s.rejected << " probe_rejected=" << s.probe_rejected
     << " deferred=" << s.deferred << " timed_out=" << s.timed_out
     << " shed=" << s.shed << " downgrades=" << s.downgrades
     << " backpressure=" << s.backpressure << " commits=" << s.commits
     << '\n'
     << "  effort: dbf=" << s.dbf_evals << " budget=" << s.budget_evals
     << " admission=" << s.admission_tests
     << '\n'
     << "  latency_us p50/p95 (count): admitted=" << lat(s.lat_admitted)
     << " rejected=" << lat(s.lat_rejected)
     << " deferred=" << lat(s.lat_deferred) << " shed=" << lat(s.lat_shed)
     << '\n';
  return os.str();
}

}  // namespace vc2m::service

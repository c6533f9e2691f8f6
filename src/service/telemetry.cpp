#include "service/telemetry.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>

#include "service/journal.h"
#include "util/error.h"
#include "util/parse.h"
#include "util/record.h"

namespace vc2m::service {

std::string serialize(const MetricsSample& s) {
  return util::write_record(s, '|');
}

MetricsSample parse_metrics_sample(const std::string& payload) {
  return util::parse_record<MetricsSample>(payload, '|', "metrics sample");
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
      VC2M_CHECK_MSG(s.vt_ns >= prev->vt_ns,
                     at << ": virtual time moved backwards");
      std::vector<std::uint64_t> before;
      sample_counters(*prev, [&](const char*, std::uint64_t n) {
        before.push_back(n);
      });
      std::size_t i = 0;
      sample_counters(s, [&](const char* key, std::uint64_t n) {
        VC2M_CHECK_MSG(n >= before[i++],
                       at << ": cumulative counter " << key
                          << " moved backwards");
      });
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
  std::ifstream f(path, std::ios::binary);
  VC2M_CHECK_MSG(f.good(), "cannot open span dump '" << path << "'");
  const std::string bytes(std::istreambuf_iterator<char>(f), {});
  VC2M_CHECK_MSG(!bytes.empty() && bytes.back() == '\n',
                 "span dump '" << path << "' does not end in a newline");
  std::istringstream text(bytes);
  std::string line;
  std::getline(text, line);
  VC2M_CHECK_MSG(line.rfind(std::string(kSpanDumpSchema) + " ", 0) == 0,
                 "'" << path << "' is not a " << kSpanDumpSchema << " dump");
  const std::uint64_t count = util::parse_u64(
      std::string_view(line).substr(std::strlen(kSpanDumpSchema) + 1),
      "span dump count");
  std::vector<obs::RequestSpan> out;
  while (std::getline(text, line)) {
    VC2M_CHECK_MSG(!line.empty(), "span dump '" << path << "': line "
                                                << out.size() + 2
                                                << " is blank");
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
     << "  outcomes: arrivals=" << s.stats.arrivals
     << " admitted=" << s.stats.admitted << " rejected=" << s.stats.rejected
     << " probe_rejected=" << s.stats.probe_rejected
     << " deferred=" << s.stats.deferred
     << " timed_out=" << s.stats.timed_out << " shed=" << s.stats.shed
     << " downgrades=" << s.stats.downgrades
     << " backpressure=" << s.stats.backpressure << " commits=" << s.commits
     << '\n'
     << "  effort: dbf=" << s.stats.dbf_evals
     << " budget=" << s.stats.budget_evals
     << " admission=" << s.stats.admission_tests << '\n'
     << "  latency_us p50/p95 (count): admitted=" << lat(s.lat_admitted)
     << " rejected=" << lat(s.lat_rejected)
     << " deferred=" << lat(s.lat_deferred) << " shed=" << lat(s.lat_shed)
     << '\n';
  return os.str();
}

}  // namespace vc2m::service

#include "obs/request_span.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/file.h"
#include "util/record.h"

namespace vc2m::obs {

namespace {

/// Chrome `ts` is in microseconds; three decimals keep ns precision.
std::string ts_us(std::int64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1e3);
  return buf;
}

}  // namespace

std::string serialize(const RequestSpan& s) {
  std::ostringstream os;
  os << "seq=" << s.seq << "|attempt=" << s.attempt << "|kind=" << s.kind
     << "|outcome=" << s.outcome << "|vm=" << s.vm
     << "|queued_ns=" << s.queued_ns << "|dequeued_ns=" << s.dequeued_ns
     << "|solved_ns=" << s.solved_ns << "|cost_ns=" << s.cost_ns
     << "|latency_ns=" << s.latency_ns << "|wall_ns=" << s.wall_ns;
  return os.str();
}

RequestSpan parse_request_span(const std::string& payload) {
  util::FieldReader in = util::read_record(payload, 11, "request span");
  RequestSpan s;
  s.seq = in.u64("seq");
  s.attempt = in.integer<unsigned>("attempt");
  s.kind = in.value("kind");
  if (s.kind.empty()) in.fail("empty kind");
  s.outcome = in.value("outcome");
  if (s.outcome.empty()) in.fail("empty outcome");
  s.vm = in.integer<int>("vm");
  s.queued_ns = in.i64("queued_ns");
  s.dequeued_ns = in.i64("dequeued_ns");
  s.solved_ns = in.i64("solved_ns");
  s.cost_ns = in.i64("cost_ns");
  s.latency_ns = in.i64("latency_ns");
  s.wall_ns = in.i64("wall_ns");
  return s;
}

void write_span_trace(std::ostream& os, std::span<const RequestSpan> spans) {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"generator\": "
        "\"vc2m\", \"spans\": \""
     << spans.size() << "\"},\n\"vc2mSpans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i)
    os << '"' << serialize(spans[i]) << '"'
       << (i + 1 < spans.size() ? ",\n" : "\n");
  os << "],\n\"traceEvents\": [\n";

  bool first = true;
  auto line = [&](const std::string& s) {
    os << (first ? "" : ",\n") << s;
    first = false;
  };
  line("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"requests\"}}");

  // One thread per trace seq, named once; attempts stack on that track.
  std::vector<std::uint64_t> seqs;
  seqs.reserve(spans.size());
  for (const auto& s : spans) seqs.push_back(s.seq);
  std::sort(seqs.begin(), seqs.end());
  seqs.erase(std::unique(seqs.begin(), seqs.end()), seqs.end());
  for (const std::uint64_t seq : seqs) {
    std::ostringstream m;
    m << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << seq
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"req " << seq
      << "\"}}";
    line(m.str());
  }

  for (const auto& s : spans) {
    if (s.dequeued_ns > s.queued_ns) {
      std::ostringstream q;
      q << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.seq
        << ",\"ts\":" << ts_us(s.queued_ns)
        << ",\"dur\":" << ts_us(s.dequeued_ns - s.queued_ns)
        << ",\"cat\":\"queue\",\"name\":\"queued a" << s.attempt << "\"}";
      line(q.str());
    }
    std::ostringstream x;
    x << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.seq
      << ",\"ts\":" << ts_us(s.dequeued_ns)
      << ",\"dur\":" << ts_us(s.solved_ns - s.dequeued_ns)
      << ",\"cat\":\"solve\",\"name\":\"" << s.kind << " a" << s.attempt
      << " -> " << s.outcome << "\"}";
    line(x.str());
  }
  os << "\n]\n}\n";
}

void write_span_trace_file(const std::string& path,
                           std::span<const RequestSpan> spans) {
  auto f = util::open_output_file(path, "span trace");
  write_span_trace(f, spans);
  util::close_output_file(f, path, "span trace");
}

std::vector<RequestSpan> read_span_trace(std::istream& is) {
  std::vector<RequestSpan> out;
  std::string line;
  bool in_spans = false, found = false;
  while (std::getline(is, line)) {
    if (!in_spans) {
      if (line.rfind("\"vc2mSpans\"", 0) == 0) in_spans = found = true;
      continue;
    }
    if (line.rfind("]", 0) == 0) break;
    VC2M_CHECK_MSG(line.size() >= 2 && line.front() == '"',
                   "malformed vc2mSpans record: " << line);
    std::string payload = line.substr(1);
    if (!payload.empty() && payload.back() == ',') payload.pop_back();
    VC2M_CHECK_MSG(!payload.empty() && payload.back() == '"',
                   "malformed vc2mSpans record: " << line);
    payload.pop_back();
    out.push_back(parse_request_span(payload));
  }
  VC2M_CHECK_MSG(found, "no vc2mSpans array (not a vc2m span trace?)");
  return out;
}

std::vector<RequestSpan> read_span_trace_file(const std::string& path) {
  std::ifstream f(path);
  VC2M_CHECK_MSG(f.good(), "cannot open " << path);
  return read_span_trace(f);
}

std::string SpanCheckResult::summary() const {
  std::ostringstream os;
  os << (ok() ? "OK" : "FAIL") << ": " << spans << " spans, "
     << total_violations << " violations";
  return os.str();
}

SpanCheckResult check_request_spans(std::span<const RequestSpan> spans,
                                    std::size_t max_violations) {
  SpanCheckResult res;
  res.spans = spans.size();
  auto flag = [&](const RequestSpan& s, const std::string& what) {
    ++res.total_violations;
    if (res.violations.size() < max_violations)
      res.violations.push_back({s.seq, s.attempt, what});
  };

  // Per-request attempt sequences, in input order (arbitrary input order
  // is fine — nesting is checked after sorting by attempt).
  std::map<std::uint64_t, std::vector<const RequestSpan*>> by_seq;
  for (const auto& s : spans) {
    if (s.queued_ns > s.dequeued_ns)
      flag(s, "queued after dequeued");
    if (s.dequeued_ns > s.solved_ns)
      flag(s, "dequeued after solved");
    if (s.cost_ns < 0) flag(s, "negative cost");
    if (s.cost_ns != s.solved_ns - s.dequeued_ns)
      flag(s, "cost does not match solve segment");
    by_seq[s.seq].push_back(&s);
  }

  for (auto& [seq, attempts] : by_seq) {
    std::sort(attempts.begin(), attempts.end(),
              [](const RequestSpan* a, const RequestSpan* b) {
                return a->attempt < b->attempt;
              });
    for (std::size_t i = 0; i < attempts.size(); ++i) {
      if (i == 0) continue;
      const RequestSpan& prev = *attempts[i - 1];
      const RequestSpan& cur = *attempts[i];
      if (cur.attempt == prev.attempt) {
        flag(cur, "duplicate (seq, attempt)");
        continue;
      }
      if (cur.queued_ns < prev.solved_ns)
        flag(cur, "attempt overlaps the previous attempt");
      if (prev.outcome != "deferred")
        flag(cur, "retry of a terminally decided request");
    }
  }
  return res;
}

}  // namespace vc2m::obs

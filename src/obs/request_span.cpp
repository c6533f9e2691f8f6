#include "obs/request_span.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"
#include "util/record.h"

namespace vc2m::obs {

const char* span_label(std::string_view text) {
  static std::mutex mu;
  static std::set<std::string, std::less<>> labels;
  std::lock_guard<std::mutex> lock(mu);
  auto it = labels.find(text);
  if (it == labels.end()) it = labels.emplace(text).first;
  return it->c_str();
}

std::string serialize(const RequestSpan& s) {
  return util::write_record(s, '|');
}

RequestSpan parse_request_span(const std::string& payload) {
  return util::parse_record<RequestSpan>(payload, '|', "request span");
}

void write_span_trace(std::ostream& os, std::span<const RequestSpan> spans) {
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"generator\": "
        "\"vc2m\", \"spans\": \""
     << spans.size() << "\"},\n\"vc2mSpans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i)
    os << '"' << serialize(spans[i]) << '"'
       << (i + 1 < spans.size() ? ",\n" : "\n");
  os << "],\n\"traceEvents\": [\n";

  json::LineWriter w{os};
  w.line("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
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
    w.line(m.str());
  }

  for (const auto& s : spans) {
    if (s.dequeued_ns > s.queued_ns) {
      std::ostringstream q;
      q << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.seq
        << ",\"ts\":" << json::ts_us(s.queued_ns)
        << ",\"dur\":" << json::ts_us(s.dequeued_ns - s.queued_ns)
        << ",\"cat\":\"queue\",\"name\":\"queued a" << s.attempt << "\"}";
      w.line(q.str());
    }
    std::ostringstream x;
    x << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.seq
      << ",\"ts\":" << json::ts_us(s.dequeued_ns)
      << ",\"dur\":" << json::ts_us(s.solved_ns - s.dequeued_ns)
      << ",\"cat\":\"solve\",\"name\":\"" << s.kind << " a" << s.attempt
      << " -> " << s.outcome << "\"}";
    w.line(x.str());
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
  for (const std::string& line : json::trace_records(is, "vc2mSpans")) {
    VC2M_CHECK_MSG(line.size() >= 2 && line.front() == '"' &&
                       line.back() == '"',
                   "malformed vc2mSpans record: " << line);
    out.push_back(parse_request_span(line.substr(1, line.size() - 2)));
  }
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

  // Every span ordered by (seq, attempt), ties in input order: each
  // request's attempts in a row, checked pairwise. One pointer per span.
  std::vector<const RequestSpan*> order;
  order.reserve(spans.size());
  for (const auto& s : spans) {
    if (s.queued_ns > s.dequeued_ns)
      flag(s, "queued after dequeued");
    if (s.dequeued_ns > s.solved_ns)
      flag(s, "dequeued after solved");
    if (s.cost_ns < 0) flag(s, "negative cost");
    if (s.cost_ns != s.solved_ns - s.dequeued_ns)
      flag(s, "cost does not match solve segment");
    order.push_back(&s);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const RequestSpan* a, const RequestSpan* b) {
                     return a->seq != b->seq ? a->seq < b->seq
                                             : a->attempt < b->attempt;
                   });

  for (std::size_t i = 1; i < order.size(); ++i) {
    const RequestSpan& prev = *order[i - 1];
    const RequestSpan& cur = *order[i];
    if (cur.seq != prev.seq) continue;
    if (cur.attempt == prev.attempt) {
      flag(cur, "duplicate (seq, attempt)");
      continue;
    }
    if (cur.queued_ns < prev.solved_ns)
      flag(cur, "attempt overlaps the previous attempt");
    if (std::string_view(prev.outcome) != "deferred")
      flag(cur, "retry of a terminally decided request");
  }
  return res;
}

}  // namespace vc2m::obs

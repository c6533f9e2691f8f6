// Request-scoped spans for the admission-control service.
//
// A span is the life of one request *attempt* through the serve queue:
// queued (arrival or retry-ready time) → dequeued (the server picked it
// up) → solved (the decision's virtual completion), plus the terminal
// outcome the journal recorded for the same (seq, attempt). All three
// timestamps are virtual-time nanoseconds, so spans are deterministic and
// bit-identical at any --jobs; `wall_ns` carries the informational
// wall-clock duration of the real solver call and is excluded from every
// deterministic artifact comparison.
//
// Spans export as per-request Perfetto tracks (one thread per trace seq,
// a "queued" segment and a "solve" segment per attempt) with a lossless
// `vc2mSpans` array for re-import, mirroring obs/trace_export. The
// checker validates the structural invariants the service guarantees by
// construction: timestamps are ordered, attempts on one request nest
// without overlap, cost matches the solve segment, and (seq, attempt)
// pairs are unique.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/record.h"

namespace vc2m::obs {

/// One request attempt's span. `kind` and `outcome` are the service's
/// stable serialization names (e.g. "admit", "deferred"); obs treats them
/// as opaque labels so this layer stays independent of the service. A run
/// keeps a span per request, so each label is a pointer to text that
/// lives as long as the program (the service's name tables, or
/// span_label) rather than a string of its own: 80 bytes per span, not
/// 128. Compare labels as text, never as pointers.
struct RequestSpan {
  std::uint64_t seq = 0;
  unsigned attempt = 0;
  int vm = 0;
  const char* kind = "";
  const char* outcome = "";
  std::int64_t queued_ns = 0;    ///< arrival (attempt 0) or retry-ready time
  std::int64_t dequeued_ns = 0;  ///< server pickup; == solved_ns when shed
  std::int64_t solved_ns = 0;    ///< decision completion (virtual)
  std::int64_t cost_ns = 0;      ///< virtual solve cost; solved - dequeued
  std::int64_t latency_ns = 0;   ///< arrival → terminal (0 when deferred)
  std::int64_t wall_ns = 0;      ///< informational wall clock; not checked
};

/// `text` as a span label: a copy that lives as long as the program, the
/// same pointer for the same text. Readers intern the labels they parse.
const char* span_label(std::string_view text);

/// A label field of a span record: its text, read back through span_label.
/// A label is a C string, so an empty one or one holding a NUL is refused.
template <class P>
struct SpanLabel {
  P& value;
  void put(std::string& out) const { out += value; }
  void get(util::FieldReader& in, std::string_view key,
           std::string_view text) {
    if (text.empty() || text.find('\0') != std::string_view::npos)
      in.fail("bad " + std::string(key));
    value = span_label(text);
  }
};

/// A span's text form, `key=value` joined by '|' — the payload of the
/// ring-buffer dump written next to the journal on crash/interrupt, and of
/// a span trace's `vc2mSpans` array.
template <util::RecordOf<RequestSpan> R, class V>
void fields(R& s, V&& v) {
  v("seq", s.seq);
  v("attempt", s.attempt);
  v("kind", SpanLabel{s.kind});
  v("outcome", SpanLabel{s.outcome});
  v("vm", s.vm);
  v("queued_ns", s.queued_ns);
  v("dequeued_ns", s.dequeued_ns);
  v("solved_ns", s.solved_ns);
  v("cost_ns", s.cost_ns);
  v("latency_ns", s.latency_ns);
  v("wall_ns", s.wall_ns);
}

std::string serialize(const RequestSpan& s);
/// Strict parse; throws util::Error on any malformed field.
RequestSpan parse_request_span(const std::string& payload);

/// Chrome trace_event JSON with one "requests" process, one thread per
/// trace seq, and a lossless `vc2mSpans` array; opens in ui.perfetto.dev.
void write_span_trace(std::ostream& os, std::span<const RequestSpan> spans);
void write_span_trace_file(const std::string& path,
                           std::span<const RequestSpan> spans);
/// Re-import the `vc2mSpans` array. Throws util::Error when absent or
/// malformed.
std::vector<RequestSpan> read_span_trace(std::istream& is);
std::vector<RequestSpan> read_span_trace_file(const std::string& path);

struct SpanViolation {
  std::uint64_t seq = 0;
  unsigned attempt = 0;
  std::string what;
};

struct SpanCheckResult {
  std::size_t spans = 0;             ///< spans examined
  std::size_t total_violations = 0;  ///< including those past the cap
  std::vector<SpanViolation> violations;

  bool ok() const { return total_violations == 0; }
  /// One-line verdict, e.g. "OK: 120 spans, 0 violations".
  std::string summary() const;
};

/// Structural invariants: queued ≤ dequeued ≤ solved, cost == solved −
/// dequeued, (seq, attempt) unique, successive attempts of one seq nest
/// without overlap (attempt k+1 queued ≥ attempt k solved), and a retry
/// only follows a "deferred" outcome (the one outcome name this layer
/// knows). Spans may arrive in any order; violations past
/// `max_violations` are counted, not stored.
SpanCheckResult check_request_spans(std::span<const RequestSpan> spans,
                                    std::size_t max_violations = 32);

}  // namespace vc2m::obs

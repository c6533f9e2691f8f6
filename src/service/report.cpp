#include "service/report.h"

#include <cmath>
#include <fstream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"

namespace vc2m::service {

namespace {

using obs::json::Value;
using Kind = Value::Kind;

std::string get_string(const Value& obj, const std::string& key,
                       const std::string& what) {
  const Value* v = obj.find(key);
  VC2M_CHECK_MSG(v && v->kind == Kind::kString,
                 what << ": missing string field '" << key << "'");
  return v->str;
}

std::uint64_t get_count(const Value& obj, const std::string& key,
                        const std::string& what) {
  const Value* v = obj.find(key);
  VC2M_CHECK_MSG(v && v->kind == Kind::kNumber && v->number >= 0 &&
                     v->number == std::floor(v->number),
                 what << ": field '" << key
                      << "' must be a non-negative integer");
  // At 2^53 and above a double no longer holds every integer: the value
  // read back may not be the one that was written.
  VC2M_CHECK_MSG(v->number < static_cast<double>(kMaxExactCount),
                 what << ": field '" << key
                      << "' is not below 2^53 and cannot be read exactly");
  return static_cast<std::uint64_t>(v->number);
}

double get_number(const Value& obj, const std::string& key,
                  const std::string& what) {
  const Value* v = obj.find(key);
  VC2M_CHECK_MSG(v && v->kind == Kind::kNumber,
                 what << ": missing numeric field '" << key << "'");
  return v->number;
}

const Value& get_object(const Value& obj, const std::string& key,
                        const std::string& what) {
  const Value* v = obj.find(key);
  VC2M_CHECK_MSG(v && v->kind == Kind::kObject,
                 what << ": missing object field '" << key << "'");
  return *v;
}

void write_summary(std::ostream& os, const obs::HistogramSummary& h) {
  os << "{\"count\": " << h.count << ", \"mean\": " << obs::json::number(h.mean)
     << ", \"min\": " << obs::json::number(h.min)
     << ", \"max\": " << obs::json::number(h.max)
     << ", \"p50\": " << obs::json::number(h.p50)
     << ", \"p90\": " << obs::json::number(h.p90)
     << ", \"p95\": " << obs::json::number(h.p95)
     << ", \"p99\": " << obs::json::number(h.p99) << "}";
}

obs::HistogramSummary parse_summary(const Value& v, const std::string& what) {
  obs::HistogramSummary h;
  h.count = get_count(v, "count", what);
  h.mean = get_number(v, "mean", what);
  h.min = get_number(v, "min", what);
  h.max = get_number(v, "max", what);
  h.p50 = get_number(v, "p50", what);
  h.p90 = get_number(v, "p90", what);
  h.p95 = get_number(v, "p95", what);
  h.p99 = get_number(v, "p99", what);
  return h;
}

/// Forward compatibility: fields this reader does not know are reported,
/// never rejected — a newer writer may legitimately add them.
void surface_unknown(const Value& obj, const char* const* known,
                     std::size_t n_known, const std::string& what,
                     std::vector<std::string>* notes) {
  if (!notes) return;
  for (const auto& [k, v] : obj.object) {
    bool hit = false;
    for (std::size_t i = 0; i < n_known && !hit; ++i) hit = k == known[i];
    if (!hit)
      notes->push_back(what + ": unknown field '" + k +
                       "' (written by a newer vc2m?) — ignored");
  }
}

}  // namespace

void write_serve_report(std::ostream& os, const ServeReport& r) {
  os << "{\n";
  os << "\"schema\": \"" << obs::json::escape(r.schema) << "\",\n";
  os << "\"git_rev\": \"" << obs::json::escape(r.git_rev) << "\",\n";
  os << "\"trace\": \"" << obs::json::escape(r.trace) << "\",\n";
  os << "\"platform\": \"" << obs::json::escape(r.platform) << "\",\n";
  os << "\"seed\": " << r.seed << ",\n";
  os << "\"config\": {\"deadline_us\": " << r.deadline_us
     << ", \"shed_policy\": \"" << obs::json::escape(r.shed_policy)
     << "\", \"queue_cap\": " << r.queue_cap
     << ", \"max_retries\": " << r.max_retries
     << ", \"backoff_us\": " << r.backoff_us
     << ", \"snapshot_every\": " << r.snapshot_every << "},\n";
  os << "\"totals\": {\"requests\": " << r.requests
     << ", \"arrivals\": " << r.arrivals << ", \"admitted\": " << r.admitted
     << ", \"rejected\": " << r.rejected
     << ", \"probe_rejected\": " << r.probe_rejected
     << ", \"removed\": " << r.removed << ", \"resized\": " << r.resized
     << ", \"resize_rejected\": " << r.resize_rejected
     << ", \"not_present\": " << r.not_present
     << ", \"deferred\": " << r.deferred << ", \"retries\": " << r.retries
     << ", \"shed\": " << r.shed << ", \"timed_out\": " << r.timed_out
     << ", \"downgrades\": " << r.downgrades << ", \"commits\": " << r.commits
     << ", \"snapshots\": " << r.snapshots << "},\n";
  os << "\"queue\": {\"max_depth\": " << r.queue_max_depth
     << ", \"backpressure\": " << r.backpressure << "},\n";
  os << "\"decisions\": {\"events\": " << r.decision_events
     << ", \"dropped\": " << r.decision_dropped << "},\n";
  os << "\"latency_us\": {\"admitted\": ";
  write_summary(os, r.latency_admitted_us);
  os << ", \"rejected\": ";
  write_summary(os, r.latency_rejected_us);
  os << ", \"deferred\": ";
  write_summary(os, r.latency_deferred_us);
  os << ", \"shed\": ";
  write_summary(os, r.latency_shed_us);
  os << "},\n";
  os << "\"state\": {\"vms\": " << r.vms << ", \"vcpus\": " << r.vcpus
     << ", \"cores_used\": " << r.cores_used << ", \"digest\": \""
     << obs::json::escape(r.digest) << "\"}";
  if (r.interrupted) os << ",\n\"interrupted\": true";
  os << "\n}\n";
}

void write_serve_report_file(const std::string& path, const ServeReport& r) {
  auto f = util::open_output_file(path, "serve report");
  write_serve_report(f, r);
  util::close_output_file(f, path, "serve report");
}

ServeReport read_serve_report(std::istream& is, const std::string& what,
                              std::vector<std::string>* notes) {
  std::ostringstream buf;
  buf << is.rdbuf();
  const Value root = obs::json::parse(buf.str(), what);
  VC2M_CHECK_MSG(root.kind == Kind::kObject,
                 what << ": top level must be an object");
  static constexpr const char* kKnown[] = {
      "schema", "git_rev",   "trace",     "platform",   "seed",  "config",
      "totals", "queue",     "decisions", "latency_us", "state",
      "interrupted"};
  surface_unknown(root, kKnown, std::size(kKnown), what, notes);
  ServeReport r;
  r.schema = get_string(root, "schema", what);
  VC2M_CHECK_MSG(r.schema == kServeReportSchema,
                 what << ": unsupported schema '" << r.schema << "'");
  r.git_rev = get_string(root, "git_rev", what);
  r.trace = get_string(root, "trace", what);
  r.platform = get_string(root, "platform", what);
  r.seed = get_count(root, "seed", what);
  const Value& cfg = get_object(root, "config", what);
  r.deadline_us = static_cast<std::int64_t>(get_count(cfg, "deadline_us", what));
  r.shed_policy = get_string(cfg, "shed_policy", what);
  r.queue_cap = get_count(cfg, "queue_cap", what);
  r.max_retries = get_count(cfg, "max_retries", what);
  r.backoff_us = static_cast<std::int64_t>(get_count(cfg, "backoff_us", what));
  r.snapshot_every = get_count(cfg, "snapshot_every", what);
  const Value& t = get_object(root, "totals", what);
  r.requests = get_count(t, "requests", what);
  r.arrivals = get_count(t, "arrivals", what);
  r.admitted = get_count(t, "admitted", what);
  r.rejected = get_count(t, "rejected", what);
  r.probe_rejected = get_count(t, "probe_rejected", what);
  r.removed = get_count(t, "removed", what);
  r.resized = get_count(t, "resized", what);
  r.resize_rejected = get_count(t, "resize_rejected", what);
  r.not_present = get_count(t, "not_present", what);
  r.deferred = get_count(t, "deferred", what);
  r.retries = get_count(t, "retries", what);
  r.shed = get_count(t, "shed", what);
  r.timed_out = get_count(t, "timed_out", what);
  r.downgrades = get_count(t, "downgrades", what);
  r.commits = get_count(t, "commits", what);
  r.snapshots = get_count(t, "snapshots", what);
  const Value& q = get_object(root, "queue", what);
  r.queue_max_depth = get_count(q, "max_depth", what);
  r.backpressure = get_count(q, "backpressure", what);
  const Value& d = get_object(root, "decisions", what);
  r.decision_events = get_count(d, "events", what);
  r.decision_dropped = get_count(d, "dropped", what);
  const Value& lat = get_object(root, "latency_us", what);
  r.latency_admitted_us = parse_summary(get_object(lat, "admitted", what), what);
  r.latency_rejected_us = parse_summary(get_object(lat, "rejected", what), what);
  r.latency_deferred_us = parse_summary(get_object(lat, "deferred", what), what);
  r.latency_shed_us = parse_summary(get_object(lat, "shed", what), what);
  const Value& s = get_object(root, "state", what);
  r.vms = get_count(s, "vms", what);
  r.vcpus = get_count(s, "vcpus", what);
  r.cores_used = get_count(s, "cores_used", what);
  r.digest = get_string(s, "digest", what);
  if (const Value* flag = root.find("interrupted")) {
    VC2M_CHECK_MSG(flag->kind == Kind::kBool && flag->boolean,
                   what << ": 'interrupted' may only be present as true");
    r.interrupted = true;
  }
  // Terminal outcomes must account for every enqueued attempt: arrivals plus
  // re-enqueued retries all end in exactly one terminal bucket.
  const std::uint64_t terminal = r.admitted + r.rejected + r.probe_rejected +
                                 r.removed + r.resized + r.resize_rejected +
                                 r.not_present + r.shed + r.timed_out;
  VC2M_CHECK_MSG(r.interrupted ||
                     terminal + r.deferred == r.arrivals + r.retries,
                 what << ": outcome totals do not cover the enqueued attempts");
  return r;
}

ServeReport read_serve_report_file(const std::string& path,
                                   std::vector<std::string>* notes) {
  std::ifstream f(path);
  if (!f.good()) throw util::Error("cannot open serve report '" + path + "'");
  return read_serve_report(f, path, notes);
}

}  // namespace vc2m::service

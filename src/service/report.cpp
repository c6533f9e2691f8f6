#include "service/report.h"

#include <ostream>
#include <sstream>

#include "model/platform.h"
#include "obs/json.h"
#include "scenario/digest.h"
#include "service/service.h"
#include "util/error.h"
#include "util/file.h"

namespace vc2m::service {

using obs::json::Value;
using Kind = Value::Kind;

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
  r.latency_admitted_us.write_json(os);
  os << ", \"rejected\": ";
  r.latency_rejected_us.write_json(os);
  os << ", \"deferred\": ";
  r.latency_deferred_us.write_json(os);
  os << ", \"shed\": ";
  r.latency_shed_us.write_json(os);
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
  const Value root = obs::json::parse_object(is, what);
  // Every object is read against its key list; a key outside it is a note.
  const auto object = [&](const Value& parent, const char* key,
                          std::initializer_list<const char*> known)
      -> const Value& {
    const Value& v = parent.get_object(key, what);
    obs::json::note_unknown_fields(v, known, what + ": " + key, notes);
    return v;
  };
  obs::json::note_unknown_fields(
      root,
      {"schema", "git_rev", "trace", "platform", "seed", "config", "totals",
       "queue", "decisions", "latency_us", "state", "interrupted"},
      what, notes);
  ServeReport r;
  r.schema = root.get_string("schema", what);
  VC2M_CHECK_MSG(r.schema == kServeReportSchema,
                 what << ": unsupported schema '" << r.schema << "'");
  r.git_rev = root.get_string("git_rev", what);
  r.trace = root.get_string("trace", what);
  VC2M_CHECK_MSG(!r.trace.empty(), what << ": empty trace spec");
  r.platform = root.get_string("platform", what);
  VC2M_CHECK_MSG(model::platform_from_name(r.platform),
                 what << ": unknown platform '" << r.platform << "'");
  r.seed = root.get_count("seed", what);
  const Value& cfg = object(root, "config",
                            {"deadline_us", "shed_policy", "queue_cap",
                             "max_retries", "backoff_us", "snapshot_every"});
  r.deadline_us = static_cast<std::int64_t>(cfg.get_count("deadline_us", what));
  r.shed_policy = cfg.get_string("shed_policy", what);
  ShedPolicy shed;
  VC2M_CHECK_MSG(shed_policy_from_string(r.shed_policy, shed),
                 what << ": unknown shed policy '" << r.shed_policy << "'");
  r.queue_cap = cfg.get_count("queue_cap", what);
  VC2M_CHECK_MSG(r.queue_cap >= 1, what << ": config.queue_cap must be >= 1");
  r.max_retries = cfg.get_count("max_retries", what);
  r.backoff_us = static_cast<std::int64_t>(cfg.get_count("backoff_us", what));
  r.snapshot_every = cfg.get_count("snapshot_every", what);
  const Value& t = object(
      root, "totals",
      {"requests", "arrivals", "admitted", "rejected", "probe_rejected",
       "removed", "resized", "resize_rejected", "not_present", "deferred",
       "retries", "shed", "timed_out", "downgrades", "commits", "snapshots"});
  r.requests = t.get_count("requests", what);
  r.arrivals = t.get_count("arrivals", what);
  VC2M_CHECK_MSG(r.arrivals <= r.requests,
                 what << ": arrivals exceed the trace length");
  r.admitted = t.get_count("admitted", what);
  r.rejected = t.get_count("rejected", what);
  r.probe_rejected = t.get_count("probe_rejected", what);
  r.removed = t.get_count("removed", what);
  r.resized = t.get_count("resized", what);
  r.resize_rejected = t.get_count("resize_rejected", what);
  r.not_present = t.get_count("not_present", what);
  r.deferred = t.get_count("deferred", what);
  r.retries = t.get_count("retries", what);
  r.shed = t.get_count("shed", what);
  r.timed_out = t.get_count("timed_out", what);
  r.downgrades = t.get_count("downgrades", what);
  r.commits = t.get_count("commits", what);
  r.snapshots = t.get_count("snapshots", what);
  const Value& q = object(root, "queue", {"max_depth", "backpressure"});
  r.queue_max_depth = q.get_count("max_depth", what);
  VC2M_CHECK_MSG(r.queue_max_depth <= r.queue_cap,
                 what << ": queue max_depth exceeds the configured cap");
  r.backpressure = q.get_count("backpressure", what);
  const Value& d = object(root, "decisions", {"events", "dropped"});
  r.decision_events = d.get_count("events", what);
  r.decision_dropped = d.get_count("dropped", what);
  const Value& lat = object(root, "latency_us",
                            {"admitted", "rejected", "deferred", "shed"});
  const auto summary = [&](const char* key) {
    return obs::HistogramSummary::read_json(
        lat.get_object(key, what), what + ": latency_us." + key, notes);
  };
  r.latency_admitted_us = summary("admitted");
  r.latency_rejected_us = summary("rejected");
  r.latency_deferred_us = summary("deferred");
  r.latency_shed_us = summary("shed");
  const Value& s = object(root, "state",
                          {"vms", "vcpus", "cores_used", "digest"});
  r.vms = s.get_count("vms", what);
  r.vcpus = s.get_count("vcpus", what);
  r.cores_used = s.get_count("cores_used", what);
  r.digest = s.get_string("digest", what);
  VC2M_CHECK_MSG(scenario::is_solve_digest(r.digest),
                 what << ": state.digest is not a solve digest (sched=...)");
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

}  // namespace vc2m::service

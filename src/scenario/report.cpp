#include "scenario/report.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/json.h"
#include "scenario/digest.h"
#include "util/error.h"
#include "util/file.h"
#include "util/parse.h"

namespace vc2m::scenario {

namespace {

using obs::json::Value;
using Kind = Value::Kind;

void write_string_array(std::ostream& os, const std::vector<std::string>& v) {
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? ", " : "") << "\"" << obs::json::escape(v[i]) << "\"";
  os << "]";
}

void write_record(std::ostream& os, const ScenarioRecord& r) {
  os << "  {\"name\": \"" << obs::json::escape(r.name) << "\",\n"
     << "   \"file\": \"" << obs::json::escape(r.file) << "\",\n"
     << "   \"scenario_hash\": \"" << obs::json::escape(r.scenario_hash)
     << "\",\n"
     << "   \"verdict\": \""
     << (r.schedulable ? "schedulable" : "unschedulable") << "\",\n"
     << "   \"digest\": \"" << obs::json::escape(r.digest) << "\",\n"
     << "   \"passed\": " << (r.passed ? "true" : "false") << ",\n"
     << "   \"failures\": ";
  write_string_array(os, r.failures);
  os << ",\n   \"rejection_constraints\": ";
  write_string_array(os, r.rejection_constraints);
  os << ",\n   \"simulated\": " << (r.simulated ? "true" : "false");
  if (r.simulated) {
    os << ",\n   \"metrics\": {\"jobs_released\": " << r.jobs_released
       << ", \"jobs_completed\": " << r.jobs_completed
       << ", \"deadline_misses\": " << r.deadline_misses
       << ", \"faults_injected\": " << r.faults_injected
       << ", \"jobs_killed\": " << r.jobs_killed
       << ", \"jobs_deferred\": " << r.jobs_deferred
       << ", \"trace_events\": " << r.trace_events
       << ", \"trace_violations\": " << r.trace_violations << "}";
  }
  os << "}";
}

std::vector<std::string> get_string_array(const Value& obj,
                                          const std::string& key,
                                          const std::string& what) {
  std::vector<std::string> out;
  for (const Value& item : obj.get_array(key, what).array) {
    VC2M_CHECK_MSG(item.kind == Kind::kString,
                   what << ": field '" << key << "' must hold strings");
    out.push_back(item.str);
  }
  return out;
}

ScenarioRecord parse_record(const Value& v, const std::string& what,
                            std::vector<std::string>* notes) {
  VC2M_CHECK_MSG(v.kind == Kind::kObject,
                 what << ": 'scenarios' entries must be objects");
  ScenarioRecord r;
  r.name = v.get_string("name", what);
  const std::string where = what + ": record '" + r.name + "'";
  r.simulated = v.get_bool("simulated", what);
  obs::json::note_unknown_fields(
      v,
      {"name", "file", "scenario_hash", "verdict", "digest", "passed",
       "failures", "rejection_constraints", "simulated", "metrics"},
      where, notes);
  if (!r.simulated && v.find("metrics") && notes)
    notes->push_back(where + ": 'metrics' on a record that was not "
                             "simulated — ignored");
  r.file = v.get_string("file", what);
  r.scenario_hash = v.get_string("scenario_hash", what);
  VC2M_CHECK_MSG(util::try_hex16(r.scenario_hash),
                 where << ": scenario_hash must be 16 lowercase hex digits");
  const std::string verdict = v.get_string("verdict", what);
  VC2M_CHECK_MSG(verdict == "schedulable" || verdict == "unschedulable",
                 what << ": bad verdict '" << verdict << "'");
  r.schedulable = verdict == "schedulable";
  r.digest = v.get_string("digest", what);
  VC2M_CHECK_MSG(is_solve_digest(r.digest),
                 where << ": digest is not a solve digest (sched=...)");
  r.passed = v.get_bool("passed", what);
  r.failures = get_string_array(v, "failures", what);
  r.rejection_constraints = get_string_array(v, "rejection_constraints", what);
  if (r.simulated) {
    const Value& m = v.get_object("metrics", what);
    obs::json::note_unknown_fields(
        m,
        {"jobs_released", "jobs_completed", "deadline_misses",
         "faults_injected", "jobs_killed", "jobs_deferred", "trace_events",
         "trace_violations"},
        where + " metrics", notes);
    r.jobs_released = m.get_count("jobs_released", what);
    r.jobs_completed = m.get_count("jobs_completed", what);
    r.deadline_misses = m.get_count("deadline_misses", what);
    r.faults_injected = m.get_count("faults_injected", what);
    r.jobs_killed = m.get_count("jobs_killed", what);
    r.jobs_deferred = m.get_count("jobs_deferred", what);
    r.trace_events = m.get_count("trace_events", what);
    r.trace_violations = m.get_count("trace_violations", what);
  }
  return r;
}

}  // namespace

const ScenarioRecord* ScenarioReport::find(const std::string& name) const {
  for (const auto& r : records)
    if (r.name == name) return &r;
  return nullptr;
}

void write_scenario_report(std::ostream& os, const ScenarioReport& r) {
  os << "{\n";
  os << "\"schema\": \"" << obs::json::escape(r.schema) << "\",\n";
  os << "\"git_rev\": \"" << obs::json::escape(r.git_rev) << "\",\n";
  os << "\"corpus\": \"" << obs::json::escape(r.corpus) << "\",\n";
  os << "\"shard\": {\"index\": " << r.shard_index
     << ", \"count\": " << r.shard_count << "},\n";
  // Written only when set so complete reports stay byte-identical to
  // reports from builds that predate interruption support.
  if (r.interrupted) os << "\"interrupted\": true,\n";
  os << "\"total\": " << r.records.size() << ",\n";
  os << "\"passed\": " << r.passed() << ",\n";
  os << "\"failed\": " << r.failed() << ",\n";
  os << "\"scenarios\": [";
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_record(os, r.records[i]);
  }
  os << (r.records.empty() ? "" : "\n") << "]\n}\n";
}

void write_scenario_report_file(const std::string& path,
                                const ScenarioReport& r) {
  auto f = util::open_output_file(path, "scenario report");
  write_scenario_report(f, r);
  util::close_output_file(f, path, "scenario report");
}

ScenarioReport read_scenario_report(std::istream& is, const std::string& what,
                                    std::vector<std::string>* notes) {
  const Value root = obs::json::parse_object(is, what);
  obs::json::note_unknown_fields(
      root,
      {"schema", "git_rev", "corpus", "shard", "interrupted", "total",
       "passed", "failed", "scenarios"},
      what, notes);
  ScenarioReport r;
  r.schema = root.get_string("schema", what);
  VC2M_CHECK_MSG(r.schema == kReportSchema,
                 what << ": unsupported schema '" << r.schema << "'");
  r.git_rev = root.get_string("git_rev", what);
  r.corpus = root.get_string("corpus", what);
  const Value& shard = root.get_object("shard", what);
  obs::json::note_unknown_fields(shard, {"index", "count"}, what + ": shard",
                                 notes);
  r.shard_index = shard.get_int<int>("index", what, 0);
  r.shard_count = shard.get_int<int>("count", what, 1);
  VC2M_CHECK_MSG(r.shard_count >= 1 && r.shard_index < r.shard_count,
                 what << ": bad shard " << r.shard_index << "/"
                      << r.shard_count);
  if (const Value* intr = root.find("interrupted", Kind::kBool, what))
    r.interrupted = intr->boolean;
  for (const Value& v : root.get_array("scenarios", what).array) {
    ScenarioRecord rec = parse_record(v, what, notes);
    VC2M_CHECK_MSG(r.records.empty() || r.records.back().name < rec.name,
                   what << ": scenario '" << rec.name
                        << (r.find(rec.name) ? "' appears twice"
                                             : "' is out of name order"));
    r.records.push_back(std::move(rec));
  }
  VC2M_CHECK_MSG(root.get_count("total", what) == r.records.size(),
                 what << ": 'total' disagrees with the record count");
  VC2M_CHECK_MSG(root.get_count("passed", what) == r.passed(),
                 what << ": 'passed' disagrees with the records");
  VC2M_CHECK_MSG(root.get_count("failed", what) == r.failed(),
                 what << ": 'failed' disagrees with the records");
  return r;
}

ScenarioReport merge_scenario_reports(const std::vector<ScenarioReport>& in) {
  VC2M_CHECK_MSG(!in.empty(), "merge: no reports given");
  ScenarioReport out;
  out.git_rev = in.front().git_rev;
  out.corpus = in.front().corpus;
  for (const auto& r : in) {
    VC2M_CHECK_MSG(r.corpus == out.corpus,
                   "merge: corpus mismatch ('" << r.corpus << "' vs '"
                                               << out.corpus << "')");
    VC2M_CHECK_MSG(r.git_rev == out.git_rev,
                   "merge: git_rev mismatch ('" << r.git_rev << "' vs '"
                                                << out.git_rev << "')");
    out.interrupted = out.interrupted || r.interrupted;
    for (const auto& rec : r.records) {
      VC2M_CHECK_MSG(out.find(rec.name) == nullptr,
                     "merge: scenario '" << rec.name
                                         << "' appears in two shards");
      out.records.push_back(rec);
    }
  }
  std::sort(out.records.begin(), out.records.end(),
            [](const ScenarioRecord& a, const ScenarioRecord& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace vc2m::scenario

#include "scenario/report.h"

#include <algorithm>
#include <ostream>

#include "obs/json.h"
#include "scenario/digest.h"
#include "util/error.h"
#include "util/parse.h"

namespace vc2m::scenario {

const ScenarioRecord* ScenarioReport::find(const std::string& name) const {
  for (const auto& r : records)
    if (r.name == name) return &r;
  return nullptr;
}

ScenarioReport read_scenario_report(std::istream& is, const std::string& what,
                                    std::vector<std::string>* notes) {
  ScenarioReport r = obs::json::read<ScenarioReport>(is, what, notes);
  VC2M_CHECK_MSG(r.schema == kReportSchema,
                 what << ": unsupported schema '" << r.schema << "'");
  VC2M_CHECK_MSG(r.shard_count >= 1 && r.shard_index >= 0 &&
                     r.shard_index < r.shard_count,
                 what << ": bad shard " << r.shard_index << "/"
                      << r.shard_count);
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    const ScenarioRecord& rec = r.records[i];
    const std::string where = what + ": record '" + rec.name + "'";
    VC2M_CHECK_MSG(util::try_hex16(rec.scenario_hash),
                   where << ": scenario_hash must be 16 lowercase hex digits");
    VC2M_CHECK_MSG(is_solve_digest(rec.digest),
                   where << ": digest is not a solve digest (sched=...)");
    VC2M_CHECK_MSG(i == 0 || r.records[i - 1].name < rec.name,
                   what << ": scenario '" << rec.name << "' "
                        << (r.find(rec.name) != &rec ? "appears twice"
                                                     : "is out of name order"));
  }
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

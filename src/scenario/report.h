// The versioned scenario-report artifact ("vc2m-scenario-report/1"):
// the machine-readable outcome of a matrix run, declared once in the
// `fields` functions below and written and read through obs/json.h like
// the bench and explain reports.
//
// Every field is deterministic — verdicts, digests, simulator event counts
// — and records are sorted by scenario name, so a report is bit-identical
// for any --jobs value, for a resumed run, and for shard reports merged
// back together (scripts/check.sh diffs a 2-way-sharded merge against an
// unsharded run byte for byte). Wall-clock timing deliberately stays out;
// the bench-report pipeline owns performance numbers.
//
// The same format doubles as the matrix runner's checkpoint file: a
// checkpoint is simply a report holding the records completed so far.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/json.h"

namespace vc2m::scenario {

inline constexpr const char* kReportSchema = "vc2m-scenario-report/1";

/// Outcome of one scenario run. All fields are pure functions of the
/// scenario file and the binary — nothing wall-clock-dependent.
struct ScenarioRecord {
  std::string name;
  std::string file;  ///< basename of the scenario file
  /// text_digest of the scenario document. --resume only reuses a
  /// checkpointed record when this still matches the file on disk.
  std::string scenario_hash;
  bool schedulable = false;
  std::string digest;  ///< solve digest (scenario/digest.h)
  bool passed = false;
  std::vector<std::string> failures;  ///< expectation mismatches
  /// Constraint names from the per-VM rejection chain (unschedulable only).
  std::vector<std::string> rejection_constraints;
  bool simulated = false;
  obs::AuditRecord metrics;  ///< all zero when !simulated
};

struct ScenarioReport {
  std::string schema = kReportSchema;
  std::string git_rev;
  std::string corpus;  ///< the corpus path label the runner was given
  int shard_index = 0;
  int shard_count = 1;
  /// True when the run stopped early on SIGINT/SIGTERM: the report holds
  /// only the scenarios that finished and must not be judged as complete.
  bool interrupted = false;
  std::vector<ScenarioRecord> records;  ///< sorted by name

  std::size_t passed() const {
    std::size_t n = 0;
    for (const auto& r : records) n += r.passed ? 1 : 0;
    return n;
  }
  std::size_t failed() const { return records.size() - passed(); }
  bool all_passed() const { return failed() == 0; }
  /// Record by scenario name; nullptr when absent.
  const ScenarioRecord* find(const std::string& name) const;
};

/// Verdict names, indexed by `schedulable`: the report's `verdict` and a
/// scenario file's `expect.verdict`.
inline constexpr const char* kVerdictNames[] = {"unschedulable",
                                                "schedulable"};

// The report's JSON members (obs/json.h), in wire order. `metrics` is
// declared only for a simulated record, so on any other it is an unknown
// member.

template <util::RecordOf<ScenarioRecord> R, class V>
void fields(R& r, V&& v) {
  v("name", r.name);
  v("file", r.file);
  v("scenario_hash", r.scenario_hash);
  v("verdict", util::Named{r.schedulable, kVerdictNames});
  v("digest", r.digest);
  v("passed", r.passed);
  v("failures", r.failures);
  v("rejection_constraints", r.rejection_constraints);
  v("simulated", r.simulated);
  if (!r.simulated) return;
  v("metrics", r.metrics);
}

template <util::RecordOf<ScenarioReport> R, class V>
void fields(R& r, V&& v) {
  v("schema", r.schema);
  v("git_rev", r.git_rev);
  v("corpus", r.corpus);
  v("shard", obs::json::Group{[&](auto&& s) {
    s("index", r.shard_index);
    s("count", r.shard_count);
  }});
  // Written only when set so complete reports stay byte-identical to
  // reports from builds that predate interruption support.
  v("interrupted", obs::json::Flag{r.interrupted});
  v("total", obs::json::Derived{[&] { return r.records.size(); }});
  v("passed", obs::json::Derived{[&] { return r.passed(); }});
  v("failed", obs::json::Derived{[&] { return r.failed(); }});
  v("scenarios", obs::json::Tall{r.records});
}

/// Strict reader (throws util::Error on malformed JSON, a missing member,
/// a schema it does not speak, records out of name order or duplicated, a
/// scenario_hash that is not 16 lowercase hex digits, a digest that is not
/// a solve digest, or totals that disagree with the records). Unknown
/// fields at any level — a newer writer's additions, or metrics on a
/// record that was not simulated — are surfaced through `notes` (when
/// given) instead of being rejected.
ScenarioReport read_scenario_report(std::istream& is,
                                    const std::string& what = "scenario report",
                                    std::vector<std::string>* notes = nullptr);

/// Merge shard reports into one: union of records re-sorted by name, shard
/// reset to 0/1. Throws util::Error when inputs disagree on corpus or
/// git_rev, or when two shards carry the same scenario (shards must be
/// disjoint).
ScenarioReport merge_scenario_reports(const std::vector<ScenarioReport>& in);

}  // namespace vc2m::scenario

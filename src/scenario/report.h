// The versioned scenario-report artifact ("vc2m-scenario-report/1"):
// the machine-readable outcome of a matrix run, written through the same
// strict obs/json layer as the bench and explain reports.
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
  // Simulator metrics (all zero when !simulated).
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t jobs_killed = 0;
  std::uint64_t jobs_deferred = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_violations = 0;
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

void write_scenario_report(std::ostream& os, const ScenarioReport& r);
void write_scenario_report_file(const std::string& path,
                                const ScenarioReport& r);

/// Strict reader (throws util::Error on malformed JSON, a schema it does
/// not speak, records out of name order or duplicated, a scenario_hash that
/// is not 16 lowercase hex digits, a digest that is not a solve digest, or
/// totals that disagree with the records). Unknown fields at any level — a
/// newer writer's additions, or metrics on a record that was not simulated
/// — are surfaced through `notes` (when given) instead of being rejected.
ScenarioReport read_scenario_report(std::istream& is,
                                    const std::string& what = "scenario report",
                                    std::vector<std::string>* notes = nullptr);

/// Merge shard reports into one: union of records re-sorted by name, shard
/// reset to 0/1. Throws util::Error when inputs disagree on corpus or
/// git_rev, or when two shards carry the same scenario (shards must be
/// disjoint).
ScenarioReport merge_scenario_reports(const std::vector<ScenarioReport>& in);

}  // namespace vc2m::scenario

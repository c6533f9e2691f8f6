// Declarative scenarios: one JSON file = one reproducible vC2M run.
//
// A scenario composes everything the CLI previously took as bespoke flag
// combinations — platform shape, taskset (generated mix or explicit CSV),
// allocation strategy, fault plan, enforcement policy, seeds — with the
// *expected outcome* (verdict, pinned solve digest, checker-clean trace,
// bounds on runtime metrics) into a single named artifact. The curated
// library under scenarios/ is the repo's standing regression corpus; every
// feature PR ships its operating points as scenarios instead of flag sprawl
// in scripts (docs/scenarios.md has the format reference and authoring
// recipe).
//
// The format is strict in the spirit of workload/taskset_io: the reader
// (built on the obs/json recursive-descent parser) rejects unknown keys,
// wrong types, duplicate keys, and non-finite numbers, each with the byte
// offset of the offending token, and every semantic cross-check (a
// simulate block under an unschedulable expectation, a trace expectation
// without a simulate block) fails at load time, not at run time.
//
//   {
//     "schema": "vc2m-scenario/1",
//     "name": "cache-thrash-storm",
//     "description": "heavy bimodal mix under partition revocations",
//     "platform": "A",                       // A | B | C (default A)
//     "solution": "ovf",                     // strategy key (default flat)
//     "seed": 42,                            // generator + solver seed
//     "workload": {"util": 1.0, "dist": "heavy", "vms": 2},
//                                            // or {"file": "tasks.csv"}
//     "faults": "overrun-factor=1.2,seed=9", // sim/faults.h spec (optional)
//     "policy": "degrade",                   // enforcement (default strict)
//     "simulate": {"hyperperiods": 3},       // optional; absent = solve only
//     "expect": {
//       "verdict": "schedulable",            // or "unschedulable"
//       "digest": "sched=1|cores=...",       // pinned solve digest (opt.)
//       "trace_clean": true,                 // checker must be clean (opt.)
//       "min_faults_injected": 1,            // sim metric bounds (opt.)
//       "max_deadline_misses": 0,
//       "rejection_constraints": ["bw_pool_exhausted"]  // unsched. only
//     }
//   }
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload/generator.h"

namespace vc2m::scenario {

inline constexpr const char* kScenarioSchema = "vc2m-scenario/1";

// Domain caps for integer fields. Bounds are checked on the raw parsed
// number *before* narrowing to int, so an absurd value (e.g. 2^32 + 1)
// cannot wrap into range and be silently accepted as a different one.
// `vc2m validate` checks scenario files through this same loader.
inline constexpr int kMaxVms = 1024;
inline constexpr int kMaxHyperperiods = 1000000;

/// Where the taskset comes from: the §5.1 generator or an explicit CSV
/// (resolved relative to the scenario file's directory).
struct WorkloadSpec {
  enum class Kind { kGenerate, kFile };
  Kind kind = Kind::kGenerate;
  double util = 1.0;  ///< target reference utilization (kGenerate)
  workload::UtilDist dist = workload::UtilDist::kUniform;
  int vms = 1;
  std::string file;  ///< taskset CSV path (kFile), already resolved
};

struct SimulateSpec {
  int hyperperiods = 3;  ///< simulated horizon in taskset hyperperiods
};

/// Pinned expectations — what turns a scenario into a regression test.
struct Expectation {
  bool schedulable = false;   ///< required verdict
  std::string digest;         ///< pinned solve digest ("" = unpinned)
  std::optional<bool> trace_clean;          ///< invariant checker verdict
  std::optional<std::uint64_t> min_faults_injected;
  std::optional<std::uint64_t> max_deadline_misses;
  /// Constraints that must each appear in the per-VM rejection chain
  /// (names as obs::to_string(DecisionConstraint)); unschedulable only.
  std::vector<std::string> rejection_constraints;
};

struct Scenario {
  std::string name;  ///< [a-z0-9-]+, unique within a corpus
  std::string description;
  std::string platform = "A";
  std::string solution = "flat";
  std::uint64_t seed = 42;
  WorkloadSpec workload;
  std::string faults;            ///< sim/faults.h spec; "" = fault-free
  std::string policy = "strict"; ///< enforcement policy name
  std::optional<SimulateSpec> simulate;
  Expectation expect;
  std::string source;  ///< file it was loaded from ("" for in-memory text)
  /// text_digest of the source document; checkpointed with each record so
  /// --resume re-runs scenarios whose files changed.
  std::string content_hash;
};

/// Parse and fully validate one scenario document. `source` names the
/// origin in error messages; relative workload files resolve against its
/// directory. Throws util::Error with "<source>: ... at offset N" on any
/// structural or semantic problem.
Scenario load_scenario(const std::string& text, const std::string& source);

/// Read, parse, and validate a scenario file. Throws util::Error.
Scenario load_scenario_file(const std::string& path);

/// Load every file in `files` (in order) and refuse a scenario name used
/// twice across them. Throws util::Error naming the offending file.
std::vector<Scenario> load_corpus(const std::vector<std::string>& files);

/// Scenario files in `path`: the sorted `*.json` entries when it is a
/// directory, or just `path` when it is a file. Throws util::Error when the
/// path does not exist or a directory holds no scenario files.
std::vector<std::string> discover_scenario_files(const std::string& path);

}  // namespace vc2m::scenario

// Scenario engine suite: the strict loader (unknown keys, wrong types,
// duplicate keys, non-finite numbers, truncation — each rejected with a
// byte offset), the shipped corpus (round-trips, pinned expectations hold),
// and the matrix runner
// (bit-identical reports at any --jobs, disjoint/exhaustive shards whose
// merge equals the unsharded run, resume-from-checkpoint identity), plus
// the output-path regression tests for every artifact writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_export.h"
#include "scenario/digest.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "util/error.h"
#include "util/file.h"

#ifndef VC2M_SCENARIO_DIR
#error "VC2M_SCENARIO_DIR must point at the shipped scenarios/ corpus"
#endif

namespace vc2m {
namespace {

const char* const kCorpusDir = VC2M_SCENARIO_DIR;

std::string minimal_scenario() {
  return R"({
  "schema": "vc2m-scenario/1",
  "name": "minimal",
  "workload": { "util": 0.5 },
  "expect": { "verdict": "schedulable" }
})";
}

/// Expected message fragment for the offset of `needle` in `text`.
std::string at_offset_of(const std::string& text, const std::string& needle) {
  const auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  return "at offset " + std::to_string(pos);
}

std::string error_of(const std::string& text) {
  try {
    (void)scenario::load_scenario(text, "doc");
  } catch (const util::Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected util::Error for: " << text;
  return "";
}

// ---------------------------------------------------------------------------
// Loader: defaults and strictness

TEST(ScenarioLoader, MinimalScenarioGetsDocumentedDefaults) {
  const auto sc = scenario::load_scenario(minimal_scenario(), "doc");
  EXPECT_EQ(sc.name, "minimal");
  EXPECT_EQ(sc.platform, "A");
  EXPECT_EQ(sc.solution, "flat");
  EXPECT_EQ(sc.seed, 42u);
  EXPECT_EQ(sc.policy, "strict");
  EXPECT_EQ(sc.workload.kind, scenario::WorkloadSpec::Kind::kGenerate);
  EXPECT_EQ(sc.workload.vms, 1);
  EXPECT_FALSE(sc.simulate.has_value());
  EXPECT_TRUE(sc.expect.schedulable);
  EXPECT_TRUE(sc.expect.digest.empty());
}

TEST(ScenarioLoader, UnknownTopLevelKeyIsRejectedWithItsByteOffset) {
  std::string text = minimal_scenario();
  text.insert(text.rfind('}'), R"(, "bogus": 1)");
  const std::string err = error_of(text);
  EXPECT_NE(err.find("unknown key 'bogus'"), std::string::npos) << err;
  EXPECT_NE(err.find(at_offset_of(text, "\"bogus\"")), std::string::npos)
      << err;
}

TEST(ScenarioLoader, UnknownNestedKeyIsRejectedWithItsByteOffset) {
  std::string text = R"({
  "schema": "vc2m-scenario/1",
  "name": "x",
  "workload": { "util": 0.5, "tasks": 9 },
  "expect": { "verdict": "schedulable" }
})";
  const std::string err = error_of(text);
  EXPECT_NE(err.find("unknown key 'tasks'"), std::string::npos) << err;
  EXPECT_NE(err.find(at_offset_of(text, "\"tasks\"")), std::string::npos)
      << err;
}

TEST(ScenarioLoader, WrongTypeIsRejectedWithTheValueOffset) {
  std::string text = R"({
  "schema": "vc2m-scenario/1",
  "name": "x",
  "platform": 4,
  "workload": { "util": 0.5 },
  "expect": { "verdict": "schedulable" }
})";
  const std::string err = error_of(text);
  EXPECT_NE(err.find("'platform' must be a string"), std::string::npos)
      << err;
  EXPECT_NE(err.find(at_offset_of(text, "4,")), std::string::npos) << err;
}

TEST(ScenarioLoader, MalformedDocumentMatrixAllThrowCleanErrors) {
  const std::string base = minimal_scenario();
  std::vector<std::string> bad;
  // Truncations at every prefix length exercise the parser's EOF paths the
  // same way the test_workload CSV fuzz loop does for tasksets.
  for (std::size_t n = 0; n < base.size(); n += 7)
    bad.push_back(base.substr(0, n));
  bad.push_back("");
  bad.push_back("null");
  bad.push_back("[1,2,3]");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\"}");       // missing keys
  bad.push_back("{\"schema\": \"vc2m-scenario/9\", \"name\": \"x\", "
                "\"workload\": {\"util\": 1}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  // Duplicate keys, non-finite numbers, wrong-typed fields.
  std::string dup = base;
  dup.insert(dup.rfind('}'), R"(, "seed": 1, "seed": 2)");
  bad.push_back(dup);
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": {\"util\": NaN}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": {\"util\": Infinity}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": {\"util\": 1e999}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": \"generate\", "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"seed\": -3, \"workload\": {\"util\": 1}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"seed\": 1.5, \"workload\": {\"util\": 1}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"UPPER\", "
                "\"workload\": {\"util\": 1}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  // Integer fields outside their domain caps, including values past
  // INT_MAX that would wrap into range if narrowed before bound-checking.
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": {\"util\": 1, \"vms\": 0}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": {\"util\": 1, \"vms\": 4294967297}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");
  bad.push_back("{\"schema\": \"vc2m-scenario/1\", \"name\": \"x\", "
                "\"workload\": {\"util\": 1}, "
                "\"simulate\": {\"hyperperiods\": 4294967297}, "
                "\"expect\": {\"verdict\": \"schedulable\"}}");

  for (const auto& text : bad)
    EXPECT_THROW((void)scenario::load_scenario(text, "doc"), util::Error)
        << "accepted: " << text;
}

TEST(ScenarioLoader, IntegerFieldsPastTheDomainCapDoNotWrapIntoRange) {
  // 2^32 + 1 narrowed through a 32-bit cast would wrap to 1 and pass the
  // old >= 1 check; the loader must reject it at its byte offset instead.
  const std::string text = R"({
  "schema": "vc2m-scenario/1",
  "name": "x",
  "workload": { "util": 0.5, "vms": 4294967297 },
  "expect": { "verdict": "schedulable" }
})";
  const std::string err = error_of(text);
  EXPECT_NE(err.find("'vms' must be an integer in 1.."), std::string::npos)
      << err;
  EXPECT_NE(err.find(at_offset_of(text, "4294967297")), std::string::npos)
      << err;
}

TEST(ScenarioLoader, SeedMustBeBelow2To53) {
  // From 2^53 on a JSON number no longer holds every integer (2^53 + 1
  // reads back as 2^53), so the loader refuses such seeds at their offset.
  auto with_seed = [](const std::string& seed) {
    std::string text = minimal_scenario();
    text.insert(text.find("\"workload\""), "\"seed\": " + seed + ",\n  ");
    return text;
  };
  for (const char* seed : {"9007199254740992", "9007199254740993"}) {
    const std::string text = with_seed(seed);
    const std::string err = error_of(text);
    EXPECT_NE(err.find("'seed' must be a non-negative integer below 2^53"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find(at_offset_of(text, seed)), std::string::npos) << err;
  }
  EXPECT_EQ(scenario::load_scenario(with_seed("9007199254740991"), "doc").seed,
            (std::uint64_t{1} << 53) - 1);
}

TEST(ScenarioLoader, SemanticCrossFieldRulesFailAtLoadTime) {
  // simulate under an unschedulable expectation.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 9.0}, "simulate": {},
    "expect": {"verdict": "unschedulable"}})")
                .find("requires an expected verdict of schedulable"),
            std::string::npos);
  // Runtime expectation without a simulate block.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable", "trace_clean": true}})")
                .find("no 'simulate' block"),
            std::string::npos);
  // min_faults_injected without a fault plan.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 0.5}, "simulate": {},
    "expect": {"verdict": "schedulable", "min_faults_injected": 1}})")
                .find("requires a 'faults' plan"),
            std::string::npos);
  // rejection_constraints under a schedulable verdict.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable",
               "rejection_constraints": ["core_limit"]}})")
                .find("requires an unschedulable verdict"),
            std::string::npos);
  // Unknown constraint, solution, policy, platform, dist — each named.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 9.0},
    "expect": {"verdict": "unschedulable",
               "rejection_constraints": ["gremlins"]}})")
                .find("unknown rejection constraint 'gremlins'"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "solution": "magic", "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable"}})")
                .find("names no registered strategy"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "policy": "wish", "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable"}})")
                .find("'policy' must be"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "platform": "D", "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable"}})")
                .find("'platform' must be A, B, or C"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 0.5, "dist": "spiky"},
    "expect": {"verdict": "schedulable"}})")
                .find("'dist' must be one of"),
            std::string::npos);
  // A pinned digest must be a solve digest.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable", "digest": "cores=1"}})")
                .find("must be a solve digest"),
            std::string::npos);
  // A fault spec is validated through the real sim/faults parser.
  EXPECT_NE(error_of(R"({"schema": "vc2m-scenario/1", "name": "x",
    "faults": "overrun-factor=0.5", "workload": {"util": 0.5},
    "expect": {"verdict": "schedulable"}})")
                .find("'faults':"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Shipped corpus

TEST(ScenarioCorpus, EveryShippedScenarioLoadsWithAPinnedDigest) {
  const auto files = scenario::discover_scenario_files(kCorpusDir);
  ASSERT_GE(files.size(), 10u) << "curated corpus shrank";
  std::set<std::string> names;
  for (const auto& file : files) {
    const auto sc = scenario::load_scenario_file(file);
    EXPECT_TRUE(names.insert(sc.name).second)
        << "duplicate scenario name " << sc.name;
    EXPECT_FALSE(sc.description.empty()) << file;
    EXPECT_FALSE(sc.expect.digest.empty())
        << file << ": shipped scenarios must pin their solve digest";
  }
}

TEST(ScenarioCorpus, CorpusCoversEveryEnforcementPolicyAndBothVerdicts) {
  const auto files = scenario::discover_scenario_files(kCorpusDir);
  std::set<std::string> policies;
  bool saw_unschedulable = false, saw_file_workload = false;
  std::set<std::string> constraints;
  for (const auto& file : files) {
    const auto sc = scenario::load_scenario_file(file);
    if (sc.simulate) policies.insert(sc.policy);
    if (!sc.expect.schedulable) saw_unschedulable = true;
    if (sc.workload.kind == scenario::WorkloadSpec::Kind::kFile)
      saw_file_workload = true;
    for (const auto& c : sc.expect.rejection_constraints)
      constraints.insert(c);
  }
  EXPECT_EQ(policies,
            (std::set<std::string>{"strict", "kill", "throttle", "degrade"}));
  EXPECT_TRUE(saw_unschedulable);
  EXPECT_TRUE(saw_file_workload);
  EXPECT_GE(constraints.size(), 3u)
      << "infeasible scenarios should pin distinct rejection constraints";
}

TEST(ScenarioCorpus, AllPinnedExpectationsHold) {
  for (const auto& file : scenario::discover_scenario_files(kCorpusDir)) {
    const auto rec = scenario::run_scenario(scenario::load_scenario_file(file));
    EXPECT_TRUE(rec.passed) << file << ": "
                            << (rec.failures.empty() ? "?"
                                                     : rec.failures.front());
    EXPECT_EQ(rec.scenario_hash.size(), 16u)
        << file << ": records must carry the scenario content hash";
  }
}

// ---------------------------------------------------------------------------
// Matrix runner determinism

std::string serialized(const scenario::ScenarioReport& r) {
  std::ostringstream os;
  scenario::write_scenario_report(os, r);
  return os.str();
}

scenario::MatrixConfig corpus_config(int jobs) {
  scenario::MatrixConfig cfg;
  cfg.files = scenario::discover_scenario_files(kCorpusDir);
  cfg.corpus = "scenarios";
  cfg.jobs = jobs;
  return cfg;
}

TEST(ScenarioMatrix, ReportIsBitIdenticalAtJobs128) {
  const auto r1 = serialized(scenario::run_matrix(corpus_config(1)).report);
  const auto r2 = serialized(scenario::run_matrix(corpus_config(2)).report);
  const auto r8 = serialized(scenario::run_matrix(corpus_config(8)).report);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);
}

TEST(ScenarioMatrix, ShardsAreDisjointAndExhaustive) {
  for (const std::size_t total : {0u, 1u, 5u, 12u, 13u}) {
    for (const int count : {1, 2, 3, 8}) {
      std::set<std::size_t> seen;
      for (int index = 0; index < count; ++index) {
        for (const std::size_t i :
             scenario::shard_indices(total, index, count))
          EXPECT_TRUE(seen.insert(i).second)
              << "index " << i << " in two shards";
      }
      EXPECT_EQ(seen.size(), total) << "total " << total << "/" << count;
    }
  }
}

TEST(ScenarioMatrix, TwoWayShardedMergeEqualsUnshardedRun) {
  auto unsharded = scenario::run_matrix(corpus_config(4)).report;
  std::vector<scenario::ScenarioReport> shards;
  for (int index = 0; index < 2; ++index) {
    auto cfg = corpus_config(4);
    cfg.shard_index = index;
    cfg.shard_count = 2;
    shards.push_back(scenario::run_matrix(cfg).report);
  }
  EXPECT_EQ(serialized(scenario::merge_scenario_reports(shards)),
            serialized(unsharded));
}

TEST(ScenarioMatrix, ResumeFromCheckpointReproducesTheReportWithoutRerun) {
  const std::string ckpt =
      testing::TempDir() + "/vc2m_scenario_resume_ckpt.json";
  std::remove(ckpt.c_str());

  auto cold = corpus_config(2);
  cold.checkpoint = ckpt;
  const auto first = scenario::run_matrix(cold);
  EXPECT_EQ(first.resumed, 0);
  EXPECT_EQ(static_cast<std::size_t>(first.executed),
            first.report.records.size());

  auto warm = corpus_config(2);
  warm.checkpoint = ckpt;
  warm.resume = true;
  const auto second = scenario::run_matrix(warm);
  EXPECT_EQ(second.executed, 0) << "resume re-ran scenarios";
  EXPECT_EQ(static_cast<std::size_t>(second.resumed),
            second.report.records.size());
  EXPECT_EQ(serialized(second.report), serialized(first.report));
  EXPECT_FALSE(std::filesystem::exists(ckpt + ".tmp"))
      << "atomic checkpoint write leaked its temp file";
  std::remove(ckpt.c_str());
}

TEST(ScenarioMatrix, ResumeWithACorruptCheckpointColdStartsWithAWarning) {
  const std::string ckpt =
      testing::TempDir() + "/vc2m_scenario_torn_ckpt.json";
  {
    // A checkpoint torn mid-write — the crash case resume exists for.
    std::ofstream out(ckpt);
    out << "{\"schema\": \"vc2m-scenario-report/1\", \"git_re";
  }
  auto cfg = corpus_config(2);
  cfg.checkpoint = ckpt;
  cfg.resume = true;
  const auto result = scenario::run_matrix(cfg);
  EXPECT_EQ(result.resumed, 0);
  EXPECT_EQ(static_cast<std::size_t>(result.executed),
            result.report.records.size());
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings.front().find("cold start"), std::string::npos)
      << result.warnings.front();
  // The cold run rewrote the checkpoint; it must be readable again.
  auto ckpt_file = util::open_input_file(ckpt, "checkpoint");
  const auto rewritten = scenario::read_scenario_report(ckpt_file);
  EXPECT_EQ(rewritten.records.size(), result.report.records.size());
  std::remove(ckpt.c_str());
}

TEST(ScenarioMatrix, ResumeRerunsAScenarioWhoseFileChangedSinceCheckpoint) {
  const std::string dir = testing::TempDir() + "/vc2m_scenario_stale";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string file = dir + "/one.json";
  {
    std::ofstream out(file);
    out << minimal_scenario();
  }

  scenario::MatrixConfig cfg;
  cfg.files = {file};
  cfg.checkpoint = dir + "/ckpt.json";
  (void)scenario::run_matrix(cfg);

  // Same scenario name, same file name, different content: reusing the
  // checkpointed record would carry a verdict the file no longer pins.
  std::string changed = minimal_scenario();
  changed.replace(changed.find("0.5"), 3, "0.6");
  {
    std::ofstream out(file);
    out << changed;
  }
  auto warm = cfg;
  warm.resume = true;
  const auto second = scenario::run_matrix(warm);
  EXPECT_EQ(second.resumed, 0) << "resume reused a stale record";
  EXPECT_EQ(second.executed, 1);
  std::filesystem::remove_all(dir);
}

TEST(ScenarioMatrix, DuplicateScenarioNamesAcrossFilesAreRejected) {
  const std::string dir = testing::TempDir() + "/vc2m_scenario_dup";
  std::filesystem::create_directories(dir);
  for (const char* f : {"a.json", "b.json"}) {
    std::ofstream out(dir + "/" + f);
    out << minimal_scenario();
  }
  scenario::MatrixConfig cfg;
  cfg.files = scenario::discover_scenario_files(dir);
  EXPECT_THROW((void)scenario::run_matrix(cfg), util::Error);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Report artifact

TEST(ScenarioReport, RoundTripsThroughTheStrictReader) {
  const auto report = scenario::run_matrix(corpus_config(2)).report;
  std::istringstream in(serialized(report));
  const auto back = scenario::read_scenario_report(in);
  EXPECT_EQ(serialized(back), serialized(report));
  EXPECT_EQ(back.passed(), report.passed());
}

TEST(ScenarioReport, ReaderRejectsForeignSchemaAndUnknownKeys) {
  std::istringstream wrong(R"({"schema": "vc2m-bench-report/1"})");
  EXPECT_THROW((void)scenario::read_scenario_report(wrong), util::Error);
  std::istringstream extra(
      R"({"schema": "vc2m-scenario-report/1", "git_rev": "x", "corpus": "c",
          "shard_index": 0, "shard_count": 1, "total": 0, "passed": 0,
          "failed": 0, "surprise": 1, "records": []})");
  EXPECT_THROW((void)scenario::read_scenario_report(extra), util::Error);
}

TEST(ScenarioReport, UnknownFieldInAValidReportIsSurfacedNotRejected) {
  const auto report = scenario::run_matrix(corpus_config(1)).report;
  std::string text = serialized(report);
  const std::size_t at = text.find("\"corpus\"");
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "\"from_the_future\": true,\n");
  std::vector<std::string> notes;
  std::istringstream in(text);
  scenario::ScenarioReport back;
  ASSERT_NO_THROW(back = scenario::read_scenario_report(
                      in, "scenario report", &notes));
  EXPECT_EQ(back.passed(), report.passed());
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("from_the_future"), std::string::npos);
  EXPECT_NE(notes[0].find("ignored"), std::string::npos);
  // Without a notes sink the field is silently skipped, still no throw.
  std::istringstream in2(text);
  EXPECT_NO_THROW((void)scenario::read_scenario_report(in2));

  // Unknown keys are notes at every level, and so are metrics on a record
  // that was not simulated.
  const std::string plain = serialized(report);
  for (const auto& [anchor, insert] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"shard\": {", "\"from_the_future\": 1, "},
           {"  {\"name\": ", "\"from_the_future\": 1, "},
           {"\"metrics\": {", "\"from_the_future\": 1, "},
           {"\"simulated\": false", ", \"metrics\": {}"}}) {
    std::string nested = plain;
    const std::size_t pos = nested.find(anchor);
    ASSERT_NE(pos, std::string::npos) << anchor;
    nested.insert(anchor.find('{') != std::string::npos
                      ? nested.find('{', pos) + 1
                      : pos + anchor.size(),
                  insert);
    std::vector<std::string> nested_notes;
    std::istringstream in3(nested);
    ASSERT_NO_THROW((void)scenario::read_scenario_report(
        in3, "scenario report", &nested_notes))
        << anchor;
    EXPECT_EQ(nested_notes.size(), 1u) << anchor;
  }
}

TEST(ScenarioReport, RecordHashDigestAndOrderAreChecked) {
  scenario::ScenarioReport report;
  report.corpus = "c";
  for (const char* name : {"a", "b"}) {
    scenario::ScenarioRecord rec;
    rec.name = name;
    rec.scenario_hash = "0123456789abcdef";
    rec.digest = "sched=1";
    report.records.push_back(rec);
  }
  std::istringstream ok(serialized(report));
  EXPECT_NO_THROW((void)scenario::read_scenario_report(ok));
  const std::pair<const char*, void (*)(scenario::ScenarioReport&)> bad[] = {
      {"short hash",
       [](scenario::ScenarioReport& r) { r.records[0].scenario_hash.pop_back(); }},
      {"uppercase hash",
       [](scenario::ScenarioReport& r) {
         r.records[0].scenario_hash = "0123456789ABCDEF";
       }},
      {"digest", [](scenario::ScenarioReport& r) { r.records[1].digest = "x"; }},
      {"order",
       [](scenario::ScenarioReport& r) { std::swap(r.records[0], r.records[1]); }},
  };
  for (const auto& [what, mutate] : bad) {
    auto r = report;
    mutate(r);
    std::istringstream in(serialized(r));
    EXPECT_THROW((void)scenario::read_scenario_report(in), util::Error)
        << what;
  }
}

TEST(ScenarioReport, CountsAtOrAbove2To53AreRejectedByName) {
  scenario::ScenarioReport r;
  r.corpus = "c";
  scenario::ScenarioRecord rec;
  rec.name = "a";
  rec.scenario_hash = "0123456789abcdef";
  rec.digest = "sched=1";
  rec.simulated = true;
  rec.trace_events = (std::uint64_t{1} << 53) - 1;
  r.records.push_back(rec);
  std::istringstream ok(serialized(r));
  EXPECT_EQ(scenario::read_scenario_report(ok).records[0].trace_events,
            rec.trace_events);
  for (const std::uint64_t n : {std::uint64_t{1} << 53,
                                (std::uint64_t{1} << 53) + 1}) {
    r.records[0].trace_events = n;
    std::istringstream in(serialized(r));
    try {
      (void)scenario::read_scenario_report(in);
      ADD_FAILURE() << "trace_events " << n << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("'trace_events'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioReport, MergeRejectsOverlappingShardsAndForeignCorpora) {
  auto a = scenario::run_matrix(corpus_config(2)).report;
  EXPECT_THROW((void)scenario::merge_scenario_reports({a, a}), util::Error);
  auto b = a;
  b.corpus = "elsewhere";
  b.records.clear();
  EXPECT_THROW((void)scenario::merge_scenario_reports({a, b}), util::Error);
}

// ---------------------------------------------------------------------------
// Output-path regressions: artifact writers must fail loudly

TEST(OutputPaths, WritersThrowForAMissingDirectoryInsteadOfSilentSuccess) {
  const std::string missing = testing::TempDir() + "/vc2m_no_such_dir/x.json";
  EXPECT_THROW(obs::json::write_file(missing, scenario::ScenarioReport{},
                                    "scenario report"),
               util::Error);
  EXPECT_THROW(obs::write_trace_file(missing, {}, {}), util::Error);
  EXPECT_THROW(util::ensure_output_path_writable(missing, "probe"),
               util::Error);
  try {
    util::ensure_output_path_writable(missing, "probe");
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot open probe"), std::string::npos) << what;
    EXPECT_NE(what.find(missing), std::string::npos) << what;
  }
}

TEST(OutputPaths, WritableProbeLeavesNoStrayFileBehind) {
  // The probe must not manufacture an empty artifact: a command that
  // fails after the probe (e.g. a scenario load error) would otherwise
  // leave a zero-byte output where the user expected nothing.
  const std::string path = testing::TempDir() + "/vc2m_probe_fresh.json";
  std::remove(path.c_str());
  util::ensure_output_path_writable(path, "probe");
  EXPECT_FALSE(std::filesystem::exists(path))
      << "probe left an empty file behind";
}

TEST(OutputPaths, WritableProbeDoesNotClobberAnExistingFile) {
  const std::string path = testing::TempDir() + "/vc2m_probe_keep.json";
  {
    std::ofstream out(path);
    out << "precious";
  }
  util::ensure_output_path_writable(path, "probe");
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "precious");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vc2m

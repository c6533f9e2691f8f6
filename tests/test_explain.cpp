// Decision-log and explain-report suite.
//
// Pins the three guarantees the provenance layer makes:
//  1. Recording never perturbs the engine — the golden digests of
//     tests/golden/engine.golden reproduce bit-identically with a
//     DecisionLogScope open (the golden file was captured without one).
//  2. The merged event stream of a parallel experiment is bit-identical at
//     any --jobs count (serial per-work-item merge, like AllocCounters).
//  3. `vc2m explain` on an infeasible profile names a binding constraint
//     and a positive numeric margin for every rejected VM, and the JSON
//     artifact round-trips byte-identically through the strict reader.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/strategy.h"
#include "golden_util.h"
#include "model/platform.h"
#include "obs/decision_log.h"
#include "obs/explain.h"
#include "util/error.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace vc2m;
using namespace vc2m::golden;

model::Taskset generated(double util, int vms, std::uint64_t seed,
                         const model::PlatformSpec& platform) {
  workload::GeneratorConfig gen;
  gen.grid = platform.grid;
  gen.target_ref_utilization = util;
  gen.num_vms = vms;
  util::Rng rng(seed);
  return workload::generate_taskset(gen, rng);
}

// ------------------------------------------------------------- the log ----

TEST(DecisionLog, BoundedEmitCountsDrops) {
  obs::DecisionLog log(2);
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kVerdict;
  log.emit(e);
  log.emit(e);
  log.emit(e);
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);

  obs::DecisionLog other(8);
  other.append(log);
  EXPECT_EQ(other.events().size(), 2u);
  EXPECT_EQ(other.dropped(), 1u);
}

TEST(DecisionLog, ScopeMergesIntoEnclosingScope) {
  obs::DecisionLogScope outer;
  {
    obs::DecisionLogScope inner;
    obs::DecisionEvent e;
    e.kind = obs::DecisionKind::kSolveBegin;
    e.accepted = true;
    obs::decision_log()->emit(e);
    EXPECT_EQ(inner.log().events().size(), 1u);
    EXPECT_TRUE(outer.log().events().empty());
  }
  ASSERT_EQ(outer.log().events().size(), 1u);
  EXPECT_EQ(outer.log().events()[0].kind, obs::DecisionKind::kSolveBegin);
}

TEST(DecisionLog, NamesRoundTripThroughStrings) {
  for (int k = 0; k <= static_cast<int>(obs::DecisionKind::kVerdict); ++k) {
    const auto kind = static_cast<obs::DecisionKind>(k);
    obs::DecisionKind back{};
    ASSERT_TRUE(obs::decision_kind_from_string(obs::to_string(kind), back))
        << "kind " << k;
    EXPECT_EQ(back, kind);
  }
  for (int c = 0;
       c <= static_cast<int>(obs::DecisionConstraint::kNoFeasiblePartition);
       ++c) {
    const auto constraint = static_cast<obs::DecisionConstraint>(c);
    obs::DecisionConstraint back{};
    ASSERT_TRUE(
        obs::decision_constraint_from_string(obs::to_string(constraint), back))
        << "constraint " << c;
    EXPECT_EQ(back, constraint);
  }
  obs::DecisionKind k{};
  EXPECT_FALSE(obs::decision_kind_from_string("not_a_kind", k));
  obs::DecisionConstraint c{};
  EXPECT_FALSE(obs::decision_constraint_from_string("not_a_constraint", c));
}

// ------------------------------------------- verdicts are never perturbed ----

TEST(DecisionRecording, GoldenSolveDigestsBitIdenticalWithRecordingOn) {
  const GoldenFile g = load_golden();
  ASSERT_TRUE(g.loaded) << "golden file missing: " << kGoldenFile;

  obs::DecisionLogScope scope;
  const auto lines = solve_lines();
  expect_lines_equal(g.solve, lines, "solve(recording on)");
  // The scope must actually have recorded the solves it watched — a silent
  // no-op recorder would make this whole suite vacuous.
  EXPECT_GT(scope.log().events().size(), 100u);
}

core::ExperimentConfig small_sweep(int jobs) {
  core::ExperimentConfig cfg;
  cfg.platform = model::PlatformSpec::A();
  cfg.util_lo = 0.4;
  cfg.util_hi = 1.2;
  cfg.util_step = 0.4;
  cfg.tasksets_per_point = 2;
  cfg.seed = 20260808;
  cfg.jobs = jobs;
  cfg.solutions = {"ovf", "even"};
  return cfg;
}

TEST(DecisionRecording, ExperimentEventStreamBitIdenticalAcrossJobs) {
  std::vector<std::vector<obs::DecisionEvent>> streams;
  for (const int jobs : {1, 2, 8}) {
    obs::DecisionLogScope scope;
    (void)core::run_schedulability_experiment(small_sweep(jobs));
    streams.push_back(scope.log().events());
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]) << "--jobs 2 diverged from --jobs 1";
  EXPECT_EQ(streams[0], streams[2]) << "--jobs 8 diverged from --jobs 1";
}

// ------------------------------------------------------------ explain ----

TEST(Explain, InfeasibleProfileNamesBindingConstraintPerVm) {
  const auto platform = model::PlatformSpec::A();
  const auto tasks = generated(3.5, 3, 9, platform);
  const auto& strat = core::StrategyRegistry::instance().require("ovf");
  util::Rng rng(42);
  core::SolveResult result;
  const auto report =
      obs::explain_solve(strat, tasks, platform, {}, rng, &result);

  ASSERT_FALSE(result.schedulable);
  EXPECT_FALSE(report.schedulable);
  ASSERT_EQ(report.rejections.size(), 3u);  // one entry per VM
  for (const auto& rej : report.rejections) {
    EXPECT_NE(rej.constraint, obs::DecisionConstraint::kNone)
        << "VM " << rej.vm << " has no binding constraint";
    EXPECT_GT(rej.margin, 0.0) << "VM " << rej.vm << " has no numeric margin";
    EXPECT_FALSE(rej.detail.empty());
  }
  EXPECT_FALSE(report.events.empty());
  EXPECT_EQ(report.events_dropped, 0u);
}

TEST(Explain, FeasibleProfileReportsConsistentHeadroom) {
  const auto platform = model::PlatformSpec::A();
  const auto tasks = generated(0.8, 2, 7, platform);
  const auto& strat = core::StrategyRegistry::instance().require("ovf");
  util::Rng rng(42);
  core::SolveResult result;
  const auto report =
      obs::explain_solve(strat, tasks, platform, {}, rng, &result);

  ASSERT_TRUE(result.schedulable);
  EXPECT_TRUE(report.rejections.empty());
  ASSERT_EQ(report.headroom.cores.size(), result.mapping.cores_used);
  unsigned used_cache = 0, used_bw = 0;
  for (const auto& c : report.headroom.cores) {
    EXPECT_LE(c.utilization, 1.0);
    EXPECT_NEAR(c.slack, 1.0 - c.utilization, 1e-12);
    EXPECT_LE(c.reclaimable_cache, c.cache);
    EXPECT_LE(c.reclaimable_bw, c.bw);
    used_cache += c.cache;
    used_bw += c.bw;
  }
  EXPECT_EQ(report.headroom.spare_cache, platform.total_cache() - used_cache);
  EXPECT_EQ(report.headroom.spare_bw, platform.total_bw() - used_bw);
}

TEST(Explain, SolveResultBitIdenticalWithAndWithoutRecording) {
  const auto platform = model::PlatformSpec::A();
  const auto tasks = generated(1.0, 2, 11, platform);
  const auto& strat = core::StrategyRegistry::instance().require("flat");

  util::Rng bare_rng(5);
  const auto bare = core::solve(strat, tasks, platform, {}, bare_rng);

  util::Rng rec_rng(5);
  core::SolveResult recorded;
  (void)obs::explain_solve(strat, tasks, platform, {}, rec_rng, &recorded);

  EXPECT_EQ(scenario::solve_digest(bare), scenario::solve_digest(recorded));
}

TEST(Explain, JsonRoundTripIsByteIdentical) {
  const auto platform = model::PlatformSpec::C();
  const auto tasks = generated(2.5, 2, 3, platform);
  const auto& strat = core::StrategyRegistry::instance().require("even");
  util::Rng rng(1);
  const auto report = obs::explain_solve(strat, tasks, platform, {}, rng);

  std::ostringstream first;
  obs::write_explain_report(first, report);
  std::istringstream in(first.str());
  const auto reread = obs::read_explain_report(in);
  std::ostringstream second;
  obs::write_explain_report(second, reread);
  EXPECT_EQ(first.str(), second.str());

  EXPECT_EQ(reread.schema, report.schema);
  EXPECT_EQ(reread.strategy, report.strategy);
  EXPECT_EQ(reread.schedulable, report.schedulable);
  EXPECT_EQ(reread.cores_used, report.cores_used);
  EXPECT_EQ(reread.rejections.size(), report.rejections.size());
  EXPECT_EQ(reread.headroom.cores.size(), report.headroom.cores.size());
  // The JSON carries doubles at %.9g, so identity fields must survive
  // exactly and the numeric fields to nine significant digits.
  ASSERT_EQ(reread.events.size(), report.events.size());
  for (std::size_t i = 0; i < report.events.size(); ++i) {
    const auto& a = report.events[i];
    const auto& b = reread.events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.accepted, b.accepted) << "event " << i;
    EXPECT_EQ(a.constraint, b.constraint) << "event " << i;
    EXPECT_EQ(a.vm, b.vm) << "event " << i;
    EXPECT_EQ(a.entity, b.entity) << "event " << i;
    EXPECT_EQ(a.core, b.core) << "event " << i;
    EXPECT_EQ(a.cache, b.cache) << "event " << i;
    EXPECT_EQ(a.bw, b.bw) << "event " << i;
    EXPECT_NEAR(a.value, b.value, 1e-8 * (1.0 + std::abs(a.value)))
        << "event " << i;
    EXPECT_NEAR(a.margin, b.margin, 1e-8 * (1.0 + std::abs(a.margin)))
        << "event " << i;
  }
}

TEST(Explain, ReaderRejectsForeignSchemaAndUnknownNames) {
  // Complete reports but for the one defect, each refused by name.
  const auto refused = [](const std::string& text, const char* why) {
    std::istringstream in(text);
    try {
      (void)obs::read_explain_report(in);
      ADD_FAILURE() << why << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  refused(R"({"schema": "vc2m-bench-report/1", "strategy": "x",
              "git_rev": "y", "config": {}, "schedulable": false,
              "cores_used": 0,
              "headroom": {"spare_cache": 0, "spare_bw": 0, "cores": []},
              "rejections": [], "events_dropped": 0, "events": []})",
          "vc2m-bench-report/1");
  refused(R"({"schema": "vc2m-explain-report/1", "strategy": "x",
              "git_rev": "y", "config": {}, "schedulable": false,
              "cores_used": 0,
              "headroom": {"spare_cache": 0, "spare_bw": 0, "cores": []},
              "rejections": [], "events_dropped": 0,
              "events": [{"kind": "warp_drive", "accepted": true,
                          "constraint": "none", "vm": -1, "entity": -1,
                          "core": -1, "cache": -1, "bw": -1,
                          "value": 0, "margin": 0}]})",
          "warp_drive");
}

}  // namespace

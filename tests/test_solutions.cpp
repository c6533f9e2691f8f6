#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/strategy.h"
#include "generated.h"
#include "model/platform.h"
#include "solution_index.h"
#include "util/error.h"
#include "util/rng.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::Taskset;
using tests::generated;
using tests::SolutionIndex;
using util::Rng;

const std::string& display(const std::string& key) {
  return StrategyRegistry::instance().require(key).display;
}

TEST(Solutions, NamesMatchThePaperLegend) {
  EXPECT_EQ(display("flat"), "Heuristic (flattening)");
  EXPECT_EQ(display("baseline"), "Baseline (existing CSA)");
  EXPECT_EQ(default_solution_keys().size(), 5u);
}

class AllSolutionsTest : public ::testing::TestWithParam<SolutionIndex> {};

TEST_P(AllSolutionsTest, LightWorkloadIsSchedulableEverywhere) {
  const auto ts = generated(0.25, 2);
  Rng rng(3);
  const auto& s = GetParam().strategy();
  const auto res = solve(s, ts, PlatformSpec::A(), {}, rng);
  EXPECT_TRUE(res.schedulable) << s.display;
  EXPECT_GE(res.seconds, 0.0);
}

TEST_P(AllSolutionsTest, ObviouslyImpossibleWorkloadFailsEverywhere) {
  const auto ts = generated(4.5, 4);
  Rng rng(5);
  const auto& s = GetParam().strategy();
  const auto res = solve(s, ts, PlatformSpec::A(), {}, rng);
  EXPECT_FALSE(res.schedulable) << s.display;
}

TEST_P(AllSolutionsTest, SchedulableResultHasConsistentMapping) {
  const auto ts = generated(0.9, 6);
  Rng rng(7);
  const auto res = solve(GetParam().strategy(), ts, PlatformSpec::A(), {}, rng);
  if (!res.schedulable) return;
  ASSERT_FALSE(res.vcpus.empty());
  std::size_t placed = 0;
  for (const auto& core : res.mapping.vcpus_on_core) placed += core.size();
  EXPECT_EQ(placed, res.vcpus.size());
}

constexpr const char* kInstanceNames[] = {
    "HeuristicFlattening", "HeuristicOverheadFree", "HeuristicExistingCsa",
    "EvenPartition", "Baseline"};

INSTANTIATE_TEST_SUITE_P(
    FiveSolutions, AllSolutionsTest,
    ::testing::Values(SolutionIndex{0}, SolutionIndex{1}, SolutionIndex{2},
                      SolutionIndex{3}, SolutionIndex{4}),
    [](const auto& info) { return kInstanceNames[info.param.index]; });

TEST(Solutions, Vc2mSchedulesWorkloadsTheBaselineCannot) {
  // The headline claim: at moderate utilization the baseline collapses
  // under abstraction overhead + worst-case WCETs while vC2M succeeds.
  int flattening = 0, baseline = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto ts = generated(1.0, 100 + seed);
    Rng r1(seed), r2(seed);
    flattening +=
        solve("flat", ts, PlatformSpec::A(), {}, r1)
            .schedulable;
    baseline +=
        solve("baseline", ts, PlatformSpec::A(), {}, r2)
            .schedulable;
  }
  EXPECT_GT(flattening, baseline);
  EXPECT_GE(flattening, 6);  // vC2M handles util 1.0 comfortably (Fig. 2a)
}

TEST(Solutions, MultiVmWorkloadsSupported) {
  const auto ts = generated(0.8, 9, /*vms=*/3);
  Rng rng(10);
  const auto res =
      solve("ovf", ts, PlatformSpec::A(), {}, rng);
  EXPECT_TRUE(res.schedulable);
  for (const auto& v : res.vcpus)
    for (const auto t : v.tasks) EXPECT_EQ(ts[t].vm, v.vm);
}

TEST(Solutions, BaselineBudgetsIgnoreResources) {
  const auto ts = generated(0.4, 11);
  Rng rng(12);
  const auto res =
      solve("baseline", ts, PlatformSpec::A(), {}, rng);
  for (const auto& v : res.vcpus) {
    const auto& g = v.budget.grid();
    EXPECT_EQ(v.budget.at(g.c_min, g.b_min), v.budget.at(g.c_max, g.b_max));
  }
}

// ------------------------------------------------------------ registry ----

TEST(StrategyRegistry, FiveSolutionsAreRegisteredUnderTheirCliKeys) {
  auto& reg = StrategyRegistry::instance();
  for (const auto& key : default_solution_keys()) {
    const Strategy* s = reg.find(key);
    ASSERT_NE(s, nullptr) << key;
    EXPECT_EQ(s->key, key);
    EXPECT_NE(s->vm, nullptr);
    EXPECT_NE(s->hv, nullptr);
    EXPECT_FALSE(s->vm->name().empty());
    EXPECT_FALSE(s->hv->name().empty());
  }
  EXPECT_EQ(default_solution_keys().size(), 5u);
}

TEST(StrategyRegistry, EnumAndKeyLookupsAgree) {
  // The paper's legend order: the registry's first five entries are the
  // default keys, in the same order.
  const auto all = StrategyRegistry::instance().all();
  ASSERT_GE(all.size(), default_solution_keys().size());
  for (std::size_t i = 0; i < default_solution_keys().size(); ++i)
    EXPECT_EQ(all[i]->key, default_solution_keys()[i]);
  EXPECT_EQ(default_solution_keys()[1], "ovf");
  EXPECT_EQ(display("even"), "Evenly-partition (overhead-free CSA)");
}

TEST(StrategyRegistry, UnknownKeyDiesWithKnownKeyList) {
  auto& reg = StrategyRegistry::instance();
  EXPECT_EQ(reg.find("no-such-strategy"), nullptr);
  try {
    reg.require("no-such-strategy");
    FAIL() << "require() should have thrown";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("flat"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("baseline"), std::string::npos);
  }
}

TEST(StrategyRegistry, SharedPoliciesComposeDistinctStrategies) {
  auto& reg = StrategyRegistry::instance();
  // The three heuristic solutions share one HV policy but differ at the
  // VM level; the two comparison solutions share the even-partition HV.
  EXPECT_EQ(reg.require("flat").hv, reg.require("ovf").hv);
  EXPECT_EQ(reg.require("even").hv, reg.require("baseline").hv);
  EXPECT_NE(reg.require("flat").vm, reg.require("ovf").vm);
  // The exact-search yardstick reuses the regulated VM level.
  EXPECT_EQ(reg.require("exact-ovf").vm, reg.require("ovf").vm);
  EXPECT_NE(reg.require("exact-ovf").hv, reg.require("ovf").hv);
}

TEST(StrategyRegistry, OnlyFlatteningSynchronizesReleases) {
  auto& reg = StrategyRegistry::instance();
  EXPECT_TRUE(reg.require("flat").vm->release_sync());
  for (const char* key : {"ovf", "existing", "even", "baseline"})
    EXPECT_FALSE(reg.require(key).vm->release_sync()) << key;
}

TEST(StrategyRegistry, SolveByKeyMatchesSolveByEnum) {
  const auto ts = generated(0.7, 21);
  Rng r1(22), r2(22);
  const auto by_enum = solve(StrategyRegistry::instance().require("ovf"), ts,
                             PlatformSpec::A(), {}, r1);
  const auto by_key = solve("ovf", ts, PlatformSpec::A(), {}, r2);
  EXPECT_EQ(by_enum.schedulable, by_key.schedulable);
  ASSERT_EQ(by_enum.vcpus.size(), by_key.vcpus.size());
  EXPECT_EQ(by_enum.mapping.vcpus_on_core, by_key.mapping.vcpus_on_core);
  EXPECT_EQ(by_enum.mapping.cache, by_key.mapping.cache);
  EXPECT_EQ(by_enum.mapping.bw, by_key.mapping.bw);
}

TEST(StrategyRegistry, RegisteredStrategyWorksInSolveAndExperiment) {
  // A downstream composition: regulated VM level + even-partition HV.
  auto& reg = StrategyRegistry::instance();
  if (!reg.find("test-ovf-even"))
    reg.add({"test-ovf-even", "Test (ovf VMs, even partitions)",
             "test-only composition", reg.require("ovf").vm,
             reg.require("even").hv});
  const auto ts = generated(0.3, 30);
  Rng rng(31);
  const auto res = solve("test-ovf-even", ts, PlatformSpec::A(), {}, rng);
  EXPECT_TRUE(res.schedulable);

  ExperimentConfig cfg;
  cfg.platform = PlatformSpec::A();
  cfg.util_lo = 0.3;
  cfg.util_hi = 0.3;
  cfg.util_step = 0.1;
  cfg.tasksets_per_point = 2;
  cfg.solutions = {"test-ovf-even"};
  cfg.seed = 8;
  const auto result = run_schedulability_experiment(cfg);
  ASSERT_EQ(result.points.size(), 1u);
  std::ostringstream os;
  result.to_table().print(os);
  EXPECT_NE(os.str().find("Test (ovf VMs, even partitions)"),
            std::string::npos);
}

TEST(StrategyRegistry, RejectsDuplicateAndMalformedRegistrations) {
  auto& reg = StrategyRegistry::instance();
  const auto& ovf = reg.require("ovf");
  EXPECT_THROW(reg.add({"ovf", "dup", "", ovf.vm, ovf.hv}), util::Error);
  EXPECT_THROW(reg.add({"", "anon", "", ovf.vm, ovf.hv}), util::Error);
  EXPECT_THROW(reg.add({"half", "no hv", "", ovf.vm, nullptr}), util::Error);
}

// ---------------------------------------------------------- experiment ----

TEST(Experiment, SmallSweepProducesOrderedFractions) {
  ExperimentConfig cfg;
  cfg.platform = PlatformSpec::A();
  cfg.util_lo = 0.4;
  cfg.util_hi = 1.2;
  cfg.util_step = 0.4;
  cfg.tasksets_per_point = 6;
  cfg.seed = 99;
  const auto result = run_schedulability_experiment(cfg);
  ASSERT_EQ(result.points.size(), 3u);
  for (const auto& pt : result.points) {
    ASSERT_EQ(pt.per_solution.size(), 5u);
    for (const auto& sp : pt.per_solution) {
      EXPECT_EQ(sp.total, 6);
      EXPECT_GE(sp.fraction(), 0.0);
      EXPECT_LE(sp.fraction(), 1.0);
    }
  }
  // At 0.4 every solution should do well; flattening at least as well as
  // the baseline at every point.
  for (const auto& pt : result.points)
    EXPECT_GE(pt.per_solution[0].fraction() + 1e-12,
              pt.per_solution[4].fraction());
}

TEST(Experiment, BreakdownUtilizationIsMonotoneInThreshold) {
  ExperimentConfig cfg;
  cfg.platform = PlatformSpec::A();
  cfg.util_lo = 0.3;
  cfg.util_hi = 0.9;
  cfg.util_step = 0.3;
  cfg.tasksets_per_point = 4;
  cfg.solutions = {"flat"};
  cfg.seed = 7;
  const auto result = run_schedulability_experiment(cfg);
  EXPECT_GE(result.breakdown_utilization(0, 0.5),
            result.breakdown_utilization(0, 0.999));
}

TEST(Experiment, TableHasHeaderAndAllRows) {
  ExperimentConfig cfg;
  cfg.platform = PlatformSpec::A();
  cfg.util_lo = 0.5;
  cfg.util_hi = 0.5;
  cfg.util_step = 0.1;
  cfg.tasksets_per_point = 2;
  cfg.solutions = {"ovf", "baseline"};
  cfg.seed = 3;
  const auto result = run_schedulability_experiment(cfg);
  std::ostringstream os;
  result.to_table().print(os);
  EXPECT_NE(os.str().find("0.50"), std::string::npos);
  EXPECT_NE(os.str().find("Baseline (existing CSA)"), std::string::npos);
}

TEST(Experiment, ProgressCallbackInvokedPerPoint) {
  ExperimentConfig cfg;
  cfg.platform = PlatformSpec::A();
  cfg.util_lo = 0.2;
  cfg.util_hi = 0.6;
  cfg.util_step = 0.2;
  cfg.tasksets_per_point = 1;
  cfg.solutions = {"flat"};
  cfg.seed = 5;
  int calls = 0;
  run_schedulability_experiment(cfg, [&](int done, int total) {
    ++calls;
    EXPECT_EQ(total, 3);
    EXPECT_EQ(done, calls);
  });
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace vc2m::core

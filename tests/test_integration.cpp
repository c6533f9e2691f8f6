// End-to-end validation: workloads generated per §5.1 are allocated by the
// paper's solutions and then *executed* on the simulated prototype; a
// mapping the analysis certifies must produce zero deadline misses.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/strategy.h"
#include "generated.h"
#include "model/platform.h"
#include "obs/audit.h"
#include "obs/trace_check.h"
#include "sim/deploy.h"
#include "sim/profiling.h"
#include "sim/simulation.h"
#include "solution_index.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m {
namespace {

using tests::generated;
using tests::SolutionIndex;
using util::Rng;
using util::Time;

/// No scheduling invariant (single occupancy, no execution while
/// throttled, budget compliance, release / completion matching) is broken.
void expect_clean(const obs::TraceCheckResult& res) {
  EXPECT_TRUE(res.ok()) << (res.violations.empty() ? res.summary()
                                                   : res.violations[0].what);
}

/// `res`, an allocation `strat` certified, audits clean: no deadline miss,
/// jobs done, a clean trace. Theorem 1 certifies Flat only with task and
/// VCPU releases in lockstep, so its audit issues one release-sync
/// hypercall per task and every other solution's none.
void expect_audits_clean(const core::Strategy& strat,
                         const model::Taskset& tasks,
                         const model::PlatformSpec& platform,
                         const core::SolveResult& res, int hyperperiods) {
  obs::AuditConfig cfg;
  cfg.hyperperiods = hyperperiods;
  const auto a = obs::audit(strat, tasks, platform, res, cfg);
  EXPECT_EQ(a.stats.deadline_misses, 0u) << strat.key;
  EXPECT_GT(a.stats.jobs_completed, 0u);
  expect_clean(a.check);
  EXPECT_EQ(static_cast<std::size_t>(std::ranges::count(
                a.events, sim::TraceKind::kHypercall, &sim::TraceEvent::kind)),
            strat.key == "flat" ? tasks.size() : 0u)
      << strat.key;
}

// ---------------- certified mappings execute without misses ----------------

class CertifiedExecutionTest
    : public ::testing::TestWithParam<std::tuple<SolutionIndex, int>> {};

TEST_P(CertifiedExecutionTest, NoDeadlineMissesUnderCpuOnlyExecution) {
  const auto [index, seed] = GetParam();
  const auto& strat = core::StrategyRegistry::instance().require(index.key());
  const auto platform = model::PlatformSpec::A();
  // The instance's taskset is generated at the highest reference
  // utilization of 0.9, 0.8, ..., 0.1 at which the solution certifies it
  // (the pessimistic Existing and Baseline analyses reject some at 0.9).
  for (int tenths = 9; tenths >= 1; --tenths) {
    const auto tasks =
        generated(tenths / 10.0, 100 + static_cast<std::uint64_t>(seed));
    Rng rng(200 + static_cast<std::uint64_t>(seed));
    const auto res = core::solve(strat, tasks, platform, {}, rng);
    if (!res.schedulable) continue;
    expect_audits_clean(strat, tasks, platform, res, 2);
    return;
  }
  FAIL() << strat.key << " certifies no utilization for seed " << seed;
}

constexpr const char* kInstanceNames[] = {"Flat", "OvfFree", "Existing",
                                          "Even", "Baseline"};

INSTANTIATE_TEST_SUITE_P(
    SolutionsBySeeds, CertifiedExecutionTest,
    ::testing::Combine(::testing::Values(SolutionIndex{0}, SolutionIndex{1},
                                         SolutionIndex{2}, SolutionIndex{3},
                                         SolutionIndex{4}),
                       ::testing::Range(0, 4)),
    [](const auto& info) {
      return kInstanceNames[std::get<0>(info.param).index] +
             std::string("_seed") + std::to_string(std::get<1>(info.param));
    });

TEST(CertifiedExecution, MultiVmWorkloadRunsClean) {
  const auto& strat = core::StrategyRegistry::instance().require("ovf");
  const auto platform = model::PlatformSpec::B();
  const auto tasks = generated(1.2, 7, /*vms=*/3);
  Rng rng(8);
  const auto res = core::solve(strat, tasks, platform, {}, rng);
  ASSERT_TRUE(res.schedulable);
  expect_audits_clean(strat, tasks, platform, res, 2);
}

// --------------------------------------- analysis vs execution coherence ----

class AnalysisVsExecutionTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalysisVsExecutionTest, CertifiedImpliesNoMisses) {
  const auto platform = model::PlatformSpec::A();
  const auto& keys = core::default_solution_keys();
  const auto& strat = core::StrategyRegistry::instance().require(
      keys[GetParam() % keys.size()]);
  // The instance's input comes from the first seed of 11000 + p,
  // 11100 + p, 11200 + p, ... whose taskset the solution certifies (the
  // Existing analysis rejects the first draws of some instances).
  const auto p = static_cast<std::uint64_t>(GetParam());
  for (std::uint64_t seed = 11'000 + p; seed < 12'000; seed += 100) {
    Rng rng(seed);
    workload::GeneratorConfig gen;
    gen.grid = platform.grid;
    gen.target_ref_utilization = rng.uniform(0.5, 1.6);
    const auto tasks = workload::generate_taskset(gen, rng);
    Rng solve_rng = rng.fork();
    const auto res = core::solve(strat, tasks, platform, {}, solve_rng);
    if (!res.schedulable) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_audits_clean(strat, tasks, platform, res, 3);
    return;
  }
  FAIL() << strat.key << " certifies none of the instance's seeds";
}

INSTANTIATE_TEST_SUITE_P(Random, AnalysisVsExecutionTest,
                         ::testing::Range(0, 15));

// ---------------------------------- DES mechanics on raw deployments ----

TEST(CertifiedExecution, FlatteningWithReleaseSyncAndTaskOffsets) {
  // Theorem 1 end to end: tasks with non-zero first releases; the
  // hypercall-based synchronization keeps every VCPU aligned to its task.
  const auto platform = model::PlatformSpec::A();
  auto tasks = generated(0.7, 9);
  Rng rng(10);
  const auto res = core::solve("flat", tasks, platform, {}, rng);
  ASSERT_TRUE(res.schedulable);

  sim::DeployConfig dc;
  dc.release_sync = true;
  dc.capture_trace = true;
  auto cfg = sim::deploy(tasks, res.vcpus, res.mapping, platform, dc);
  // Stagger the task releases; the VCPUs must follow via hypercalls.
  Rng offsets(11);
  for (auto& t : cfg.tasks)
    t.offset = Time::ms(offsets.uniform_int(0, 50));
  sim::Simulation simulation(cfg);
  // Two hyperperiods (harmonic => the largest period) past the offsets.
  const Time horizon = model::hyperperiod(tasks) * 2 + Time::ms(100);
  simulation.run(horizon);
  EXPECT_EQ(simulation.stats().deadline_misses, 0u);
  EXPECT_GE(simulation.trace().count(sim::TraceKind::kHypercall),
            tasks.size());
  expect_clean(obs::check_trace(simulation.trace().events(),
                                obs::TraceCheckConfig::from_sim(cfg, horizon)));
}

TEST(CertifiedExecution, DeployRejectsUnschedulableMapping) {
  const auto tasks = generated(0.5, 12);
  core::HvAllocResult bogus;  // schedulable == false
  EXPECT_THROW(sim::deploy(tasks, {}, bogus, model::PlatformSpec::A(), {}),
               util::Error);
}

// ------------- physical execution with sim-profiled surfaces ---------------

TEST(PhysicalExecution, ProfiledSurfacesCertifyAndRunClean) {
  // Tiny platform so the full profiling sweep stays fast: 2 cores, 4 cache
  // partitions, 3 bandwidth partitions.
  model::PlatformSpec platform;
  platform.name = "tiny";
  platform.cores = 2;
  platform.grid = model::ResourceGrid{2, 4, 1, 3};

  sim::ProfilingConfig pc;
  pc.cache_partitions = platform.grid.c_max;
  pc.jobs = 6;

  const char* benchmarks[] = {"swaptions", "ferret", "bodytrack"};
  model::Taskset tasks;
  std::vector<sim::WorkloadModel> workloads;
  const Time periods[] = {Time::ms(100), Time::ms(200), Time::ms(200)};
  const Time refs[] = {Time::ms(20), Time::ms(10), Time::ms(15)};
  for (int i = 0; i < 3; ++i) {
    const auto w = sim::workload_from_profile(
        workload::find_profile(benchmarks[i]), refs[i], pc);
    model::Task t;
    t.period = periods[i];
    t.wcet = sim::profile_surface(w, platform.grid, pc);  // §5.1 methodology
    t.max_wcet = t.wcet.at(platform.grid.c_min, platform.grid.b_min) * 2;
    t.label = benchmarks[i];
    tasks.push_back(std::move(t));
    workloads.push_back(w);
  }

  Rng rng(13);
  // Solo profiling cannot see cross-core bus bursts within a regulation
  // period; the paper's §4.1 Remarks account for such residual intra-core
  // overheads by inflating task WCETs before allocation. A few regulation
  // periods of margin cover the boundary effects here.
  core::SolveConfig sc;
  sc.task_inflation = Time::ms(3);
  const auto res = core::solve("flat", tasks, platform, sc, rng);
  ASSERT_TRUE(res.schedulable);

  sim::DeployConfig dc;
  dc.exec = sim::ExecModel::kPhysical;
  dc.workloads = workloads;
  dc.requests_per_partition = pc.requests_per_partition;
  dc.regulation_period = pc.regulation_period;
  dc.capture_trace = true;
  sim::Simulation simulation(
      sim::deploy(tasks, res.vcpus, res.mapping, platform, dc));
  simulation.run(Time::sec(2));
  const auto stats = simulation.stats();
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_GT(stats.jobs_completed, 10u);
  expect_clean(obs::check_trace(
      simulation.trace().events(),
      obs::TraceCheckConfig::from_sim(simulation.config(), Time::sec(2))));
}

}  // namespace
}  // namespace vc2m

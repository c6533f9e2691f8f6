// End-to-end validation: workloads generated per §5.1 are allocated by the
// paper's solutions and then *executed* on the simulated prototype; a
// mapping the analysis certifies must produce zero deadline misses.
#include <gtest/gtest.h>

#include <tuple>

#include "core/strategy.h"
#include "model/platform.h"
#include "obs/trace_check.h"
#include "sim/deploy.h"
#include "sim/profiling.h"
#include "sim/simulation.h"
#include "solution_index.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m {
namespace {

using tests::SolutionIndex;
using util::Rng;
using util::Time;

model::Taskset generated(double util, std::uint64_t seed, int vms = 1) {
  workload::GeneratorConfig cfg;
  cfg.grid = model::PlatformSpec::A().grid;
  cfg.target_ref_utilization = util;
  cfg.num_vms = vms;
  Rng rng(seed);
  return workload::generate_taskset(cfg, rng);
}

Time sim_horizon(const model::Taskset& tasks) {
  // Two hyperperiods (harmonic => the largest period) of steady state.
  return model::hyperperiod(tasks) * 2;
}

/// Every captured trace must satisfy the scheduling invariants (single
/// occupancy, no execution while throttled, budget compliance, release /
/// completion matching).
void expect_trace_invariants(const sim::Simulation& simulation,
                             Time horizon) {
  const auto res = obs::check_trace(
      simulation.trace().events(),
      obs::TraceCheckConfig::from_sim(simulation.config(), horizon));
  EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                ? res.summary()
                                : res.violations[0].what);
}

// ---------------- certified mappings execute without misses ----------------

class CertifiedExecutionTest
    : public ::testing::TestWithParam<std::tuple<SolutionIndex, int>> {};

TEST_P(CertifiedExecutionTest, NoDeadlineMissesUnderCpuOnlyExecution) {
  const auto [index, seed] = GetParam();
  const std::string& solution = index.key();
  const auto platform = model::PlatformSpec::A();
  const auto tasks = generated(0.9, 100 + static_cast<std::uint64_t>(seed));
  Rng rng(200 + static_cast<std::uint64_t>(seed));
  const auto res = core::solve(solution, tasks, platform, {}, rng);
  if (!res.schedulable) GTEST_SKIP() << "not certified for this seed";

  sim::DeployConfig dc;
  dc.exec = sim::ExecModel::kCpuOnly;
  dc.capture_trace = true;
  sim::Simulation simulation(
      sim::deploy(tasks, res.vcpus, res.mapping, platform, dc));
  simulation.run(sim_horizon(tasks));
  const auto stats = simulation.stats();
  EXPECT_EQ(stats.deadline_misses, 0u) << solution;
  EXPECT_GT(stats.jobs_completed, 0u);
  expect_trace_invariants(simulation, sim_horizon(tasks));
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
  const auto platform = model::PlatformSpec::B();
  const auto tasks = generated(1.2, 7, /*vms=*/3);
  Rng rng(8);
  const auto res = core::solve("ovf", tasks, platform, {}, rng);
  ASSERT_TRUE(res.schedulable);
  sim::DeployConfig dc;
  dc.capture_trace = true;
  sim::Simulation simulation(
      sim::deploy(tasks, res.vcpus, res.mapping, platform, dc));
  simulation.run(sim_horizon(tasks));
  EXPECT_EQ(simulation.stats().deadline_misses, 0u);
  expect_trace_invariants(simulation, sim_horizon(tasks));
}

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
  sim::Simulation simulation(std::move(cfg));
  simulation.run(sim_horizon(tasks) + Time::ms(100));
  const auto stats = simulation.stats();
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_GE(simulation.trace().count(sim::TraceKind::kHypercall),
            tasks.size());
  expect_trace_invariants(simulation, sim_horizon(tasks) + Time::ms(100));
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
  expect_trace_invariants(simulation, Time::sec(2));
}

}  // namespace
}  // namespace vc2m

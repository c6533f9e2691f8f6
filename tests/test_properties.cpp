// Cross-module property and stress tests: randomized workloads hammer the
// allocator and simulator, asserting structural invariants rather than
// specific values.
#include <gtest/gtest.h>

#include <set>

#include "analysis/schedulability.h"
#include "core/strategy.h"
#include "mapping_check.h"
#include "model/platform.h"
#include "oracle/prm.h"
#include "oracle/regulated.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m {
namespace {

using util::Rng;
using util::Time;

// ------------------------------------------------------- rng forking ----

// The parallel experiment engine pre-forks every stream serially from the
// master seed and hands them to workers that consume them in an arbitrary
// order. That is only sound if a forked stream's output depends solely on
// the fork (its position in the serial fork sequence), never on when or in
// what order the streams are later consumed.
TEST(RngForkOrderPropertyTest, StreamsAreIndependentOfConsumptionOrder) {
  constexpr std::size_t kStreams = 16;
  constexpr std::size_t kDraws = 64;
  for (const std::uint64_t seed : {3ull, 42ull, 0xDEADBEEFull}) {
    // Reference: fork all streams serially, consume them in fork order.
    Rng master(seed);
    std::vector<Rng> streams;
    for (std::size_t s = 0; s < kStreams; ++s) streams.push_back(master.fork());
    std::vector<std::vector<std::uint64_t>> expected(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s)
      for (std::size_t d = 0; d < kDraws; ++d)
        expected[s].push_back(streams[s]());

    // Re-fork identically, then consume the streams in several shuffled
    // orders, interleaved a few draws at a time: every stream must still
    // produce exactly its reference sequence.
    Rng perm_rng(seed ^ 0x5bf0'3635ull);
    for (int round = 0; round < 4; ++round) {
      Rng master2(seed);
      std::vector<Rng> streams2;
      for (std::size_t s = 0; s < kStreams; ++s)
        streams2.push_back(master2.fork());
      std::vector<std::vector<std::uint64_t>> got(kStreams);
      // Interleaving schedule: each stream appears kDraws/4 times, drawing
      // 4 values per visit, with visit order shuffled.
      std::vector<std::size_t> schedule;
      for (std::size_t s = 0; s < kStreams; ++s)
        for (std::size_t v = 0; v < kDraws / 4; ++v) schedule.push_back(s);
      perm_rng.shuffle(schedule);
      for (const std::size_t s : schedule)
        for (int d = 0; d < 4; ++d) got[s].push_back(streams2[s]());
      for (std::size_t s = 0; s < kStreams; ++s) {
        EXPECT_EQ(got[s], expected[s])
            << "seed " << seed << " round " << round << " stream " << s;
      }
    }
  }
}

// ----------------------------------------------------- supply functions ----

class SupplyPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SupplyPropertyTest, SbfBoundsAndOrderings) {
  Rng rng(42 + static_cast<std::uint64_t>(GetParam()));
  const Time period = Time::us(rng.uniform_int(500, 50'000));
  const Time budget = Time::ns(rng.uniform_int(1, period.raw_ns()));
  const analysis::Prm prm{period, budget};
  const analysis::RegulatedSupply wr{period, budget};

  Time prev_prm = Time::zero();
  Time prev_wr = Time::zero();
  for (int i = 0; i <= 200; ++i) {
    const Time t = Time::ns(period.raw_ns() * i / 23);
    const Time s_prm = prm.sbf(t);
    const Time s_wr = wr.sbf(t);
    // 0 <= sbf <= t, monotone, and regulated dominates PRM.
    EXPECT_GE(s_prm, Time::zero());
    EXPECT_LE(s_prm, t);
    EXPECT_LE(s_wr, t);
    EXPECT_GE(s_prm, prev_prm);
    EXPECT_GE(s_wr, prev_wr);
    EXPECT_GE(s_wr, s_prm);
    // Long-run rate: sbf(t) >= bandwidth * t - 2(period - budget) * bw.
    EXPECT_GE(static_cast<double>(s_prm.raw_ns()) + 1e-6, prm.lsbf(t));
    prev_prm = s_prm;
    prev_wr = s_wr;
  }
  // Over whole periods the regulated supply is exact.
  EXPECT_EQ(wr.sbf(period * 7), budget * 7);
}

INSTANTIATE_TEST_SUITE_P(Random, SupplyPropertyTest, ::testing::Range(0, 10));

// ------------------------------------------------------ allocator stress ----

class AllocatorStressTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorStressTest, InvariantsHoldForRandomWorkloads) {
  const std::uint64_t seed = 7'000 + static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);
  const auto platform =
      GetParam() % 3 == 0 ? model::PlatformSpec::C()
      : GetParam() % 3 == 1 ? model::PlatformSpec::B()
                            : model::PlatformSpec::A();
  workload::GeneratorConfig gen;
  gen.grid = platform.grid;
  gen.target_ref_utilization = rng.uniform(0.3, 2.2);
  gen.dist = static_cast<workload::UtilDist>(rng.index(4));
  gen.num_vms = 1 + static_cast<int>(rng.index(3));
  const auto tasks = workload::generate_taskset(gen, rng);

  for (const auto& solution : core::default_solution_keys()) {
    Rng solve_rng = rng.fork();
    const auto res = core::solve(solution, tasks, platform, {}, solve_rng);
    if (!res.schedulable) continue;

    // Every task appears on exactly one VCPU.
    std::set<std::size_t> seen_tasks;
    for (const auto& v : res.vcpus)
      for (const auto t : v.tasks)
        EXPECT_TRUE(seen_tasks.insert(t).second) << solution;
    EXPECT_EQ(seen_tasks.size(), tasks.size()) << solution;

    // Every VCPU on exactly one core; resource pools respected; every
    // core schedulable under its allocation.
    tests::expect_valid_mapping(res.mapping, res.vcpus, platform, solution);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, AllocatorStressTest, ::testing::Range(0, 15));

// ------------------------------------------------------ simulator stress ----

class SimulatorStressTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorStressTest, AccountingInvariantsUnderRandomMixes) {
  const std::uint64_t seed = 9'000 + static_cast<std::uint64_t>(GetParam());
  Rng rng(seed);

  sim::SimConfig cfg;
  cfg.num_cores = 1 + static_cast<unsigned>(rng.index(3));
  cfg.cache_partitions = 20;
  cfg.cache_alloc.assign(cfg.num_cores, 0);
  cfg.bw_alloc.assign(cfg.num_cores, 0);
  for (unsigned k = 0; k < cfg.num_cores; ++k) {
    cfg.cache_alloc[k] = 2 + static_cast<unsigned>(rng.index(19));
    cfg.bw_alloc[k] = 1 + static_cast<unsigned>(rng.index(8));
  }
  cfg.bw_regulation = rng.bernoulli(0.7);
  cfg.bus_contention = rng.bernoulli(0.5);
  cfg.vcpu_switch_cost = rng.bernoulli(0.3) ? Time::us(50) : Time::zero();
  cfg.release_sync = rng.bernoulli(0.3);

  const std::int64_t base = rng.uniform_int(4, 12);
  const std::size_t n_vcpus = 1 + rng.index(4);
  for (std::size_t vi = 0; vi < n_vcpus; ++vi) {
    sim::SimVcpuSpec v;
    v.period = Time::ms(base * (std::int64_t{1} << rng.index(3)));
    v.budget = Time::ns(rng.uniform_int(
        v.period.raw_ns() / 10, v.period.raw_ns() / 2));
    v.core = static_cast<std::size_t>(rng.index(cfg.num_cores));
    v.idling_server = rng.bernoulli(0.8);
    cfg.vcpus.push_back(v);

    const std::size_t n_tasks = rng.index(3);  // 0-2 tasks per VCPU
    for (std::size_t t = 0; t < n_tasks; ++t) {
      sim::SimTaskSpec ts;
      ts.period = v.period * (std::int64_t{1} << rng.index(2));
      ts.offset = Time::ms(rng.uniform_int(0, 5));
      ts.cpu_work = Time::us(rng.uniform_int(100, 2'000));
      if (rng.bernoulli(0.5)) {
        ts.mem_work_ref = Time::us(rng.uniform_int(100, 2'000));
        ts.miss_amp = rng.uniform(1.0, 3.0);
        ts.mem_requests_ref = rng.uniform(1'000, 50'000);
      }
      ts.vcpu = cfg.vcpus.size() - 1;
      cfg.tasks.push_back(ts);
    }
  }

  sim::Simulation s(cfg);
  s.run(Time::ms(500));  // must not throw or hang
  const auto st = s.stats();
  EXPECT_GE(st.jobs_released, st.jobs_completed);
  for (const double busy : st.core_busy_fraction) {
    EXPECT_GE(busy, -1e-9);
    EXPECT_LE(busy, 1.0 + 1e-9);
  }
  for (const auto& t : st.per_task) {
    EXPECT_LE(t.deadline_misses, t.released);
    EXPECT_LE(t.completed, t.released);
  }
  if (!cfg.bw_regulation) {
    EXPECT_EQ(st.throttles, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SimulatorStressTest,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace vc2m

#include <gtest/gtest.h>

#include <set>

#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/exact.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::Taskset;
using model::Vcpu;
using util::Rng;
using util::Time;

std::vector<Vcpu> small_vcpu_set(double util, std::uint64_t seed,
                                 unsigned max_vcpus) {
  workload::GeneratorConfig gen;
  gen.grid = PlatformSpec::A().grid;
  gen.target_ref_utilization = util;
  Rng rng(seed);
  const auto tasks = workload::generate_taskset(gen, rng);
  VmAllocConfig cfg;
  cfg.analysis = VcpuAnalysis::kRegulated;
  cfg.max_vcpus_per_vm = max_vcpus;
  return allocate_vms_heuristic(tasks, cfg, rng);
}

void expect_valid(const HvAllocResult& res, const std::vector<Vcpu>& vcpus,
                  const PlatformSpec& platform) {
  ASSERT_TRUE(res.schedulable);
  EXPECT_LE(res.cores_used, platform.cores);
  EXPECT_LE(res.total_cache(), platform.total_cache());
  EXPECT_LE(res.total_bw(), platform.total_bw());
  std::set<std::size_t> seen;
  for (unsigned k = 0; k < res.cores_used; ++k) {
    EXPECT_GE(res.cache[k], platform.grid.c_min);
    EXPECT_GE(res.bw[k], platform.grid.b_min);
    for (const auto v : res.vcpus_on_core[k]) seen.insert(v);
    EXPECT_TRUE(analysis::core_schedulable(
        vcpus, res.vcpus_on_core[k], res.cache[k], res.bw[k]));
  }
  EXPECT_EQ(seen.size(), vcpus.size());
}

TEST(Exact, FindsValidMappingOnEasyInstance) {
  const auto platform = PlatformSpec::A();
  const auto vcpus = small_vcpu_set(0.8, 1, 4);
  ASSERT_LE(vcpus.size(), 10u);
  const auto res = allocate_exact(vcpus, platform);
  expect_valid(res, vcpus, platform);
}

TEST(Exact, ProvesInfeasibilityOfOverload) {
  const auto platform = PlatformSpec::A();
  // Four VCPUs whose utilization exceeds 1 even at the full allocation on
  // more cores than exist cannot fit.
  const auto tasks_util = 4.8;
  const auto vcpus = small_vcpu_set(tasks_util, 2, 4);
  if (vcpus.size() > 10) GTEST_SKIP();
  EXPECT_FALSE(allocate_exact(vcpus, platform).schedulable);
}

TEST(Exact, SingleVcpuUsesOneCore) {
  const auto platform = PlatformSpec::A();
  const auto vcpus = small_vcpu_set(0.3, 3, 1);
  ASSERT_EQ(vcpus.size(), 1u);
  const auto res = allocate_exact(vcpus, platform);
  ASSERT_TRUE(res.schedulable);
  EXPECT_EQ(res.cores_used, 1u);
}

TEST(Exact, RefusesOversizedInstances) {
  const auto platform = PlatformSpec::A();
  const auto vcpus = small_vcpu_set(0.5, 4, 2);
  ExactConfig cfg;
  cfg.max_vcpus = 1;
  if (vcpus.size() > 1) {
    EXPECT_THROW(allocate_exact(vcpus, platform, cfg), util::Error);
  }
}

// Whenever the heuristic certifies an instance, the exact search must too
// (the heuristic's mapping is itself a witness) — and the exact search may
// additionally certify instances the heuristic missed, never the reverse.
class ExactDominanceTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactDominanceTest, ExactCertifiesEverythingTheHeuristicDoes) {
  const auto platform = PlatformSpec::C();  // tight platform: 12 partitions
  const std::uint64_t seed = 400 + static_cast<std::uint64_t>(GetParam());
  const auto vcpus =
      small_vcpu_set(0.6 + 0.15 * GetParam(), seed, /*max_vcpus=*/3);
  if (vcpus.size() > 8) GTEST_SKIP();

  Rng rng(seed);
  const auto heuristic = allocate_heuristic(vcpus, platform, {}, rng);
  const auto exact = allocate_exact(vcpus, platform);
  if (heuristic.schedulable) {
    EXPECT_TRUE(exact.schedulable) << "exact missed a feasible instance";
  }
  if (exact.schedulable) expect_valid(exact, vcpus, platform);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDominanceTest, ::testing::Range(0, 10));

// Regression: the search result must not depend on the VCPU input order
// (an earlier version iterated a vector being mutated by deeper recursion
// levels and silently skipped partitions for some orders).
class ExactOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(ExactOrderTest, ResultIsOrderInsensitive) {
  const auto platform = PlatformSpec::C();
  const std::uint64_t seed = 800 + static_cast<std::uint64_t>(GetParam());
  auto vcpus = small_vcpu_set(1.1, seed, 3);
  if (vcpus.size() > 7) GTEST_SKIP();
  const bool forward = allocate_exact(vcpus, platform).schedulable;

  Rng rng(seed);
  for (int shuffle = 0; shuffle < 3; ++shuffle) {
    rng.shuffle(vcpus);
    EXPECT_EQ(allocate_exact(vcpus, platform).schedulable, forward)
        << "seed " << seed << " shuffle " << shuffle;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactOrderTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace vc2m::core

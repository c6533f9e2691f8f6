#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/hv_alloc.h"
#include "core/kmeans.h"
#include "core/vm_alloc.h"
#include "features.h"
#include "generated.h"
#include "model/platform.h"
#include "util/rng.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::ResourceGrid;
using model::Surface;
using model::Task;
using model::Taskset;
using model::Vcpu;
using model::WcetFn;
using util::Rng;
using tests::features;
using tests::generated;
using util::Time;

// -------------------------------------------------------------- kmeans ----

TEST(KMeans, SeparatesObviousClusters) {
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({0.0 + i * 0.01, 0.0});
  for (int i = 0; i < 10; ++i) pts.push_back({10.0 + i * 0.01, 10.0});
  Rng rng(1);
  const auto res = kmeans(features(pts), 2, rng);
  // All points of one blob share a cluster, and the blobs differ.
  for (int i = 1; i < 10; ++i) {
    EXPECT_EQ(res.assignment[i], res.assignment[0]);
    EXPECT_EQ(res.assignment[10 + i], res.assignment[10]);
  }
  EXPECT_NE(res.assignment[0], res.assignment[10]);
}

TEST(KMeans, KEqualsOnePutsEverythingTogether) {
  std::vector<std::vector<double>> pts{{1, 2}, {3, 4}, {5, 6}};
  Rng rng(2);
  const auto res = kmeans(features(pts), 1, rng);
  for (const auto a : res.assignment) EXPECT_EQ(a, 0u);
  EXPECT_NEAR(res.centroids[0], 3.0, 1e-12);
}

TEST(KMeans, KEqualsNSeparatesDistinctPoints) {
  std::vector<std::vector<double>> pts{{0, 0}, {5, 5}, {9, 0}};
  Rng rng(3);
  const auto res = kmeans(features(pts), 3, rng);
  std::set<std::size_t> clusters(res.assignment.begin(),
                                 res.assignment.end());
  EXPECT_EQ(clusters.size(), 3u);
}

TEST(KMeans, EveryClusterNonEmptyEvenWithDuplicatePoints) {
  std::vector<std::vector<double>> pts(6, std::vector<double>{1.0, 1.0});
  pts.push_back({2.0, 2.0});
  Rng rng(4);
  const auto res = kmeans(features(pts), 3, rng);
  const auto members = cluster_members(res, 3);
  ASSERT_EQ(members.size(), 3u);
  for (std::size_t c = 0; c < members.size(); ++c)
    EXPECT_FALSE(members[c].empty());
}

TEST(KMeans, InvalidKThrows) {
  std::vector<std::vector<double>> pts{{1.0}};
  Rng rng(5);
  EXPECT_THROW(kmeans(features(pts), 0, rng), util::Error);
  EXPECT_THROW(kmeans(features(pts), 2, rng), util::Error);
}

TEST(KMeans, ClusterMembersPartitionTheInput) {
  Rng rng(6);
  std::vector<std::vector<double>> pts;
  for (int i = 0; i < 40; ++i)
    pts.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
  const auto res = kmeans(features(pts), 5, rng);
  const auto members = cluster_members(res, 5);
  ASSERT_EQ(members.size(), 5u);
  std::vector<std::size_t> seen;
  for (std::size_t c = 0; c < members.size(); ++c)
    for (const std::size_t i : members[c]) {
      EXPECT_EQ(res.assignment[i], c);
      seen.push_back(i);
    }
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> all(pts.size());
  std::iota(all.begin(), all.end(), 0);
  EXPECT_EQ(seen, all);
}

// -------------------------------------------------- best-fit packing ----

TEST(BestFit, PacksTightBeforeOpeningNewBins) {
  // Weights 0.6, 0.3, 0.3, 0.3: decreasing order packs 0.6 then the 0.3s;
  // best-fit fills bin 0 to 0.9 before opening bin 1.
  const auto bins = best_fit_decreasing({0.6, 0.3, 0.3, 0.3}, 1.0, 10);
  ASSERT_TRUE(bins.has_value());
  EXPECT_EQ(bins->size(), 2u);
}

TEST(BestFit, RespectsMaxBins) {
  EXPECT_FALSE(best_fit_decreasing({0.9, 0.9, 0.9}, 1.0, 2).has_value());
  EXPECT_TRUE(best_fit_decreasing({0.9, 0.9, 0.9}, 1.0, 3).has_value());
}

TEST(BestFit, OverweightItemFails) {
  EXPECT_FALSE(best_fit_decreasing({1.5}, 1.0, 10).has_value());
}

TEST(BestFit, ExactFitAccepted) {
  const auto bins = best_fit_decreasing({0.5, 0.5}, 1.0, 1);
  ASSERT_TRUE(bins.has_value());
  EXPECT_EQ(bins->size(), 1u);
}

TEST(BestFit, EveryItemPlacedExactlyOnce) {
  std::vector<double> w;
  Rng rng(7);
  for (int i = 0; i < 30; ++i) w.push_back(rng.uniform(0.05, 0.6));
  const auto bins = best_fit_decreasing(w, 1.0, 30);
  ASSERT_TRUE(bins.has_value());
  std::set<std::size_t> seen;
  for (const auto& bin : *bins) {
    double load = 0;
    for (const auto i : bin) {
      EXPECT_TRUE(seen.insert(i).second);
      load += w[i];
    }
    EXPECT_LE(load, 1.0 + 1e-9);
  }
  EXPECT_EQ(seen.size(), w.size());
}

// ----------------------------------------------------------- vm_alloc ----

/// Σ Θ*_j/Π_j over the VCPUs.
double reference_bandwidth(const std::vector<Vcpu>& vcpus) {
  double u = 0;
  for (const auto& v : vcpus) u += v.reference_utilization();
  return u;
}

VmAllocConfig vm_cfg(VcpuAnalysis a, unsigned max_vcpus = 4) {
  VmAllocConfig cfg;
  cfg.analysis = a;
  cfg.max_vcpus_per_vm = max_vcpus;
  return cfg;
}

TEST(VmAlloc, FlatteningMakesOneVcpuPerTask) {
  const auto ts = generated(1.0, 42);
  Rng rng(1);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kFlattening), rng);
  ASSERT_EQ(vcpus.size(), ts.size());
  for (const auto& v : vcpus) EXPECT_EQ(v.tasks.size(), 1u);
}

TEST(Theorem1, FlattenedVcpuMirrorsTask) {
  const auto ts = generated(0.8, 42, /*vms=*/2);
  Rng rng(1);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kFlattening), rng);
  for (const auto& v : vcpus) {
    ASSERT_EQ(v.tasks.size(), 1u);
    const Task& t = ts[v.tasks[0]];
    EXPECT_EQ(v.period, t.period);
    EXPECT_EQ(v.vm, t.vm);
    EXPECT_EQ(v.budget.grid(), t.wcet.grid());
    EXPECT_EQ(v.budget.flat(), t.wcet.flat());
    // Zero abstraction overhead: bandwidth equals utilization everywhere.
    EXPECT_DOUBLE_EQ(v.reference_utilization(), t.reference_utilization());
  }
}

TEST(Theorem1, FlattenWholeTaskset) {
  // One VM: one flattened VCPU per task, in task order.
  const auto ts = generated(1.0, 42);
  Rng rng(1);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kFlattening), rng);
  ASSERT_EQ(vcpus.size(), ts.size());
  for (std::size_t i = 0; i < vcpus.size(); ++i)
    EXPECT_EQ(vcpus[i].tasks, (std::vector<std::size_t>{i}));
}

TEST(VmAlloc, RegulatedUsesAtMostMaxVcpus) {
  const auto ts = generated(1.5, 42);
  Rng rng(2);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated, 4), rng);
  EXPECT_LE(vcpus.size(), 4u);
  EXPECT_GE(vcpus.size(), 1u);
}

TEST(VmAlloc, EveryTaskAssignedExactlyOnce) {
  const auto ts = generated(1.8, 42);
  Rng rng(3);
  for (const auto analysis :
       {VcpuAnalysis::kFlattening, VcpuAnalysis::kRegulated,
        VcpuAnalysis::kExistingCsa}) {
    const auto vcpus = allocate_vms_heuristic(ts, vm_cfg(analysis), rng);
    std::set<std::size_t> seen;
    for (const auto& v : vcpus)
      for (const auto t : v.tasks) EXPECT_TRUE(seen.insert(t).second);
    EXPECT_EQ(seen.size(), ts.size());
  }
}

TEST(VmAlloc, RegulatedVcpuBandwidthMatchesTaskUtilization) {
  // Zero abstraction overhead: total VCPU reference bandwidth equals total
  // task reference utilization (up to nanosecond round-up).
  const auto ts = generated(1.2, 42);
  Rng rng(4);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated), rng);
  EXPECT_NEAR(reference_bandwidth(vcpus),
              model::total_reference_utilization(ts), 1e-6);
}

TEST(VmAlloc, ExistingCsaCarriesAbstractionOverhead) {
  const auto ts = generated(1.0, 42);
  Rng rng(5);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kExistingCsa), rng);
  // The PRM budgets strictly exceed the utilization share whenever more
  // than zero slack exists.
  EXPECT_GT(reference_bandwidth(vcpus),
            model::total_reference_utilization(ts) + 0.01);
}

TEST(VmAlloc, VmBoundariesRespected) {
  const auto ts = generated(1.5, 42, /*vms=*/3);
  Rng rng(6);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated), rng);
  for (const auto& v : vcpus)
    for (const auto t : v.tasks) EXPECT_EQ(ts[t].vm, v.vm);
}

TEST(VmAlloc, LoadsAreBalancedAcrossVcpus) {
  const auto ts = generated(1.6, 42);
  Rng rng(7);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated, 4), rng);
  if (vcpus.size() < 2) return;
  double lo = 1e9, hi = 0;
  for (const auto& v : vcpus) {
    lo = std::min(lo, v.reference_utilization());
    hi = std::max(hi, v.reference_utilization());
  }
  // Worst-fit decreasing within clusters keeps the spread bounded by the
  // largest single task utilization (≤ 0.4 reference here).
  EXPECT_LE(hi - lo, 0.45);
}

TEST(VmAlloc, NonHarmonicTasksetsSplitIntoHarmonicChains) {
  // Hand-built taskset with two incompatible period chains: the regulated
  // path must not throw — it builds one well-regulated VCPU per chain.
  auto task_with_period = [](Time p) {
    model::Task t;
    t.period = p;
    model::Surface s(PlatformSpec::A().grid, 1.0);
    t.wcet = model::WcetFn::from_slowdown(Time::ms(5), s);
    t.max_wcet = Time::ms(10);
    return t;
  };
  Taskset ts{task_with_period(Time::ms(100)),
             task_with_period(Time::ms(150)),
             task_with_period(Time::ms(200)),
             task_with_period(Time::ms(300))};
  Rng rng(21);
  const auto vcpus =
      allocate_vms_heuristic(ts, vm_cfg(VcpuAnalysis::kRegulated, 2), rng);
  std::set<std::size_t> seen;
  for (const auto& v : vcpus) {
    // Each VCPU serves a harmonic set (regulated_vcpu would have thrown).
    for (const auto t : v.tasks) EXPECT_TRUE(seen.insert(t).second);
  }
  EXPECT_EQ(seen.size(), ts.size());
  EXPECT_GE(vcpus.size(), 2u);  // at least one split was necessary
}

TEST(VmAlloc, ExistingCsaMaxWcetVcpuHasConstantBudget) {
  const auto ts = generated(0.5, 42);
  std::vector<std::size_t> idx(ts.size());
  for (std::size_t i = 0; i < ts.size(); ++i) idx[i] = i;
  analysis::AnalysisContext ctx;
  const auto v = vcpu_existing_csa_max_wcet(ts, idx, ctx);
  const auto& g = v.budget.grid();
  const Time ref = v.budget.at(g.c_max, g.b_max);
  EXPECT_EQ(v.budget.at(g.c_min, g.b_min), ref);
  EXPECT_GT(ref, Time::zero());
}

// ----------------------------------------------------------- hv_alloc ----

std::vector<Vcpu> regulated_vcpus(const Taskset& ts, unsigned max_vcpus,
                                  std::uint64_t seed) {
  Rng rng(seed);
  return allocate_vms_heuristic(
      ts, vm_cfg(VcpuAnalysis::kRegulated, max_vcpus), rng);
}

void expect_valid_mapping(const HvAllocResult& res,
                          const std::vector<Vcpu>& vcpus,
                          const PlatformSpec& platform) {
  ASSERT_TRUE(res.schedulable);
  ASSERT_EQ(res.vcpus_on_core.size(), res.cores_used);
  ASSERT_EQ(res.cache.size(), res.cores_used);
  ASSERT_EQ(res.bw.size(), res.cores_used);
  EXPECT_LE(res.cores_used, platform.cores);
  EXPECT_LE(res.total_cache(), platform.total_cache());
  EXPECT_LE(res.total_bw(), platform.total_bw());
  std::set<std::size_t> seen;
  for (unsigned k = 0; k < res.cores_used; ++k) {
    EXPECT_GE(res.cache[k], platform.grid.c_min);
    EXPECT_GE(res.bw[k], platform.grid.b_min);
    for (const auto v : res.vcpus_on_core[k])
      EXPECT_TRUE(seen.insert(v).second);
    EXPECT_TRUE(analysis::core_schedulable(vcpus, res.vcpus_on_core[k],
                                           res.cache[k], res.bw[k]));
  }
  EXPECT_EQ(seen.size(), vcpus.size());
}

TEST(HvAlloc, EasyWorkloadIsSchedulableWithValidMapping) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated(1.0, 42);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 10);
  Rng rng(11);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  expect_valid_mapping(res, vcpus, platform);
}

TEST(HvAlloc, ImpossibleWorkloadReportsFailure) {
  const auto platform = PlatformSpec::A();
  // Reference utilization above the core count can never fit.
  const auto ts = generated(4.5, 42);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 12);
  Rng rng(13);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  EXPECT_FALSE(res.schedulable);
}

TEST(HvAlloc, SingleLightVcpuFitsOneCore) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated(0.2, 42);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 14);
  Rng rng(15);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  ASSERT_TRUE(res.schedulable);
  EXPECT_EQ(res.cores_used, 1u);
}

TEST(HvAlloc, EvenPartitionProducesValidMappingWhenSchedulable) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated(0.8, 42);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 16);
  const auto res = allocate_even_partition(vcpus, platform);
  if (!res.schedulable) return;  // even split may legitimately fail
  const unsigned c_even = platform.total_cache() / platform.cores;
  for (unsigned k = 0; k < res.cores_used; ++k) {
    EXPECT_EQ(res.cache[k], c_even);
    EXPECT_TRUE(analysis::core_schedulable(vcpus, res.vcpus_on_core[k],
                                           res.cache[k], res.bw[k]));
  }
}

TEST(HvAlloc, HeuristicDominatesEvenPartition) {
  // Over a batch of workloads, the heuristic must schedule at least as many
  // tasksets as the even-partition packing (it searches a superset of
  // configurations).
  const auto platform = PlatformSpec::A();
  int heuristic_wins = 0, even_wins = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const auto ts = generated(1.3, 100 + seed);
    const auto vcpus = regulated_vcpus(ts, platform.cores, 200 + seed);
    Rng rng(300 + seed);
    const bool h = allocate_heuristic(vcpus, platform, {}, rng).schedulable;
    const bool e = allocate_even_partition(vcpus, platform).schedulable;
    heuristic_wins += (h && !e) ? 1 : 0;
    even_wins += (e && !h) ? 1 : 0;
  }
  EXPECT_GE(heuristic_wins, even_wins);
}

TEST(HvAlloc, PlatformCExtraCoreConstraint) {
  // Platform C has only 12 partitions: at most 6 cores could receive the
  // 2-partition cache minimum, and the allocator must respect the pool.
  const auto platform = PlatformSpec::C();
  const auto ts = generated(1.0, 42);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 17);
  Rng rng(18);
  const auto res = allocate_heuristic(vcpus, platform, {}, rng);
  if (res.schedulable) expect_valid_mapping(res, vcpus, platform);
}

TEST(HvAlloc, DeterministicGivenSeed) {
  const auto platform = PlatformSpec::A();
  const auto ts = generated(1.2, 42);
  const auto vcpus = regulated_vcpus(ts, platform.cores, 19);
  Rng rng1(20), rng2(20);
  const auto r1 = allocate_heuristic(vcpus, platform, {}, rng1);
  const auto r2 = allocate_heuristic(vcpus, platform, {}, rng2);
  EXPECT_EQ(r1.schedulable, r2.schedulable);
  EXPECT_EQ(r1.cores_used, r2.cores_used);
  EXPECT_EQ(r1.cache, r2.cache);
  EXPECT_EQ(r1.bw, r2.bw);
  EXPECT_EQ(r1.vcpus_on_core, r2.vcpus_on_core);
}

}  // namespace
}  // namespace vc2m::core

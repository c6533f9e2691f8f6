#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/schedulability.h"
#include "core/admission.h"
#include "core/strategy.h"
#include "generated.h"
#include "model/platform.h"
#include "util/rng.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::Taskset;
using util::Rng;

Taskset vm_taskset(double util, int vm_id, std::uint64_t seed) {
  auto tasks = tests::generated(util, seed);
  for (auto& t : tasks) t.vm = vm_id;
  return tasks;
}

AdmissionState boot_system(double util, std::uint64_t seed) {
  const auto platform = PlatformSpec::A();
  const auto tasks = vm_taskset(util, 0, seed);
  Rng rng(seed + 1);
  const auto res =
      solve("ovf", tasks, platform, {}, rng);
  AdmissionState state;
  state.vcpus = res.vcpus;
  state.mapping = res.mapping;
  return state;
}

void expect_consistent(const AdmissionState& st,
                       const PlatformSpec& platform) {
  EXPECT_LE(st.mapping.total_cache(), platform.total_cache());
  EXPECT_LE(st.mapping.total_bw(), platform.total_bw());
  EXPECT_LE(st.mapping.cores_used, platform.cores);
  std::size_t placed = 0;
  for (unsigned k = 0; k < st.mapping.cores_used; ++k) {
    placed += st.mapping.vcpus_on_core[k].size();
    EXPECT_TRUE(analysis::core_schedulable(st.vcpus,
                                           st.mapping.vcpus_on_core[k],
                                           st.mapping.cache[k],
                                           st.mapping.bw[k]))
        << "core " << k;
  }
  EXPECT_EQ(placed, st.vcpus.size());
}

TEST(Admission, SmallVmJoinsRunningSystem) {
  const auto platform = PlatformSpec::A();
  const auto base = boot_system(0.8, 10);
  ASSERT_TRUE(base.mapping.schedulable);

  const auto newcomer = vm_taskset(0.3, 1, 11);
  Rng rng(12);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  const auto res = admit_vm(base, newcomer, 1, platform, vm, rng);
  ASSERT_TRUE(res.admitted);
  expect_consistent(res.state, platform);
  EXPECT_GT(res.state.vcpus.size(), base.vcpus.size());
}

TEST(Admission, ExistingVcpusAreNeverMovedOrShrunk) {
  const auto platform = PlatformSpec::A();
  const auto base = boot_system(0.9, 20);
  const auto newcomer = vm_taskset(0.4, 1, 21);
  Rng rng(22);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  const auto res = admit_vm(base, newcomer, 1, platform, vm, rng);
  if (!res.admitted) GTEST_SKIP();

  // Every pre-existing VCPU stays on its core; its core never lost
  // partitions.
  for (unsigned k = 0; k < base.mapping.cores_used; ++k) {
    EXPECT_GE(res.state.mapping.cache[k], base.mapping.cache[k]);
    EXPECT_GE(res.state.mapping.bw[k], base.mapping.bw[k]);
    for (const std::size_t v : base.mapping.vcpus_on_core[k]) {
      const auto& now = res.state.mapping.vcpus_on_core[k];
      EXPECT_NE(std::find(now.begin(), now.end(), v), now.end());
    }
  }
}

TEST(Admission, OverloadIsRejectedAtomically) {
  const auto platform = PlatformSpec::A();
  const auto base = boot_system(1.2, 30);
  ASSERT_TRUE(base.mapping.schedulable);
  const auto monster = vm_taskset(3.5, 1, 31);
  Rng rng(32);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  const auto res = admit_vm(base, monster, 1, platform, vm, rng);
  EXPECT_FALSE(res.admitted);
  // Rejection leaves no partial state behind.
  EXPECT_TRUE(res.state.vcpus.empty());
}

TEST(Admission, DuplicateVmIdRejected) {
  const auto platform = PlatformSpec::A();
  const auto base = boot_system(0.5, 40);
  const auto dup = vm_taskset(0.2, 0, 41);  // vm id 0 already running
  Rng rng(42);
  EXPECT_THROW(admit_vm(base, dup, 0, platform, {}, rng), util::Error);
}

TEST(Admission, RemoveVmCompactsState) {
  const auto platform = PlatformSpec::A();
  auto base = boot_system(0.7, 50);
  const auto newcomer = vm_taskset(0.3, 1, 51);
  Rng rng(52);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  const auto admitted = admit_vm(base, newcomer, 1, platform, vm, rng);
  ASSERT_TRUE(admitted.admitted);

  const auto after = remove_vm(admitted.state, 1);
  EXPECT_EQ(after.vcpus.size(), base.vcpus.size());
  for (const auto& v : after.vcpus) EXPECT_NE(v.vm, 1);
  expect_consistent(after, platform);
}

TEST(Admission, RemoveUnknownVmThrows) {
  const auto base = boot_system(0.5, 60);
  EXPECT_THROW(remove_vm(base, 77), util::Error);
}

/// Canonical byte-exact rendering of an AdmissionState: every VCPU (vm,
/// period, task indices, full budget surface) and every core (cache, bw,
/// residents). Two states with equal fingerprints are indistinguishable to
/// the analysis.
std::string fingerprint(const AdmissionState& st) {
  std::ostringstream os;
  for (const auto& v : st.vcpus) {
    os << v.vm << ":" << v.period.raw_ns() << ":";
    for (const std::size_t t : v.tasks) os << t << ",";
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        os << v.budget.at(c, b).raw_ns() << ";";
    os << "|";
  }
  const auto& m = st.mapping;
  os << m.schedulable << "/" << m.cores_used << "/";
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    os << m.cache[k] << "+" << m.bw[k] << "[";
    for (const std::size_t vi : m.vcpus_on_core[k]) os << vi << ",";
    os << "]";
  }
  return os.str();
}

TEST(AdmissionProperty, RandomChurnEndingEmptyFreesEverything) {
  // Property: any admit/remove sequence that ends with every admitted VM
  // removed must return the system to the empty state — all cores trimmed,
  // every cache way and BW partition back in the free pools. A leak here
  // means remove_vm strands capacity a long-running service never gets
  // back.
  const auto platform = PlatformSpec::A();
  Rng rng(123);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  AdmissionState state;
  std::vector<int> live;
  int next_vm = 0;
  int admitted = 0;
  for (int step = 0; step < 40; ++step) {
    if (!live.empty() && rng.bernoulli(0.4)) {
      const std::size_t i = rng.index(live.size());
      state = remove_vm(state, live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      expect_consistent(state, platform);
    } else {
      const int id = next_vm++;
      const auto tasks =
          vm_taskset(0.15 + 0.25 * rng.uniform01(), id, 1000 + id);
      const auto res = admit_vm(state, tasks, id, platform, vm, rng);
      if (res.admitted) {
        state = res.state;
        live.push_back(id);
        ++admitted;
        expect_consistent(state, platform);
      }
    }
  }
  ASSERT_GT(admitted, 0) << "churn never admitted anything";
  while (!live.empty()) {
    state = remove_vm(state, live.back());
    live.pop_back();
  }
  EXPECT_TRUE(state.vcpus.empty());
  EXPECT_EQ(state.mapping.cores_used, 0u);
  EXPECT_EQ(state.mapping.total_cache(), 0u);
  EXPECT_EQ(state.mapping.total_bw(), 0u);
  // The schedulable verdict is history, not held capacity; everything else
  // must match a pristine empty system exactly.
  AdmissionState empty;
  empty.mapping.schedulable = state.mapping.schedulable;
  EXPECT_EQ(fingerprint(state), fingerprint(empty));
}

TEST(AdmissionProperty, RejectionLeavesCallerStateByteIdentical) {
  // Property: a rejected admission is a pure no-op — the caller's state is
  // byte-identical afterwards, across many randomized oversized requests.
  const auto platform = PlatformSpec::A();
  const auto base = boot_system(1.2, 90);
  ASSERT_TRUE(base.mapping.schedulable);
  const std::string before = fingerprint(base);
  Rng rng(91);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  int rejections = 0;
  for (int i = 1; i <= 8; ++i) {
    const auto monster = vm_taskset(2.5 + 0.5 * i, i, 92 + i);
    const auto res = admit_vm(base, monster, i, platform, vm, rng);
    if (!res.admitted) {
      ++rejections;
      EXPECT_TRUE(res.state.vcpus.empty());
    }
    EXPECT_EQ(fingerprint(base), before) << "request " << i;
  }
  EXPECT_GT(rejections, 0) << "no request was large enough to be rejected";
}

TEST(AdmissionProperty, ResizeRollbackKeepsOriginalByteIdentical) {
  const auto platform = PlatformSpec::A();
  auto state = boot_system(0.6, 95);
  Rng rng(96);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  const auto small = vm_taskset(0.25, 1, 97);
  const auto admitted = admit_vm(state, small, 1, platform, vm, rng);
  ASSERT_TRUE(admitted.admitted);
  state = admitted.state;
  const std::string before = fingerprint(state);

  // A resize to an impossible workload must be rejected and roll back: the
  // original VM keeps running exactly as it was.
  const auto monster = vm_taskset(4.0, 1, 98);
  const auto rejected = resize_vm(state, monster, 1, platform, vm, rng);
  EXPECT_FALSE(rejected.admitted);
  EXPECT_TRUE(rejected.state.vcpus.empty());
  EXPECT_EQ(fingerprint(state), before);

  // A feasible resize commits: vm 1 present, system consistent.
  const auto grown = vm_taskset(0.35, 1, 99);
  const auto resized = resize_vm(state, grown, 1, platform, vm, rng);
  if (resized.admitted) {
    expect_consistent(resized.state, platform);
    EXPECT_TRUE(std::any_of(
        resized.state.vcpus.begin(), resized.state.vcpus.end(),
        [](const model::Vcpu& v) { return v.vm == 1; }));
  }
  EXPECT_EQ(fingerprint(state), before);  // input state never mutated

  // Resizing an absent VM is an error, not a silent admit.
  EXPECT_THROW(resize_vm(state, vm_taskset(0.2, 9, 100), 9, platform, vm, rng),
               util::Error);
}

TEST(Admission, AdmitRemoveCycleIsStable) {
  // Admit and remove a sequence of VMs; the system must stay consistent
  // and end with only the original VM.
  const auto platform = PlatformSpec::A();
  AdmissionState state = boot_system(0.6, 70);
  const std::size_t original = state.vcpus.size();
  Rng rng(71);
  VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  for (int round = 1; round <= 4; ++round) {
    const auto tasks = vm_taskset(0.25, round, 72 + round);
    const auto res = admit_vm(state, tasks, round, platform, vm, rng);
    if (res.admitted) {
      state = res.state;
      expect_consistent(state, platform);
    }
  }
  for (int round = 1; round <= 4; ++round) {
    const bool present = std::any_of(
        state.vcpus.begin(), state.vcpus.end(),
        [&](const model::Vcpu& v) { return v.vm == round; });
    if (present) state = remove_vm(state, round);
  }
  EXPECT_EQ(state.vcpus.size(), original);
  expect_consistent(state, platform);
}

}  // namespace
}  // namespace vc2m::core

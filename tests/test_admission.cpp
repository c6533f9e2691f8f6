#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <sstream>

#include "analysis/schedulability.h"
#include "core/admission.h"
#include "core/strategy.h"
#include "generated.h"
#include "model/platform.h"
#include "obs/decision_log.h"
#include "util/hash.h"
#include "util/instrument.h"
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

/// What one admission decision produced: verdict, committed state,
/// decision events and allocator effort.
struct Decided {
  bool admitted = false;
  std::string state;
  std::vector<obs::DecisionEvent> events;
  std::uint64_t dbf = 0, budget = 0, tests = 0;
};

template <class Fn>
Decided decided(Fn&& decide) {
  Decided d;
  obs::DecisionLog log;
  util::AllocCounterScope counters;
  {
    obs::DecisionLogScope scope(log);
    const AdmitResult r = decide();
    d.admitted = r.admitted;
    d.state = fingerprint(r.state);
  }
  d.events = log.events();
  d.dbf = counters.counters().dbf_evaluations;
  d.budget = counters.counters().budget_evaluations;
  d.tests = counters.counters().admission_tests;
  return d;
}

TEST(AdmissionWorkspaceTest, OneWorkspaceDecidesAsFreshOnes) {
  // A churn of admits, resizes and removes, each decision taken twice:
  // through one workspace kept across the whole churn, and through the
  // overload that builds a fresh one. Verdicts, committed states, events
  // and effort counters must agree for every VCPU analysis.
  const auto platform = PlatformSpec::A();
  for (const auto analysis :
       {VcpuAnalysis::kFlattening, VcpuAnalysis::kRegulated,
        VcpuAnalysis::kExistingCsa}) {
    SCOPED_TRACE(static_cast<int>(analysis));
    VmAllocConfig vm;
    vm.analysis = analysis;
    AdmissionWorkspace ws;
    AdmissionState state;
    std::vector<int> live;
    Rng pick(130);
    int accepted = 0, rejected = 0;
    for (int step = 0; step < 24; ++step) {
      if (!live.empty() && pick.bernoulli(0.25)) {
        state = remove_vm(state, live.front());
        live.erase(live.begin());
        continue;
      }
      const bool resize = !live.empty() && pick.bernoulli(0.3);
      const int id = resize ? live.back() : 100 + step;
      const auto tasks = vm_taskset(0.2 + 0.5 * pick.uniform01(), id,
                                    2000 + static_cast<std::uint64_t>(step));
      const auto take = [&](AdmissionWorkspace* kept) {
        return decided([&] {
          Rng rng(3000 + static_cast<std::uint64_t>(step));
          if (kept)
            return resize ? resize_vm(state, tasks, id, platform, vm, rng, *kept)
                          : admit_vm(state, tasks, id, platform, vm, rng, *kept);
          return resize ? resize_vm(state, tasks, id, platform, vm, rng)
                        : admit_vm(state, tasks, id, platform, vm, rng);
        });
      };
      const Decided fresh = take(nullptr);
      const Decided reused = take(&ws);
      ASSERT_EQ(reused.admitted, fresh.admitted) << "step " << step;
      EXPECT_EQ(reused.state, fresh.state) << "step " << step;
      EXPECT_EQ(reused.events, fresh.events) << "step " << step;
      EXPECT_EQ(reused.dbf, fresh.dbf);
      EXPECT_EQ(reused.budget, fresh.budget);
      EXPECT_EQ(reused.tests, fresh.tests);
      if (!fresh.admitted) {
        ++rejected;
        continue;
      }
      ++accepted;
      Rng rng(3000 + static_cast<std::uint64_t>(step));
      state = resize ? resize_vm(state, tasks, id, platform, vm, rng).state
                     : admit_vm(state, tasks, id, platform, vm, rng).state;
      if (!resize) live.push_back(id);
    }
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
  }
}

TEST(AdmissionEvents, ExistingCsaSurfacesAreWholeBeforePlacement) {
  // Existing-CSA surfaces are computed for every VCPU before placement
  // probes any of them, one kBudgetPoint per cell in cell order, each
  // fresh budget preceded by its kBudgetSearch. The event stream's hash
  // and effort counters are pinned to the values this admission had when
  // every VCPU analysis computed its surfaces up front.
  const auto platform = PlatformSpec::A();
  const auto base = boot_system(0.3, 10);
  const auto tasks = vm_taskset(0.2, 1, 11);
  VmAllocConfig vm;
  vm.analysis = VcpuAnalysis::kExistingCsa;
  const Decided d = decided([&] {
    Rng rng(12);
    return admit_vm(base, tasks, 1, platform, vm, rng);
  });
  EXPECT_TRUE(d.admitted);

  std::size_t points = 0, searches = 0, last_budget = 0, first_place = 0;
  std::uint64_t h = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    const obs::DecisionEvent& e = d.events[i];
    if (e.kind == obs::DecisionKind::kBudgetPoint ||
        e.kind == obs::DecisionKind::kBudgetSearch) {
      ++(e.kind == obs::DecisionKind::kBudgetPoint ? points : searches);
      last_budget = i;
    } else if (e.kind == obs::DecisionKind::kAdmitPlacement &&
               first_place == 0) {
      first_place = i;
    }
    for (const std::int64_t w :
         {std::int64_t{static_cast<int>(e.kind)}, std::int64_t{e.accepted},
          std::int64_t{static_cast<int>(e.constraint)}, std::int64_t{e.vm},
          std::int64_t{e.entity}, std::int64_t{e.core}, std::int64_t{e.cache},
          std::int64_t{e.bw}})
      h = util::fnv1a_word(h, static_cast<std::uint64_t>(w));
    h = util::fnv1a_word(h, std::bit_cast<std::uint64_t>(e.value));
    h = util::fnv1a_word(h, std::bit_cast<std::uint64_t>(e.margin));
  }
  ASSERT_GT(first_place, 0u);
  EXPECT_LT(last_budget, first_place);
  EXPECT_EQ(points % platform.grid.size(), 0u);
  EXPECT_EQ(d.events.size(), 1445u);
  EXPECT_EQ(points, 1140u);  // 3 VCPUs × 380 cells
  EXPECT_EQ(searches, 295u);
  EXPECT_EQ(d.budget, 295u);
  EXPECT_EQ(d.dbf, 295u);
  EXPECT_EQ(d.tests, 106u);
  EXPECT_EQ(h, 0x8a5e1f7e09a801c5ull);
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

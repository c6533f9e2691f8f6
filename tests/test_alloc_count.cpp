// Heap allocations of the existing-CSA surface path and of admission
// decisions.
//
// This binary, and only this one, replaces the global operator new with a
// counting one, so a test can read how many heap allocations a call made.
// The count is per thread; the counted calls run no inner pool, so all of
// their allocations happen on the calling thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "analysis/context.h"
#include "core/admission.h"
#include "core/vm_alloc.h"
#include "generated.h"
#include "model/platform.h"
#include "model/task.h"
#include "service/service.h"

namespace {

thread_local std::uint64_t t_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++t_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vc2m::core {
namespace {

/// Heap allocations made by fn() on this thread.
template <class Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const std::uint64_t before = t_allocations;
  fn();
  return t_allocations - before;
}

/// A generated taskset on `grid`: its four lightest tasks form the VCPU,
/// as in bench_micro_ops' BM_VcpuExistingCsaSurface.
struct Vcpu {
  model::Taskset tasks;
  std::vector<std::size_t> idx{0, 1, 2, 3};
};

Vcpu make_vcpu(const model::ResourceGrid& grid, std::uint64_t seed) {
  Vcpu v{tests::generated(4.0, seed, 1, grid)};
  std::sort(v.tasks.begin(), v.tasks.end(),
            [](const model::Task& a, const model::Task& b) {
              return a.reference_utilization() < b.reference_utilization();
            });
  return v;
}

TEST(HeapAllocations, CountingOperatorNewIsLinkedIn) {
  EXPECT_EQ(allocations_of([] { ::operator delete(::operator new(8)); }), 1u);
}

TEST(HeapAllocations, WarmExistingCsaSurfaceAllocatesTheSameOnAnyGrid) {
  // A warm call: the context has answered this VCPU once, so its group,
  // checkpoint stream, job counts, memo and arena chunks exist, and every
  // cell is a memo hit. What is left is the returned Vcpu: its task list
  // and its budget surface. Platform A has 380 cells, Platform C 132.
  constexpr std::uint64_t kWarmBound = 2;
  std::vector<std::uint64_t> counts;
  for (const auto& platform :
       {model::PlatformSpec::A(), model::PlatformSpec::C()}) {
    SCOPED_TRACE(platform.name);
    const Vcpu v = make_vcpu(platform.grid, 17);
    analysis::AnalysisContext ctx;
    const auto cold = vcpu_existing_csa(v.tasks, v.idx, ctx);
    const std::uint64_t evals = ctx.counters().budget_evaluations;
    ASSERT_GT(evals, 0u);
    model::Vcpu warm;
    counts.push_back(
        allocations_of([&] { warm = vcpu_existing_csa(v.tasks, v.idx, ctx); }));
    EXPECT_EQ(ctx.counters().budget_evaluations, evals);  // all hits
    EXPECT_EQ(warm.budget.flat(), cold.budget.flat());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_LE(counts[0], kWarmBound);
}

TEST(HeapAllocations, FreshCellsOfAKnownGroupAllocateABoundedNumber) {
  // The same group with other wcets: every distinct cell is a fresh
  // budget. The stream and job counts are reused; the memo reserves room
  // for the surface once, so it reallocates its four arrays (wcet tuples,
  // values, hashes, slots) at most once each, whatever the cell count.
  constexpr std::uint64_t kFreshBound = 2 + 4;
  for (const auto& platform :
       {model::PlatformSpec::A(), model::PlatformSpec::C()}) {
    SCOPED_TRACE(platform.name);
    const Vcpu v = make_vcpu(platform.grid, 17);
    Vcpu scaled = v;
    for (auto& t : scaled.tasks)
      for (auto& e : t.wcet.flat()) e = util::Time::ns(e.raw_ns() * 3 / 4);
    analysis::AnalysisContext ctx;
    vcpu_existing_csa(v.tasks, v.idx, ctx);
    const std::uint64_t rebuilds = ctx.counters().soa_rebuilds;
    const std::uint64_t evals = ctx.counters().budget_evaluations;
    const std::uint64_t n = allocations_of(
        [&] { vcpu_existing_csa(scaled.tasks, scaled.idx, ctx); });
    EXPECT_EQ(ctx.counters().soa_rebuilds, rebuilds);
    EXPECT_GT(ctx.counters().budget_evaluations, evals + 50);
    EXPECT_LE(n, kFreshBound);
  }
}

/// A generated VM of reference utilization `util` whose tasks carry `vm`.
model::Taskset vm_tasks(int vm, double util, std::uint64_t seed) {
  auto tasks = tests::generated(util, seed);
  for (auto& t : tasks) t.vm = vm;
  return tasks;
}

/// Platform A filled with 0.4-utilization VMs until one is refused: the
/// state, the refused VM's id and its tasks.
struct FullPlatform {
  AdmissionState state;
  int vm = 1;
  model::Taskset refused;
};

FullPlatform fill_platform_a() {
  const auto platform = model::PlatformSpec::A();
  const VmAllocConfig cfg;  // Theorem 2, as `vc2m serve` runs
  FullPlatform f;
  for (;; ++f.vm) {
    auto tasks = vm_tasks(f.vm, 0.4, 1000 + static_cast<std::uint64_t>(f.vm));
    util::Rng rng(static_cast<std::uint64_t>(f.vm));
    auto r = admit_vm(f.state, tasks, f.vm, platform, cfg, rng);
    if (!r.admitted) {
      f.refused = std::move(tasks);
      return f;
    }
    f.state = std::move(r.state);
  }
}

TEST(HeapAllocations, WarmRejectedAdmissionAllocatesNothing) {
  // Fill Platform A with 0.4-utilization VMs until one is refused, then
  // decide that VM again and again in one workspace. Once the workspace
  // has seen the decision, the rejection allocates nothing: the VCPU
  // shells, k-means tables, probe core and mapping copy are all reused,
  // and no committed state is built.
  const auto platform = model::PlatformSpec::A();
  const VmAllocConfig cfg;
  const FullPlatform full = fill_platform_a();
  const AdmissionState& state = full.state;
  const model::Taskset& refused = full.refused;
  const int vm = full.vm;
  ASSERT_EQ(state.mapping.cores_used, platform.cores);
  AdmissionWorkspace ws;
  const auto decide = [&](AdmissionWorkspace* kept) {
    util::Rng rng(5);
    return kept ? admit_vm(state, refused, vm, platform, cfg, rng, *kept)
                : admit_vm(state, refused, vm, platform, cfg, rng);
  };
  ASSERT_FALSE(decide(&ws).admitted);
  bool admitted = true;
  EXPECT_EQ(allocations_of([&] { admitted = decide(&ws).admitted; }), 0u);
  EXPECT_FALSE(admitted);
  // Without a kept workspace the decision builds every buffer; before
  // the workspace existed it made 86 allocations.
  EXPECT_EQ(allocations_of([&] { admitted = decide(nullptr).admitted; }),
            70u);
}

TEST(HeapAllocations, WarmRejectedServiceDecisionAllocatesNothing) {
  // The serve Decider on the same full Platform A: an admit request whose
  // VM is refused, decided again and again with one kept DecideWorkspace.
  // Warm, it allocates nothing: the materialized taskset (8 tasks, one
  // WCET table each), the decision log and the admission buffers are all
  // reused. Before the workspace kept the taskset and the log, the warm
  // decision made 17 allocations: the tables, the task vector's growth,
  // the period menu and the log's events. A fresh workspace builds all.
  service::State st;
  st.adm = fill_platform_a().state;
  service::ServiceConfig cfg;
  service::ServeRequest req;
  req.seq = 3;
  req.vm = 1000;
  req.util = 0.4;
  req.taskset_seed = 11;
  const service::QueueEntry entry{req.seq, 0, util::Time::zero()};
  service::DecideWorkspace ws;
  const auto outcome = [&](service::DecideWorkspace& w) {
    return service::decide(st, req, entry, util::Time::zero(), cfg, w)
        .rec.outcome;
  };
  ASSERT_EQ(outcome(ws), service::Outcome::kRejected);
  ASSERT_EQ(ws.tasks.size(), 8u);
  service::Outcome o = service::Outcome::kAdmitted;
  EXPECT_EQ(allocations_of([&] { o = outcome(ws); }), 0u);
  EXPECT_EQ(o, service::Outcome::kRejected);
  EXPECT_EQ(allocations_of([&] {
              service::DecideWorkspace fresh;
              o = outcome(fresh);
            }),
            83u);
}

TEST(HeapAllocations, WarmAcceptedAdmissionAllocatesOnlyWhatItCommits) {
  // A 0.4-utilization VM of 13 tasks admitted into an empty Platform A as
  // 4 regulated VCPUs on 2 cores. Warm, the decision allocates only what
  // the committed state holds and the cores it opens: the VCPU vector,
  // each VCPU's budget surface and task list (8), the mapping's core
  // list, cache and bandwidth vectors and one member list per core (5),
  // and the member list of each core the placement opens (2) and its
  // growth (2). Before the workspace existed it made 96 allocations.
  const auto platform = model::PlatformSpec::A();
  const VmAllocConfig cfg;
  const AdmissionState empty;
  const auto tasks = vm_tasks(1, 0.4, 1001);
  AdmissionWorkspace ws;
  const auto decide = [&] {
    util::Rng rng(5);
    return admit_vm(empty, tasks, 1, platform, cfg, rng, ws);
  };
  ASSERT_TRUE(decide().admitted);
  AdmitResult r;
  EXPECT_EQ(allocations_of([&] { r = decide(); }), 18u);
  ASSERT_TRUE(r.admitted);
  EXPECT_EQ(tasks.size(), 13u);
  EXPECT_EQ(r.state.vcpus.size(), 4u);
  EXPECT_EQ(r.state.mapping.cores_used, 2u);
}

}  // namespace
}  // namespace vc2m::core

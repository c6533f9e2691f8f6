#include "core/vm_alloc.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <numeric>
#include <optional>

#include "analysis/dbf.h"
#include "analysis/theorems.h"
#include "core/kmeans.h"
#include "obs/decision_log.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/phase_profiler.h"

namespace vc2m::core {

namespace {

util::Time min_period(const model::Taskset& tasks,
                      std::span<const std::size_t> idx) {
  util::Time p = tasks[idx.front()].period;
  for (const std::size_t i : idx) p = util::min(p, tasks[i].period);
  return p;
}

}  // namespace

model::Vcpu vcpu_existing_csa(const model::Taskset& tasks,
                              std::span<const std::size_t> idx,
                              analysis::AnalysisContext& ctx) {
  VC2M_CHECK(!idx.empty());
  const auto& grid = tasks[idx.front()].wcet.grid();
  const util::Time pi = min_period(tasks, idx);

  model::Vcpu v;
  v.period = pi;
  v.vm = tasks[idx.front()].vm;
  v.tasks.assign(idx.begin(), idx.end());
  v.budget = model::WcetFn(grid);

  const auto emit_point = [&](unsigned c, unsigned b,
                              std::span<const analysis::PTask> ptasks,
                              const std::optional<util::Time>& theta) {
    auto* log = obs::decision_log();
    if (!log) return;
    obs::DecisionEvent e;
    e.kind = obs::DecisionKind::kBudgetPoint;
    e.vm = v.vm;
    e.cache = static_cast<std::int32_t>(c);
    e.bw = static_cast<std::int32_t>(b);
    if (theta) {
      e.accepted = true;
      e.value = theta->ratio(pi);   // budget fraction Θ/Π
      e.margin = 1.0 - e.value;     // headroom to a fully-loaded VCPU
    } else {
      // Θ ≥ u·Π is a lower bound on any feasible budget, so the cell is
      // short by at least u − 1 budget fractions.
      double u = 0;
      for (const auto& t : ptasks) u += t.wcet.ratio(t.period);
      e.constraint = obs::DecisionConstraint::kNoFeasibleBudget;
      e.value = u;
      e.margin = std::max(0.0, u - 1.0);
    }
    log->emit(e);
  };

  if (analysis::fast_kernels_enabled()) {
    // Fast path: materialize every grid cell's task view in the context
    // arena and answer the whole budget surface in one batch (shared
    // checkpoint stream, optional inner-parallel striping). Decision
    // events are replayed serially below in the legacy cell order and
    // interleaving: [kBudgetSearch iff that cell ran a fresh search]
    // then kBudgetPoint, per cell.
    const std::size_t nc = grid.c_max - grid.c_min + 1u;
    const std::size_t nb = grid.b_max - grid.b_min + 1u;
    const std::size_t cells = nc * nb;
    util::Arena::Scope mark(ctx.arena());
    auto cell_tasks =
        ctx.arena().alloc_array<analysis::PTask>(cells * idx.size());
    auto queries =
        ctx.arena().alloc_array<std::span<const analysis::PTask>>(cells);
    std::size_t cell = 0;
    for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
      for (unsigned b = grid.b_min; b <= grid.b_max; ++b, ++cell) {
        analysis::PTask* dst = cell_tasks.data() + cell * idx.size();
        for (std::size_t k = 0; k < idx.size(); ++k)
          dst[k] = {tasks[idx[k]].period, tasks[idx[k]].wcet.at(c, b)};
        queries[cell] = {dst, idx.size()};
      }
    const auto res = ctx.min_budget_batch(queries, pi);
    cell = 0;
    for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
      for (unsigned b = grid.b_min; b <= grid.b_max; ++b, ++cell) {
        const auto& r = res[cell];
        v.budget.set(c, b, r.theta ? *r.theta : pi * 2);
        if (r.searched)
          analysis::AnalysisContext::emit_budget_search(queries[cell], pi,
                                                        r.theta);
        emit_point(c, b, queries[cell], r.theta);
      }
    return v;
  }

  std::vector<analysis::PTask> ptasks(idx.size());
  // Budget surfaces are non-increasing in c and b (WCET surfaces are
  // monotone), so the budget already found at (c−1, b) or (c, b−1) is a
  // feasible upper bound here: it seeds the bounded binary search without
  // changing the minimum. prev_row holds Θ(c−1, ·).
  std::vector<std::optional<util::Time>> prev_row(grid.bw_levels());
  for (unsigned c = grid.c_min; c <= grid.c_max; ++c) {
    std::optional<util::Time> left;
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b) {
      for (std::size_t k = 0; k < idx.size(); ++k)
        ptasks[k] = {tasks[idx[k]].period, tasks[idx[k]].wcet.at(c, b)};
      std::optional<util::Time> hint = left;
      const auto& up = prev_row[b - grid.b_min];
      if (up && (!hint || *up < *hint)) hint = up;
      const auto theta = ctx.min_budget(ptasks, pi, hint);
      v.budget.set(c, b, theta ? *theta : pi * 2);
      emit_point(c, b, ptasks, theta);
      left = theta;
      prev_row[b - grid.b_min] = theta;
    }
  }
  return v;
}

model::Vcpu vcpu_existing_csa(const model::Taskset& tasks,
                              std::span<const std::size_t> idx) {
  analysis::AnalysisContext ctx;
  return vcpu_existing_csa(tasks, idx, ctx);
}

model::Vcpu vcpu_existing_csa_max_wcet(const model::Taskset& tasks,
                                       std::span<const std::size_t> idx,
                                       analysis::AnalysisContext& ctx) {
  VC2M_CHECK(!idx.empty());
  const auto& grid = tasks[idx.front()].wcet.grid();
  const util::Time pi = min_period(tasks, idx);

  std::vector<analysis::PTask> ptasks;
  ptasks.reserve(idx.size());
  for (const std::size_t i : idx)
    ptasks.push_back({tasks[i].period, tasks[i].max_wcet});
  const auto theta = ctx.min_budget(ptasks, pi);

  model::Vcpu v;
  v.period = pi;
  v.vm = tasks[idx.front()].vm;
  v.tasks.assign(idx.begin(), idx.end());
  v.budget = model::WcetFn(grid, theta ? *theta : pi * 2);
  return v;
}

model::Vcpu vcpu_existing_csa_max_wcet(const model::Taskset& tasks,
                                       std::span<const std::size_t> idx) {
  analysis::AnalysisContext ctx;
  return vcpu_existing_csa_max_wcet(tasks, idx, ctx);
}

std::vector<std::vector<std::size_t>> tasks_by_vm(
    const model::Taskset& tasks) {
  std::map<int, std::vector<std::size_t>> by_vm;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    by_vm[tasks[i].vm].push_back(i);
  std::vector<std::vector<std::size_t>> out;
  out.reserve(by_vm.size());
  for (auto& [vm, idx] : by_vm) out.push_back(std::move(idx));
  return out;
}

std::vector<model::Vcpu> allocate_vm_heuristic(
    const model::Taskset& tasks, std::span<const std::size_t> vm_task_idx,
    const VmAllocConfig& cfg, analysis::AnalysisContext& ctx, util::Rng& rng) {
  VC2M_CHECK(!vm_task_idx.empty());
  VC2M_CHECK(cfg.max_vcpus_per_vm >= 1);

  if (cfg.analysis == VcpuAnalysis::kFlattening) {
    std::vector<model::Vcpu> vcpus;
    vcpus.reserve(vm_task_idx.size());
    for (const std::size_t i : vm_task_idx)
      vcpus.push_back(analysis::flattened_vcpu(tasks[i], i));
    return vcpus;
  }

  const std::size_t n = vm_task_idx.size();
  const std::size_t m = std::min<std::size_t>(n, cfg.max_vcpus_per_vm);
  const std::size_t k = std::min({cfg.clusters, m, n});

  // Cluster by slowdown vector.
  FeatureMatrix points(tasks[vm_task_idx.front()].wcet.grid().size());
  points.reserve_rows(n);
  for (const std::size_t i : vm_task_idx) points.add_slowdown(tasks[i].wcet);
  const auto clusters = [&] {
    VC2M_PROFILE_PHASE("cluster");
    return cluster_members(kmeans(points, k, rng), k);
  }();

  // Pack tasks onto the m VCPUs worst-fit in decreasing reference
  // utilization (so VCPU loads stay similar), iterating clusters in
  // decreasing total-utilization order. Among near-tied VCPUs, a small
  // affinity bonus prefers a VCPU already hosting the task's cluster, so
  // tasks with similar slowdown vectors share a VCPU whenever balance
  // permits (§4.2).
  std::vector<double> cluster_util(k, 0);
  for (std::size_t c = 0; c < k; ++c)
    for (const std::size_t local : clusters[c])
      cluster_util[c] += tasks[vm_task_idx[local]].reference_utilization();
  std::vector<std::size_t> cluster_order(k);
  std::iota(cluster_order.begin(), cluster_order.end(), 0);
  std::sort(cluster_order.begin(), cluster_order.end(),
            [&](std::size_t a, std::size_t b) {
              return cluster_util[a] > cluster_util[b];
            });

  constexpr double kAffinityBonus = 0.05;
  std::vector<std::vector<std::size_t>> vcpu_tasks(m);  // global indices
  std::vector<double> loads(m, 0);
  std::vector<std::size_t> bin_cluster(m, k);  // k = "no cluster yet"
  for (const std::size_t c : cluster_order) {
    std::vector<std::size_t> order = clusters[c];
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tasks[vm_task_idx[a]].reference_utilization() >
             tasks[vm_task_idx[b]].reference_utilization();
    });
    for (const std::size_t local : order) {
      const std::size_t best =
          packing::worst_fit_bin(loads, [&](std::size_t bi) {
            return (bin_cluster[bi] == c || bin_cluster[bi] == k)
                       ? kAffinityBonus
                       : 0.0;
          });
      vcpu_tasks[best].push_back(vm_task_idx[local]);
      loads[best] += tasks[vm_task_idx[local]].reference_utilization();
      if (bin_cluster[best] == k) bin_cluster[best] = c;
    }
  }
  std::erase_if(vcpu_tasks,
                [](const std::vector<std::size_t>& v) { return v.empty(); });

  std::vector<model::Vcpu> vcpus;
  vcpus.reserve(vcpu_tasks.size());
  VC2M_PROFILE_PHASE("vcpu_analysis");
  for (const auto& idx : vcpu_tasks) {
    switch (cfg.analysis) {
      case VcpuAnalysis::kRegulated:
        // Theorem 2 needs harmonic periods; non-harmonic inputs are split
        // into harmonic chains, one well-regulated VCPU each (a fully
        // harmonic bin — the §5.1 workloads — stays a single VCPU).
        for (const auto& group : analysis::harmonic_groups(tasks, idx))
          vcpus.push_back(analysis::regulated_vcpu(tasks, group));
        break;
      case VcpuAnalysis::kExistingCsa:
        vcpus.push_back(vcpu_existing_csa(tasks, idx, ctx));
        break;
      case VcpuAnalysis::kFlattening:
        VC2M_CHECK_MSG(false, "handled above");
    }
  }
  return vcpus;
}

std::vector<model::Vcpu> allocate_vm_heuristic(
    const model::Taskset& tasks, std::span<const std::size_t> vm_task_idx,
    const VmAllocConfig& cfg, util::Rng& rng) {
  analysis::AnalysisContext ctx;
  return allocate_vm_heuristic(tasks, vm_task_idx, cfg, ctx, rng);
}

std::vector<model::Vcpu> allocate_vms_heuristic(
    const model::Taskset& tasks, const VmAllocConfig& cfg,
    analysis::AnalysisContext& ctx, util::Rng& rng) {
  const auto t0 = std::chrono::steady_clock::now();
  VC2M_PROFILE_PHASE("vm_alloc");
  std::vector<model::Vcpu> all;
  for (const auto& vm_idx : tasks_by_vm(tasks)) {
    auto vcpus = allocate_vm_heuristic(tasks, vm_idx, cfg, ctx, rng);
    all.insert(all.end(), std::make_move_iterator(vcpus.begin()),
               std::make_move_iterator(vcpus.end()));
  }
  if (auto* ctr = util::alloc_counters())
    ctr->vm_alloc_seconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
  return all;
}

std::vector<model::Vcpu> allocate_vms_heuristic(const model::Taskset& tasks,
                                                const VmAllocConfig& cfg,
                                                util::Rng& rng) {
  analysis::AnalysisContext ctx;
  return allocate_vms_heuristic(tasks, cfg, ctx, rng);
}

}  // namespace vc2m::core

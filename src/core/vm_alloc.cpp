#include "core/vm_alloc.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
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

  // Answer the whole budget surface in one pass over the tasks' wcet
  // columns (one group memo, optional inner-parallel striping). Decision
  // events are replayed serially in cell order: [kBudgetSearch iff that
  // cell computed a fresh budget] then kBudgetPoint, per cell.
  const std::size_t cells = grid.size();
  util::Arena::Scope mark(ctx.arena());
  auto columns =
      ctx.arena().alloc_array<analysis::AnalysisContext::SurfaceTask>(
          idx.size());
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const auto& wcet = tasks[idx[k]].wcet;
    VC2M_CHECK_MSG(wcet.grid() == grid && wcet.flat().size() == cells,
                   "tasks on one VCPU must share a resource grid");
    std::construct_at(&columns[k], analysis::AnalysisContext::SurfaceTask{
                                       tasks[idx[k]].period, wcet.flat()});
  }
  auto res = ctx.arena().alloc_array<analysis::AnalysisContext::SurfaceCell>(
      cells);
  std::uninitialized_value_construct(res.begin(), res.end());
  ctx.min_budget_surface(columns, pi, res);

  auto* log = obs::decision_log();
  auto& budget = v.budget.flat();
  std::size_t cell = 0;
  for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b, ++cell) {
      const auto& r = res[cell];
      budget[cell] = r.theta ? *r.theta : pi * 2;
      if (!log) continue;
      // Θ ≥ u·Π is a lower bound on any feasible budget, so a cell with no
      // budget is short by at least u − 1 budget fractions.
      double u = 0;
      if (!r.theta)
        for (const auto& t : columns) u += t.wcets[cell].ratio(t.period);
      if (r.searched)
        analysis::AnalysisContext::emit_budget_search(pi, r.theta, u);
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kBudgetPoint;
      e.vm = v.vm;
      e.cache = static_cast<std::int32_t>(c);
      e.bw = static_cast<std::int32_t>(b);
      if (r.theta) {
        e.accepted = true;
        e.value = r.theta->ratio(pi);  // budget fraction Θ/Π
        e.margin = 1.0 - e.value;      // headroom to a fully-loaded VCPU
      } else {
        e.constraint = obs::DecisionConstraint::kNoFeasibleBudget;
        e.value = u;
        e.margin = std::max(0.0, u - 1.0);
      }
      log->emit(e);
    }
  return v;
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

namespace {

/// ws.shells[n], created on first use, with room for `tasks` task
/// indices. Reserving a VM's task count for every regulated shell lets
/// any of its VCPUs fit any shell, so a shell's task list stops growing
/// however placement reorders the shells.
model::Vcpu& shell(VmAllocWorkspace& ws, std::size_t n, std::size_t tasks) {
  if (ws.shells.size() == n) ws.shells.emplace_back();
  ws.shells[n].tasks.reserve(tasks);
  return ws.shells[n];
}

/// Empties lists[0, n), creating the ones `lists` lacks; lists past n
/// keep their contents and storage.
void clear_lists(std::vector<std::vector<std::size_t>>& lists,
                 std::size_t n) {
  if (lists.size() < n) lists.resize(n);
  for (std::size_t i = 0; i < n; ++i) lists[i].clear();
}

}  // namespace

std::span<model::Vcpu> shape_vm_vcpus(const model::Taskset& tasks,
                                      std::span<const std::size_t> vm_task_idx,
                                      const VmAllocConfig& cfg,
                                      analysis::AnalysisContext& ctx,
                                      util::Rng& rng, VmAllocWorkspace& ws) {
  VC2M_CHECK(!vm_task_idx.empty());
  VC2M_CHECK(cfg.max_vcpus_per_vm >= 1);
  // At most one VCPU per task: shell() never reallocates past this.
  ws.shells.reserve(vm_task_idx.size());
  std::size_t count = 0;

  if (cfg.analysis == VcpuAnalysis::kFlattening) {
    // Theorem 1: one VCPU per task, Π = p, Θ(c,b) = e(c,b).
    for (const std::size_t i : vm_task_idx) {
      const model::Task& t = tasks[i];
      model::Vcpu& v = shell(ws, count++, 1);
      v.period = t.period;
      v.vm = t.vm;
      v.tasks.assign(1, i);
      const auto& grid = t.wcet.grid();
      v.budget.reset(grid);
      v.budget.set(grid.c_max, grid.b_max, t.wcet.reference());
    }
    return {ws.shells.data(), count};
  }

  const std::size_t n = vm_task_idx.size();
  const std::size_t m = std::min<std::size_t>(n, cfg.max_vcpus_per_vm);
  const std::size_t k = std::min({cfg.clusters, m, n});

  // Cluster by slowdown vector.
  FeatureMatrix& points = ws.features;
  points.clear(tasks[vm_task_idx.front()].wcet.grid().size());
  points.reserve_rows(n);
  for (const std::size_t i : vm_task_idx) points.add_slowdown(tasks[i].wcet);
  auto& clusters = ws.clusters;
  {
    VC2M_PROFILE_PHASE("cluster");
    cluster_members(kmeans(points, k, rng, ws.kmeans), k, clusters);
  }

  // Pack tasks onto the m VCPUs worst-fit in decreasing reference
  // utilization (so VCPU loads stay similar), iterating clusters in
  // decreasing total-utilization order. Among near-tied VCPUs, a small
  // affinity bonus prefers a VCPU already hosting the task's cluster, so
  // tasks with similar slowdown vectors share a VCPU whenever balance
  // permits (§4.2).
  auto& cluster_util = ws.cluster_util;
  cluster_util.assign(k, 0);
  for (std::size_t c = 0; c < k; ++c)
    for (const std::size_t local : clusters[c])
      cluster_util[c] += tasks[vm_task_idx[local]].reference_utilization();
  auto& cluster_order = ws.cluster_order;
  cluster_order.resize(k);
  std::iota(cluster_order.begin(), cluster_order.end(), 0);
  std::sort(cluster_order.begin(), cluster_order.end(),
            [&](std::size_t a, std::size_t b) {
              return cluster_util[a] > cluster_util[b];
            });

  constexpr double kAffinityBonus = 0.05;
  auto& bins = ws.bins;  // global task indices per VCPU
  clear_lists(bins, m);
  auto& loads = ws.loads;
  loads.assign(m, 0);
  auto& bin_cluster = ws.bin_cluster;
  bin_cluster.assign(m, k);  // k = "no cluster yet"
  clusters.sort_each([&](std::size_t a, std::size_t b) {
    return tasks[vm_task_idx[a]].reference_utilization() >
           tasks[vm_task_idx[b]].reference_utilization();
  });
  for (const std::size_t c : cluster_order) {
    for (const std::size_t local : clusters[c]) {
      const std::size_t best =
          packing::worst_fit_bin(loads, [&](std::size_t bi) {
            return (bin_cluster[bi] == c || bin_cluster[bi] == k)
                       ? kAffinityBonus
                       : 0.0;
          });
      bins[best].push_back(vm_task_idx[local]);
      loads[best] += tasks[vm_task_idx[local]].reference_utilization();
      if (bin_cluster[best] == k) bin_cluster[best] = c;
    }
  }

  VC2M_PROFILE_PHASE("vcpu_analysis");
  for (std::size_t b = 0; b < m; ++b) {
    const auto& idx = bins[b];
    if (idx.empty()) continue;  // fewer tasks than VCPUs in a cluster mix
    switch (cfg.analysis) {
      case VcpuAnalysis::kRegulated: {
        // Theorem 2 needs harmonic periods; non-harmonic inputs are split
        // into harmonic chains, one well-regulated VCPU each (a fully
        // harmonic bin — the §5.1 workloads — stays a single VCPU).
        const std::size_t chains =
            analysis::harmonic_groups(tasks, idx, ws.groups, ws.order);
        for (std::size_t g = 0; g < chains; ++g) {
          const auto& group = ws.groups[g];
          auto& theta = ws.regulated;
          theta.reset(tasks, group);
          model::Vcpu& v = shell(ws, count++, vm_task_idx.size());
          v.period = theta.period();
          v.vm = tasks[group.front()].vm;
          v.tasks.assign(group.begin(), group.end());
          const auto& grid = theta.grid();
          v.budget.reset(grid);
          v.budget.set(grid.c_max, grid.b_max,
                       theta.at(grid.index(grid.c_max, grid.b_max)));
        }
        break;
      }
      case VcpuAnalysis::kExistingCsa:
        // The whole VCPU replaces the shell, storage included.
        shell(ws, count++, 0) = vcpu_existing_csa(tasks, idx, ctx);
        break;
      case VcpuAnalysis::kFlattening:
        VC2M_CHECK_MSG(false, "handled above");
    }
  }
  return {ws.shells.data(), count};
}

void fill_vcpu_surface(const model::Taskset& tasks, VcpuAnalysis analysis,
                       model::Vcpu& v, VmAllocWorkspace& ws) {
  switch (analysis) {
    case VcpuAnalysis::kFlattening:
      v.budget = tasks[v.tasks.front()].wcet;
      return;
    case VcpuAnalysis::kRegulated:
      ws.regulated.reset(tasks, v.tasks);
      ws.regulated.fill(v.budget.flat());
      return;
    case VcpuAnalysis::kExistingCsa:
      return;
  }
}

std::vector<model::Vcpu> allocate_vms_heuristic(
    const model::Taskset& tasks, const VmAllocConfig& cfg,
    analysis::AnalysisContext& ctx, util::Rng& rng) {
  const auto t0 = std::chrono::steady_clock::now();
  VC2M_PROFILE_PHASE("vm_alloc");
  VmAllocWorkspace ws;
  std::vector<model::Vcpu> all;
  for (const auto& vm_idx : tasks_by_vm(tasks)) {
    const auto vcpus = shape_vm_vcpus(tasks, vm_idx, cfg, ctx, rng, ws);
    {
      VC2M_PROFILE_PHASE("surface");
      for (auto& v : vcpus) fill_vcpu_surface(tasks, cfg.analysis, v, ws);
    }
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

// VM-level resource allocation (§4.2): tasks → VCPUs and VCPU parameters.
//
// The heuristic path clusters a VM's tasks by slowdown vector (so tasks
// sharing a VCPU — and hence eventually a core — make similar use of the
// cache/BW granted to that core), distributes the VM's VCPUs over the
// clusters in proportion to cluster load, and packs each cluster's tasks
// onto its VCPUs worst-fit in decreasing reference utilization so that all
// VCPUs carry similar load. VCPU parameters come from one of:
//   - Theorem 1 (flattening: one task per VCPU, Π = p, Θ(c,b) = e(c,b)),
//   - Theorem 2 (well-regulated VCPU, Π = min p_i, Θ = Π·Σ e_i/p_i), or
//   - the existing CSA [13] (PRM minimum budget per grid point) for the
//     Heuristic (existing CSA) comparison solution.
//
// The heuristic runs in two steps. shape_vm_vcpus gives each VCPU its
// tasks, Π and reference budget Θ(C,B); fill_vcpu_surface computes the
// rest of a Theorem-1/2 surface, one exact formula per cell. The offline
// solve runs both steps in a row; admission fills a VCPU only when its
// placement first probes it, so a VM rejected at its first VCPU costs
// one surface instead of all of them.
//
// The existing-CSA paths take an analysis::AnalysisContext: a VCPU's whole
// 380-cell budget surface is one min_budget_surface pass over the tasks'
// wcet columns, which memoizes budgets per (Π, periods) group, shares one
// checkpoint stream and job-count matrix across the cells and computes each
// fresh budget exactly, without a search. The context-free overloads run
// with a private context.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "analysis/theorems.h"
#include "core/kmeans.h"
#include "core/packing.h"
#include "model/task.h"
#include "util/rng.h"

namespace vc2m::util {
class ThreadPool;
}

namespace vc2m::core {

enum class VcpuAnalysis {
  kFlattening,   ///< Theorem 1
  kRegulated,    ///< Theorem 2 (overhead-free CSA)
  kExistingCsa,  ///< periodic resource model [13]
};

struct VmAllocConfig {
  /// Upper bound on VCPUs per VM; the heuristic uses m = min(#tasks, this).
  unsigned max_vcpus_per_vm = 4;
  /// Number of slowdown classes for KMeans (clamped to min(m, #tasks)).
  std::size_t clusters = 4;
  VcpuAnalysis analysis = VcpuAnalysis::kRegulated;
  /// Intra-decision parallelism for paths that build their own context
  /// (admission): stripes for the min-budget surface passes (1 = serial,
  /// 0 = hardware) over `inner_pool` (borrowed; results are bit-identical
  /// at any setting, see docs/performance.md). Ignored when the caller
  /// supplies an AnalysisContext — configure that context instead.
  int inner_jobs = 1;
  util::ThreadPool* inner_pool = nullptr;
  /// Telemetry correlation id for the request that triggered this decision
  /// (the serve trace seq). Echoed into AdmitResult and stamped on the
  /// decision's AnalysisContext; -1 = not request-scoped. Never affects
  /// the allocation.
  std::int64_t request_id = -1;
};

/// Compute the existing-CSA (PRM) VCPU for the tasks at `idx`: Π = the
/// minimum task period, Θ(c,b) = the minimum PRM budget for the tasks'
/// WCETs at (c,b). Grid points where no feasible budget exists get Θ = 2Π,
/// which any core-schedulability test rejects.
model::Vcpu vcpu_existing_csa(const model::Taskset& tasks,
                              std::span<const std::size_t> idx,
                              analysis::AnalysisContext& ctx);

/// Existing-CSA VCPU computed at a single fixed WCET per task (used by the
/// Baseline, which assumes worst-case bandwidth and no cache): the budget
/// surface is constant.
model::Vcpu vcpu_existing_csa_max_wcet(const model::Taskset& tasks,
                                       std::span<const std::size_t> idx,
                                       analysis::AnalysisContext& ctx);

/// The VM-level heuristic's scratch and the VCPU shells it shapes. Every
/// buffer is reused, so once they have grown to a caller's largest VM,
/// shaping and filling flattened or regulated VCPUs allocates nothing.
/// The contents are scratch between calls; one workspace serves one
/// thread.
struct VmAllocWorkspace {
  FeatureMatrix features{0};
  KMeansWorkspace kmeans;
  Clusters clusters;
  std::vector<double> cluster_util;
  std::vector<std::size_t> cluster_order;
  std::vector<std::vector<std::size_t>> bins;  ///< task indices per VCPU bin
  std::vector<double> loads;
  std::vector<std::size_t> bin_cluster;
  std::vector<std::vector<std::size_t>> groups;  ///< one bin's harmonic chains
  std::vector<std::size_t> order;
  analysis::RegulatedBudget regulated;
  std::vector<model::Vcpu> shells;
};

/// The heuristic's first step, for the tasks of one VM (given by indices
/// into `tasks`): clustering, worst-fit packing and Theorem 2's harmonic
/// split give each VCPU its tasks, Π and VM. Returns the VCPUs, which live
/// in ws.shells. A flattened or regulated VCPU's budget holds only its
/// reference cell Θ(C,B), one cell of the exact formula the full surface
/// uses, so its reference utilization is final; fill_vcpu_surface computes
/// the other cells. An existing-CSA VCPU gets its whole surface here,
/// emitting its decision events in cell order.
std::span<model::Vcpu> shape_vm_vcpus(const model::Taskset& tasks,
                                      std::span<const std::size_t> vm_task_idx,
                                      const VmAllocConfig& cfg,
                                      analysis::AnalysisContext& ctx,
                                      util::Rng& rng, VmAllocWorkspace& ws);

/// The second step: every cell of the budget surface of `v`, a VCPU
/// shape_vm_vcpus returned for `tasks` under `analysis` (Theorem 1: its
/// task's WCETs; Theorem 2: the regulated budget). Existing-CSA surfaces
/// are already whole, so they are left as they are.
void fill_vcpu_surface(const model::Taskset& tasks, VcpuAnalysis analysis,
                       model::Vcpu& v, VmAllocWorkspace& ws);

/// Run the heuristic per VM over a whole taskset (tasks carry VM ids),
/// both steps, every surface whole. Returns the VCPUs, VM by VM, with
/// parameters per `cfg.analysis`.
std::vector<model::Vcpu> allocate_vms_heuristic(
    const model::Taskset& tasks, const VmAllocConfig& cfg,
    analysis::AnalysisContext& ctx, util::Rng& rng);
std::vector<model::Vcpu> allocate_vms_heuristic(const model::Taskset& tasks,
                                                const VmAllocConfig& cfg,
                                                util::Rng& rng);

/// Group task indices by VM id, ascending.
std::vector<std::vector<std::size_t>> tasks_by_vm(const model::Taskset& tasks);

}  // namespace vc2m::core

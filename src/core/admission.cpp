#include "core/admission.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <span>

#include "analysis/context.h"
#include "core/core_load.h"
#include "obs/decision_log.h"
#include "util/error.h"
#include "util/phase_profiler.h"

namespace vc2m::core {
namespace {

/// Minimal (cache, bw) the core behind `cl` needs to absorb its VCPU set,
/// growing from its current allocation with max-gain grants bounded by the
/// free pools. Returns the final allocation or nullopt. Probing through the
/// CoreLoad lets the grant loop and the candidate comparison reuse each
/// already-summed grid point instead of re-deriving it per probe.
std::optional<std::pair<unsigned, unsigned>> fit_with_grants(
    CoreLoad& cl, unsigned c, unsigned b, unsigned free_c, unsigned free_b,
    const model::ResourceGrid& grid) {
  model::GridPoint at = grid.point(c, b);
  while (!cl.schedulable(at)) {
    double best_gain = 0;
    bool grant_cache = false;
    const double u_now = cl.utilization(at);
    if (free_c > 0 && at.c < grid.c_max) {
      const double gain = u_now - cl.utilization(grid.more_cache(at));
      if (gain > best_gain) {
        best_gain = gain;
        grant_cache = true;
      }
    }
    if (free_b > 0 && at.b < grid.b_max) {
      const double gain = u_now - cl.utilization(grid.more_bw(at));
      if (gain > best_gain) {
        best_gain = gain;
        grant_cache = false;
      }
    }
    if (best_gain <= 1e-15) return std::nullopt;  // no grant helps
    if (grant_cache) {
      at = grid.more_cache(at);
      --free_c;
    } else {
      at = grid.more_bw(at);
      --free_b;
    }
  }
  return std::make_pair(at.c, at.b);
}

/// Takes `vm_id`'s VCPUs off their cores in `mapping` and trims empty
/// trailing cores (interior cores keep their partitions — shrinking them
/// would perturb running VMs' cache contents). Indices still refer into
/// `vcpus`.
void take_off(std::span<const model::Vcpu> vcpus, HvAllocResult& mapping,
              int vm_id) {
  for (auto& core : mapping.vcpus_on_core)
    std::erase_if(core, [&](std::size_t v) { return vcpus[v].vm == vm_id; });
  while (!mapping.vcpus_on_core.empty() &&
         mapping.vcpus_on_core.back().empty()) {
    mapping.vcpus_on_core.pop_back();
    mapping.cache.pop_back();
    mapping.bw.pop_back();
    --mapping.cores_used;
  }
}

/// The committed state: `placed` without VM `dropped`'s VCPUs, then
/// `added`, with a copy of `mapping` (which indexes `placed ++ added`)
/// remapped onto the compacted vector; `remap` is scratch. The only place
/// a decision copies VCPUs.
AdmissionState compact(std::span<const model::Vcpu> placed,
                       std::optional<int> dropped,
                       std::span<const model::Vcpu> added,
                       const HvAllocResult& mapping,
                       std::vector<std::size_t>& remap) {
  AdmissionState next;
  const std::size_t total = placed.size() + added.size();
  remap.assign(total, total);
  next.vcpus.reserve(total);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    if (placed[i].vm == dropped) continue;
    remap[i] = next.vcpus.size();
    next.vcpus.push_back(placed[i]);
  }
  for (std::size_t j = 0; j < added.size(); ++j) {
    remap[placed.size() + j] = next.vcpus.size();
    next.vcpus.push_back(added[j]);
  }
  next.mapping = mapping;
  for (auto& core : next.mapping.vcpus_on_core)
    for (auto& v : core) v = remap[v];
  next.mapping.schedulable = true;
  return next;
}

/// admit_vm over a running system given as `placed` (only the VCPUs
/// ws.mapping lists are live; a resize leaves the `dropped` VM's VCPUs in
/// `placed` but off every core) without copying it. New VCPU j has index
/// placed.size() + j in the probes and in the mapping; decision events
/// name it by its index in the committed state. Nothing is copied unless
/// the VM is admitted.
AdmitResult place_vm(std::span<const model::Vcpu> placed,
                     std::optional<int> dropped,
                     const model::Taskset& vm_tasks, int vm_id,
                     const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng,
                     AdmissionWorkspace& ws) {
  VC2M_CHECK(!vm_tasks.empty());
  for (const auto& t : vm_tasks)
    VC2M_CHECK_MSG(t.vm == vm_id, "task does not belong to the admitted VM");
  const auto live = static_cast<std::size_t>(
      std::count_if(placed.begin(), placed.end(),
                    [&](const model::Vcpu& v) { return v.vm != dropped; }));

  AdmitResult result;
  result.request_id = vm_cfg.request_id;
  analysis::AnalysisContext ctx;  // one memo + counter scope per decision
  ctx.set_inner_parallelism(vm_cfg.inner_pool, vm_cfg.inner_jobs);
  ctx.set_request_id(vm_cfg.request_id);

  // Shape the new VM's VCPUs; their surfaces wait for the first probe.
  std::span<model::Vcpu> new_vcpus;
  {
    VC2M_PROFILE_PHASE("vm_level");
    auto& idx = ws.task_idx;
    idx.resize(vm_tasks.size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    new_vcpus = shape_vm_vcpus(vm_tasks, idx, vm_cfg, ctx, rng, ws.vm);
  }
  VC2M_PROFILE_PHASE("place");
  std::sort(new_vcpus.begin(), new_vcpus.end(),
            [](const model::Vcpu& a, const model::Vcpu& b) {
              return a.reference_utilization() > b.reference_utilization();
            });
  for (auto& vcpu : new_vcpus) vcpu.vm = vm_id;

  HvAllocResult& mapping = ws.mapping;
  const auto& grid = platform.grid;
  unsigned free_c = platform.total_cache() - mapping.total_cache();
  unsigned free_b = platform.total_bw() - mapping.total_bw();

  // One probe core, cleared for every candidate placement.
  CoreLoad& probe = ws.probe;
  probe.reset(placed, new_vcpus, grid);
  for (std::size_t j = 0; j < new_vcpus.size(); ++j) {
    const std::size_t vi = placed.size() + j;
    const auto entity = static_cast<std::int32_t>(live + j);
    {
      // Every probe below adds VCPU j; those before it are filled.
      VC2M_PROFILE_PHASE("surface");
      fill_vcpu_surface(vm_tasks, vm_cfg.analysis, new_vcpus[j], ws.vm);
    }

    // Candidate placements compete on pool consumption (partitions newly
    // drawn from the free pools), ties broken toward lower utilization —
    // so a lightly loaded or fresh core beats squeezing onto a hot one
    // with expensive grants.
    std::size_t best_core = mapping.cores_used;  // == "open new core"
    bool have_candidate = false;
    std::pair<unsigned, unsigned> best_alloc{0, 0};
    unsigned best_cost = ~0u;
    double best_util = 2.0;
    for (unsigned k = 0; k < mapping.cores_used; ++k) {
      probe.clear();
      for (const std::size_t v : mapping.vcpus_on_core[k]) probe.add(v);
      probe.add(vi);
      const auto fit = fit_with_grants(probe, mapping.cache[k],
                                       mapping.bw[k], free_c, free_b, grid);
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kAdmitPlacement;
        e.vm = vm_id;
        e.entity = entity;
        e.core = static_cast<std::int32_t>(k);
        if (fit) {
          e.accepted = true;
          e.cache = static_cast<std::int32_t>(fit->first);
          e.bw = static_cast<std::int32_t>(fit->second);
          const double u = probe.utilization(fit->first, fit->second);
          e.value = u;
          e.margin = 1.0 - u;
        } else {
          // No grant sequence from the current partitions makes the core
          // schedulable with the VCPU added.
          e.constraint = obs::DecisionConstraint::kNoBeneficialGrant;
          e.cache = static_cast<std::int32_t>(mapping.cache[k]);
          e.bw = static_cast<std::int32_t>(mapping.bw[k]);
          const double u =
              probe.utilization(mapping.cache[k], mapping.bw[k]);
          e.value = u;
          e.margin = std::max(0.0, u - 1.0);
        }
        log->emit(e);
      }
      if (!fit) continue;
      const unsigned cost =
          (fit->first - mapping.cache[k]) + (fit->second - mapping.bw[k]);
      const double u = probe.utilization(fit->first, fit->second);
      if (cost < best_cost || (cost == best_cost && u < best_util)) {
        best_core = k;
        best_alloc = *fit;
        best_cost = cost;
        best_util = u;
        have_candidate = true;
      }
    }
    if (mapping.cores_used < platform.cores && free_c >= grid.c_min &&
        free_b >= grid.b_min) {
      probe.clear();
      probe.add(vi);
      const auto fit =
          fit_with_grants(probe, grid.c_min, grid.b_min, free_c - grid.c_min,
                          free_b - grid.b_min, grid);
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kAdmitPlacement;
        e.vm = vm_id;
        e.entity = entity;
        e.core = static_cast<std::int32_t>(mapping.cores_used);  // new
        if (fit) {
          e.accepted = true;
          e.cache = static_cast<std::int32_t>(fit->first);
          e.bw = static_cast<std::int32_t>(fit->second);
          const double u = probe.utilization(fit->first, fit->second);
          e.value = u;
          e.margin = 1.0 - u;
        } else {
          e.constraint = obs::DecisionConstraint::kNoBeneficialGrant;
          e.cache = static_cast<std::int32_t>(grid.c_min);
          e.bw = static_cast<std::int32_t>(grid.b_min);
          const double u = probe.utilization(grid.c_min, grid.b_min);
          e.value = u;
          e.margin = std::max(0.0, u - 1.0);
        }
        log->emit(e);
      }
      if (fit) {
        const unsigned cost = fit->first + fit->second;
        const double u = probe.utilization(fit->first, fit->second);
        if (cost < best_cost || (cost == best_cost && u < best_util)) {
          best_core = mapping.cores_used;
          best_alloc = *fit;
          have_candidate = true;
        }
      }
    }
    if (!have_candidate) {  // rejection: nothing was copied or committed
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kAdmitVerdict;
        e.vm = vm_id;
        e.entity = entity;
        e.value = new_vcpus[j].reference_utilization();
        if (mapping.cores_used >= platform.cores) {
          e.constraint = obs::DecisionConstraint::kCoreLimit;
        } else if (free_c < grid.c_min) {
          e.constraint = obs::DecisionConstraint::kCachePoolExhausted;
          e.margin = static_cast<double>(grid.c_min - free_c);
        } else if (free_b < grid.b_min) {
          e.constraint = obs::DecisionConstraint::kBwPoolExhausted;
          e.margin = static_cast<double>(grid.b_min - free_b);
        } else {
          e.constraint = obs::DecisionConstraint::kNoBeneficialGrant;
        }
        log->emit(e);
      }
      return result;
    }

    if (best_core < mapping.cores_used) {
      free_c -= best_alloc.first - mapping.cache[best_core];
      free_b -= best_alloc.second - mapping.bw[best_core];
      mapping.cache[best_core] = best_alloc.first;
      mapping.bw[best_core] = best_alloc.second;
      mapping.vcpus_on_core[best_core].push_back(vi);
    } else {
      free_c -= best_alloc.first;
      free_b -= best_alloc.second;
      mapping.vcpus_on_core.push_back({vi});
      mapping.cache.push_back(best_alloc.first);
      mapping.bw.push_back(best_alloc.second);
      ++mapping.cores_used;
    }
  }

  if (auto* log = obs::decision_log()) {
    obs::DecisionEvent e;
    e.kind = obs::DecisionKind::kAdmitVerdict;
    e.accepted = true;
    e.vm = vm_id;
    e.core = static_cast<std::int32_t>(mapping.cores_used);
    e.value = static_cast<double>(new_vcpus.size());
    log->emit(e);
  }
  result.admitted = true;
  result.state = compact(placed, dropped, new_vcpus, mapping, ws.remap);
  return result;
}

bool vm_present(const AdmissionState& st, int vm_id) {
  return std::any_of(st.vcpus.begin(), st.vcpus.end(),
                     [&](const model::Vcpu& v) { return v.vm == vm_id; });
}

}  // namespace

AdmitResult admit_vm(const AdmissionState& current,
                     const model::Taskset& vm_tasks, int vm_id,
                     const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng) {
  AdmissionWorkspace ws;
  return admit_vm(current, vm_tasks, vm_id, platform, vm_cfg, rng, ws);
}

AdmitResult admit_vm(const AdmissionState& current,
                     const model::Taskset& vm_tasks, int vm_id,
                     const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng,
                     AdmissionWorkspace& ws) {
  VC2M_CHECK_MSG(!vm_present(current, vm_id), "VM id already present");
  ws.mapping = current.mapping;
  return place_vm(current.vcpus, std::nullopt, vm_tasks, vm_id, platform,
                  vm_cfg, rng, ws);
}

AdmissionState remove_vm(const AdmissionState& current, int vm_id) {
  VC2M_CHECK_MSG(vm_present(current, vm_id), "VM id not present");
  HvAllocResult mapping = current.mapping;
  take_off(current.vcpus, mapping, vm_id);
  std::vector<std::size_t> remap;
  return compact(current.vcpus, vm_id, {}, mapping, remap);
}

AdmitResult resize_vm(const AdmissionState& current,
                      const model::Taskset& new_tasks, int vm_id,
                      const model::PlatformSpec& platform,
                      const VmAllocConfig& vm_cfg, util::Rng& rng) {
  AdmissionWorkspace ws;
  return resize_vm(current, new_tasks, vm_id, platform, vm_cfg, rng, ws);
}

AdmitResult resize_vm(const AdmissionState& current,
                      const model::Taskset& new_tasks, int vm_id,
                      const model::PlatformSpec& platform,
                      const VmAllocConfig& vm_cfg, util::Rng& rng,
                      AdmissionWorkspace& ws) {
  VC2M_CHECK_MSG(vm_present(current, vm_id), "resize: VM id not present");
  // The old VM comes off its cores in the probe mapping only; `current` is
  // never touched, so a rejection rolls back by returning nothing, and the
  // committed state is built (old VM dropped) only on success.
  ws.mapping = current.mapping;
  take_off(current.vcpus, ws.mapping, vm_id);
  return place_vm(current.vcpus, vm_id, new_tasks, vm_id, platform, vm_cfg,
                  rng, ws);
}

}  // namespace vc2m::core

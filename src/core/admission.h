// Online admission control: grow or shrink a running system without
// disturbing the VMs already placed.
//
// The paper's allocator is offline (§4); a deployed hypervisor also needs
// to admit a VM into a system that is already running. `admit_vm` places
// the new VM's VCPUs using only headroom: existing VCPUs stay on their
// cores, existing cores may *gain* cache/BW partitions from the free pools
// but never lose any (so running guarantees are untouched), and unused
// cores may be brought up. `remove_vm` releases a VM's VCPUs and returns
// its cores' now-free capacity to the pools (partitions stay with the
// cores until a later admission redistributes the free pool).
#pragma once

#include <cstddef>
#include <vector>

#include "core/core_load.h"
#include "core/hv_alloc.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "model/task.h"
#include "util/rng.h"

namespace vc2m::core {

struct AdmissionState {
  /// All placed VCPUs; `mapping.vcpus_on_core` indexes into this vector.
  std::vector<model::Vcpu> vcpus;
  HvAllocResult mapping;
};

struct AdmitResult {
  bool admitted = false;
  /// The updated system on success; empty on rejection (the caller keeps
  /// using its own, untouched AdmissionState — rejection is atomic).
  AdmissionState state;
  /// Echo of `vm_cfg.request_id` (the serve trace seq that triggered this
  /// decision; -1 when not request-scoped), present on success and on
  /// rejection so telemetry can correlate either outcome.
  std::int64_t request_id = -1;
};

/// The scratch of admission decisions: the VM-level heuristic's tables
/// and VCPU shells, the probe core and the probed copy of the placement
/// mapping. A caller that decides again and again (the admission service)
/// keeps one and passes it to every admit_vm/resize_vm, which then
/// allocate nothing on a rejection once the buffers have grown. The
/// contents are scratch between decisions; one workspace serves one
/// thread.
struct AdmissionWorkspace {
  VmAllocWorkspace vm;
  CoreLoad probe;
  HvAllocResult mapping;
  std::vector<std::size_t> task_idx;
  std::vector<std::size_t> remap;  ///< probe index → committed index
};

/// Try to admit a VM (the tasks must all carry `vm_id`) into `current`.
/// New VCPUs are parameterized per `vm_cfg.analysis`, packed best-fit onto
/// the least-loaded feasible cores, with greedy partition grants from the
/// free pools when a core needs more resources; a new core is opened only
/// when no existing core fits. On failure the running system is untouched.
///
/// VCPUs are placed in decreasing reference utilization, and a flattened
/// or regulated VCPU's budget surface is computed only when placement
/// first probes it: a rejection at the first VCPU computes one surface.
/// Existing-CSA surfaces are computed for every VCPU up front.
AdmitResult admit_vm(const AdmissionState& current,
                     const model::Taskset& vm_tasks, int vm_id,
                     const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng);
/// The same decision in `ws`'s buffers.
AdmitResult admit_vm(const AdmissionState& current,
                     const model::Taskset& vm_tasks, int vm_id,
                     const model::PlatformSpec& platform,
                     const VmAllocConfig& vm_cfg, util::Rng& rng,
                     AdmissionWorkspace& ws);

/// Remove every VCPU belonging to `vm_id`. Cores keep their partition
/// allocations (still valid supersets); empty trailing cores are trimmed.
AdmissionState remove_vm(const AdmissionState& current, int vm_id);

/// Replace a running VM's workload: remove `vm_id`, then re-admit it with
/// `new_tasks` (which must all carry `vm_id`). Transactional like admit_vm:
/// on success the result holds the resized system; on rejection the result
/// is empty and the caller keeps using `current` — the original VM is never
/// lost to a failed resize. Throws util::Error when `vm_id` is not present.
AdmitResult resize_vm(const AdmissionState& current,
                      const model::Taskset& new_tasks, int vm_id,
                      const model::PlatformSpec& platform,
                      const VmAllocConfig& vm_cfg, util::Rng& rng);
/// The same decision in `ws`'s buffers.
AdmitResult resize_vm(const AdmissionState& current,
                      const model::Taskset& new_tasks, int vm_id,
                      const model::PlatformSpec& platform,
                      const VmAllocConfig& vm_cfg, util::Rng& rng,
                      AdmissionWorkspace& ws);

}  // namespace vc2m::core

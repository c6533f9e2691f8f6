// Deploy an allocator result onto the simulated prototype.
//
// Bridges the analysis world (cache/BW-aware tasks, VCPU parameter
// surfaces, core mappings) to the runtime world (SimConfig): each VCPU's
// budget is evaluated at its core's allocated (c, b), each task becomes an
// execution model on its VCPU, the regulator is configured with the
// per-core bandwidth budgets, and — when the caller asks, as obs::audit
// does for flattening solutions — release synchronization is enabled.
//
// Two execution models are supported:
//   - kCpuOnly: a task's job requirement is exactly e(c,b) of the core it
//     landed on, with no memory traffic. This validates the *scheduling*
//     math (EDF feasibility of budgets/mappings) in isolation.
//   - kPhysical: the task runs the physical model of its PARSEC profile
//     (CPU + memory work, miss curve, request stream), with the WCET
//     surfaces re-measured on the simulator beforehand. This exercises the
//     full stack including the regulator.
#pragma once

#include <functional>
#include <vector>

#include "core/hv_alloc.h"
#include "model/platform.h"
#include "model/task.h"
#include "sim/profiling.h"
#include "sim/simulation.h"

namespace vc2m::sim {

enum class ExecModel {
  kCpuOnly,   ///< requirement = e(c,b) of the landing core; no memory
  kPhysical,  ///< PARSEC physical model + bandwidth regulation
};

struct DeployConfig {
  ExecModel exec = ExecModel::kCpuOnly;
  /// Per-task physical models, parallel to the taskset (kPhysical only).
  std::vector<WorkloadModel> workloads;
  /// Enable the release-synchronization hypercalls (Theorem 1 setups).
  bool release_sync = false;
  util::Time regulation_period = util::Time::ms(1);
  double requests_per_partition = 1000.0;
  bool capture_trace = false;
};

/// Build the SimConfig realizing `mapping` for `tasks`/`vcpus` on
/// `platform`. Only schedulable mappings may be deployed.
SimConfig deploy(const model::Taskset& tasks,
                 const std::vector<model::Vcpu>& vcpus,
                 const core::HvAllocResult& mapping,
                 const model::PlatformSpec& platform,
                 const DeployConfig& cfg);

}  // namespace vc2m::sim

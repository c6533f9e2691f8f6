// Online admission control: VMs joining and leaving a running system.
//
// The paper's allocator plans a static system; a deployed hypervisor also
// admits VMs at runtime. This example boots a base VM, admits three more
// one at a time (each with its own resource appetite), rejects one that
// would overload the platform, then removes a VM and shows the freed
// capacity. Existing VMs are never migrated and never lose partitions —
// admission only spends headroom.
//
//   $ ./online_admission
#include <cstdio>
#include <iostream>

#include "analysis/schedulability.h"
#include "core/admission.h"
#include "core/strategy.h"
#include "model/platform.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace vc2m;

model::Taskset make_vm(double util, int vm_id, std::uint64_t seed,
                       const model::PlatformSpec& platform) {
  workload::GeneratorConfig cfg;
  cfg.grid = platform.grid;
  cfg.target_ref_utilization = util;
  util::Rng rng(seed);
  auto tasks = workload::generate_taskset(cfg, rng);
  for (auto& t : tasks) t.vm = vm_id;
  return tasks;
}

void print_state(const core::AdmissionState& st,
                 const model::PlatformSpec& platform) {
  std::printf("    cores:");
  for (unsigned k = 0; k < st.mapping.cores_used; ++k)
    std::printf(" [c=%2u b=%2u u=%.2f]", st.mapping.cache[k],
                st.mapping.bw[k],
                analysis::core_utilization(st.vcpus,
                                           st.mapping.vcpus_on_core[k],
                                           st.mapping.cache[k],
                                           st.mapping.bw[k]));
  std::printf("  free: cache %u, bw %u\n",
              platform.total_cache() - st.mapping.total_cache(),
              platform.total_bw() - st.mapping.total_bw());
}

}  // namespace

int main() {
  const auto platform = model::PlatformSpec::A();
  std::cout << "Online admission on " << platform.name << "\n\n";

  // Boot VM 0 with the offline allocator.
  const auto base_tasks = make_vm(0.7, 0, 1, platform);
  util::Rng rng(2);
  const auto booted = core::solve("ovf", base_tasks, platform, {}, rng);
  core::AdmissionState state{booted.vcpus, booted.mapping};
  std::printf("boot VM 0 (util 0.70): %s\n",
              booted.schedulable ? "placed" : "FAILED");
  print_state(state, platform);

  core::VmAllocConfig vm_cfg;
  vm_cfg.max_vcpus_per_vm = platform.cores;

  const struct {
    int id;
    double util;
  } arrivals[] = {{1, 0.45}, {2, 0.35}, {3, 1.60}, {4, 0.25}};
  for (const auto& a : arrivals) {
    const auto tasks = make_vm(a.util, a.id, 10 + a.id, platform);
    util::Rng admit_rng(20 + a.id);
    const auto res =
        core::admit_vm(state, tasks, a.id, platform, vm_cfg, admit_rng);
    std::printf("\nadmit VM %d (util %.2f, %zu tasks): %s\n", a.id, a.util,
                tasks.size(), res.admitted ? "ADMITTED" : "REJECTED");
    if (res.admitted) {
      state = res.state;
      print_state(state, platform);
    } else {
      std::printf("    running system untouched\n");
    }
  }

  std::cout << "\nshutdown VM 1:\n";
  state = core::remove_vm(state, 1);
  print_state(state, platform);

  std::cout << "\nNote how the rejected VM 3 left no trace, and how removal "
               "returns capacity\nfor future admissions without touching the "
               "surviving VMs' placements.\n";
  return 0;
}

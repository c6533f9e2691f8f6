// Optimality gap of the three-phase heuristic (extension, not in the paper).
//
// On instances small enough for exhaustive search, compare the heuristic
// allocator's accept rate against exact feasibility: "gap" tasksets are
// feasible mappings the heuristic failed to find within its iteration
// budget. The paper argues the heuristic is effective; this quantifies how
// close to complete it is on the §5.1 workload family.
#include <iostream>

#include "bench_common.h"
#include "core/exact.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "util/table.h"
#include "workload/generator.h"

int main(int argc, char** argv) {
  using namespace vc2m;
  const auto opt =
      bench::Options::parse(argc, argv, "--tasksets --seed --csv-dir");
  const auto platform = model::PlatformSpec::C();  // tightest platform

  util::Table table({"util", "heuristic", "exact", "gap tasksets",
                     "instances"});
  table.set_precision(3);

  util::Rng master(opt.seed);
  const double utils[] = {0.6, 0.8, 1.0, 1.2, 1.4};
  for (const double target : utils) {
    int heuristic_ok = 0, exact_ok = 0, gap = 0, instances = 0;
    for (int rep = 0; rep < opt.tasksets; ++rep) {
      workload::GeneratorConfig gen;
      gen.grid = platform.grid;
      gen.target_ref_utilization = target;
      util::Rng gen_rng = master.fork();
      const auto tasks = workload::generate_taskset(gen, gen_rng);

      core::VmAllocConfig vm;
      vm.analysis = core::VcpuAnalysis::kRegulated;
      vm.max_vcpus_per_vm = 3;  // keep instances exhaustively searchable
      util::Rng vm_rng = master.fork();
      const auto vcpus = core::allocate_vms_heuristic(tasks, vm, vm_rng);
      if (vcpus.size() > 8) continue;  // too large for the exact search
      ++instances;

      util::Rng hv_rng = master.fork();
      const bool h =
          core::allocate_heuristic(vcpus, platform, {}, hv_rng).schedulable;
      const bool e = core::allocate_exact(vcpus, platform).schedulable;
      heuristic_ok += h;
      exact_ok += e;
      gap += (!h && e) ? 1 : 0;
    }
    table.add_row(target,
                  instances ? static_cast<double>(heuristic_ok) / instances
                            : 0.0,
                  instances ? static_cast<double>(exact_ok) / instances : 0.0,
                  gap, instances);
    bench::progress("optimality", static_cast<int>(&target - utils) + 1, 5);
  }

  std::cout << "\nHeuristic vs exact feasibility — " << platform.name
            << ", well-regulated VCPUs (max 3 per VM)\n\n";
  table.print(std::cout);
  table.write_csv(opt.csv_path("optimality_gap.csv"));
  std::cout << "\n'gap tasksets' are instances a feasible mapping exists "
               "for but the heuristic\nmissed within its iteration budget "
               "(the exact column is a true upper bound).\n";
  return 0;
}

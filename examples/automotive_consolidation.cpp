// Automotive consolidation — the paper's motivating scenario (§1).
//
// Three vehicle functions, previously on separate ECUs, are consolidated as
// VMs on one multicore processor:
//   VM 0 (ADAS):         camera pipeline + sensor fusion — cache-sensitive,
//                        memory-hungry, short harmonic periods;
//   VM 1 (cluster):      instrument-cluster rendering — moderate load;
//   VM 2 (infotainment): media/codec tasks — bandwidth-heavy, long periods.
//
// The example runs all five solutions from the evaluation on the same
// consolidated workload and prints which of them can certify it, on how
// many cores, and with what cache/BW split — illustrating why holistic
// allocation is what makes the consolidation feasible.
//
//   $ ./automotive_consolidation
#include <cstdio>
#include <iostream>

#include "core/strategy.h"
#include "model/platform.h"
#include "util/rng.h"
#include "util/table.h"
#include "workload/parsec.h"

namespace {

using namespace vc2m;

model::Task make_task(const std::string& benchmark, int vm,
                      util::Time period, util::Time ref_wcet,
                      const model::ResourceGrid& grid) {
  const auto& profile = workload::find_profile(benchmark);
  model::Task t;
  t.period = period;
  t.wcet = model::WcetFn::from_slowdown(ref_wcet, profile.surface(grid));
  t.max_wcet = util::Time::ns(static_cast<std::int64_t>(
      static_cast<double>(ref_wcet.raw_ns()) * profile.max_slowdown(grid)));
  t.vm = vm;
  t.label = benchmark;
  return t;
}

}  // namespace

int main() {
  const auto platform = model::PlatformSpec::A();
  const auto& g = platform.grid;
  using util::Time;

  model::Taskset tasks;
  // VM 0 — ADAS: 100/200/400ms harmonic chain.
  tasks.push_back(make_task("bodytrack", 0, Time::ms(100), Time::ms(22), g));
  tasks.push_back(make_task("x264", 0, Time::ms(100), Time::ms(18), g));
  tasks.push_back(make_task("streamcluster", 0, Time::ms(200), Time::ms(36), g));
  tasks.push_back(make_task("facesim", 0, Time::ms(400), Time::ms(60), g));
  // VM 1 — instrument cluster.
  tasks.push_back(make_task("vips", 1, Time::ms(100), Time::ms(14), g));
  tasks.push_back(make_task("swaptions", 1, Time::ms(200), Time::ms(24), g));
  // VM 2 — infotainment.
  tasks.push_back(make_task("ferret", 2, Time::ms(400), Time::ms(70), g));
  tasks.push_back(make_task("dedup", 2, Time::ms(800), Time::ms(120), g));
  tasks.push_back(make_task("canneal", 2, Time::ms(800), Time::ms(90), g));

  std::cout << "Consolidated automotive workload on " << platform.name
            << ": " << tasks.size() << " tasks in 3 VMs, reference "
               "utilization "
            << model::total_reference_utilization(tasks) << "\n\n";

  util::Table table(
      {"solution", "schedulable", "cores", "cache used", "bw used"});
  for (const auto& key : core::default_solution_keys()) {
    util::Rng rng(7);  // same seed: identical clustering randomness
    const auto& strategy = core::StrategyRegistry::instance().require(key);
    const auto res = core::solve(strategy, tasks, platform, {}, rng);
    table.add_row(strategy.display, res.schedulable ? "yes" : "no",
                  res.schedulable ? static_cast<int>(res.mapping.cores_used)
                                  : 0,
                  res.schedulable ? static_cast<int>(res.mapping.total_cache())
                                  : 0,
                  res.schedulable ? static_cast<int>(res.mapping.total_bw())
                                  : 0);
  }
  table.print(std::cout, "Certification by solution");

  // Show the winning allocation in detail.
  util::Rng rng(7);
  const auto best = core::solve("flat", tasks, platform, {}, rng);
  if (best.schedulable) {
    std::cout << "\nHeuristic (flattening) allocation detail:\n";
    for (unsigned k = 0; k < best.mapping.cores_used; ++k) {
      std::printf("  core %u (cache=%2u, bw=%2u):", k, best.mapping.cache[k],
                  best.mapping.bw[k]);
      for (const auto vi : best.mapping.vcpus_on_core[k]) {
        const auto& v = best.vcpus[vi];
        std::printf(" vm%d/%s", v.vm, tasks[v.tasks.front()].label.c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}

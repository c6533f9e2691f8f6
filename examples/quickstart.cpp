// Quickstart: allocate CPU, cache, and memory bandwidth for a small
// real-time VM with vC2M, then program the Intel CAT model with the result.
//
//   $ ./quickstart
//
// Walks the full pipeline: PARSEC-profiled WCET surfaces → cache/BW-aware
// tasks → overhead-free VCPUs (Theorem 1 flattening) → hypervisor-level
// heuristic allocation → CAT capacity bitmasks.
#include <cstdio>
#include <iostream>

#include "core/strategy.h"
#include "hw/cat.h"
#include "model/platform.h"
#include "util/rng.h"
#include "vcat.h"
#include "workload/parsec.h"

namespace {

using namespace vc2m;

/// Build a task from a PARSEC profile: `ref_wcet` is the measured execution
/// time at the full allocation; the surface scales it per (c, b).
model::Task make_task(const std::string& benchmark, util::Time period,
                      util::Time ref_wcet, const model::ResourceGrid& grid) {
  const auto& profile = workload::find_profile(benchmark);
  model::Task t;
  t.period = period;
  t.wcet = model::WcetFn::from_slowdown(ref_wcet, profile.surface(grid));
  t.max_wcet = util::Time::ns(static_cast<std::int64_t>(
      static_cast<double>(ref_wcet.raw_ns()) * profile.max_slowdown(grid)));
  t.label = benchmark;
  return t;
}

}  // namespace

int main() {
  const auto platform = model::PlatformSpec::A();  // 4 cores, 20 partitions
  std::cout << "vC2M quickstart on " << platform.name << " ("
            << platform.cores << " cores, " << platform.total_cache()
            << " cache partitions, " << platform.total_bw()
            << " BW partitions)\n\n";

  // A small VM: one control task, one vision pipeline, one logger.
  model::Taskset tasks;
  tasks.push_back(
      make_task("swaptions", util::Time::ms(100), util::Time::ms(12),
                platform.grid));
  tasks.push_back(
      make_task("streamcluster", util::Time::ms(200), util::Time::ms(40),
                platform.grid));
  tasks.push_back(
      make_task("freqmine", util::Time::ms(400), util::Time::ms(95),
                platform.grid));

  std::cout << "Taskset (reference utilization "
            << model::total_reference_utilization(tasks) << "):\n";
  for (const auto& t : tasks)
    std::printf("  %-14s p=%6.0fms  e*=%6.1fms  e(Cmin,Bmin)=%6.1fms\n",
                t.label.c_str(), t.period.to_ms(),
                t.reference_wcet().to_ms(),
                t.wcet.at(platform.grid.c_min, platform.grid.b_min).to_ms());

  // Solve: Theorem-1 flattening + the heuristic multi-resource allocator.
  util::Rng rng(2026);
  const auto result = core::solve("flat", tasks, platform, {}, rng);
  if (!result.schedulable) {
    std::cout << "\nNot schedulable on this platform.\n";
    return 1;
  }

  std::cout << "\nSchedulable on " << result.mapping.cores_used
            << " core(s); allocation:\n";
  for (unsigned k = 0; k < result.mapping.cores_used; ++k) {
    std::printf("  core %u: cache=%2u ways, bw=%2u partitions, VCPUs:", k,
                result.mapping.cache[k], result.mapping.bw[k]);
    for (const auto vi : result.mapping.vcpus_on_core[k]) {
      const auto& v = result.vcpus[vi];
      std::printf(" [Pi=%.0fms Theta=%.1fms]", v.period.to_ms(),
                  v.budget.at(result.mapping.cache[k], result.mapping.bw[k])
                      .to_ms());
    }
    std::printf("\n");
  }

  // Program the CAT model exactly as the hypervisor would.
  hw::MsrFile msr(platform.cores);
  hw::Cat cat(msr, platform.total_cache(), /*num_cos=*/16,
              platform.grid.c_min);
  std::vector<unsigned> ways(platform.cores, 0);
  for (unsigned k = 0; k < result.mapping.cores_used; ++k)
    ways[k] = result.mapping.cache[k];
  cat.program_disjoint_plan(ways);

  std::cout << "\nProgrammed CAT capacity bitmasks (disjoint="
            << (hw::cores_disjoint(cat, msr.num_cores()) ? "yes" : "no")
            << "):\n";
  for (unsigned k = 0; k < result.mapping.cores_used; ++k)
    std::printf("  core %u: COS %u, CBM 0x%05llx\n", k, cat.cos_of_core(k),
                static_cast<unsigned long long>(cat.effective_mask(k)));
  return 0;
}

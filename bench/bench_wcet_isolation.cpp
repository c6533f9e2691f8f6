// §3.3 — impact of cache and bandwidth isolation on WCET.
//
// The paper measures PARSEC WCETs on its prototype with and without vC2M's
// cache/BW isolation and reports that isolation substantially reduces WCETs
// and that sensitivity to (c, b) varies across benchmarks. This bench runs
// the same experiment on the simulated prototype: a victim benchmark on one
// core with three streaming co-runners on the remaining cores, under
//   - "no isolation": shared cache (each core effectively gets C/4 ways)
//     and an unregulated shared bus;
//   - "vC2M isolation": dedicated cache ways + bandwidth budgets enforced
//     by the regulator (co-runners throttled);
//   - "solo": the victim alone with full resources (lower bound).
#include <iostream>

#include "bench_common.h"
#include "sim/profiling.h"
#include "sim/simulation.h"
#include "util/table.h"
#include "workload/parsec.h"

namespace {

using namespace vc2m;
using util::Time;

constexpr unsigned kCachePartitions = 20;
constexpr double kReqPerPartition = 1000;

sim::SimTaskSpec task_from_model(const sim::WorkloadModel& w, Time period,
                                 std::size_t vcpu) {
  sim::SimTaskSpec t;
  t.period = period;
  t.cpu_work = w.cpu_work;
  t.mem_work_ref = w.mem_work_ref;
  t.miss_amp = w.miss_amp;
  t.ws_decay = w.ws_decay;
  t.mem_requests_ref = w.mem_requests_ref;
  t.vcpu = vcpu;
  return t;
}

/// Measured victim WCET with three streaming co-runners.
Time victim_wcet(const sim::WorkloadModel& victim, bool isolated) {
  sim::SimConfig cfg;
  cfg.num_cores = 4;
  cfg.cache_partitions = kCachePartitions;
  cfg.requests_per_partition = kReqPerPartition;
  cfg.regulation_period = Time::ms(1);
  cfg.bus_contention = true;
  cfg.bus_requests_per_period = kCachePartitions * kReqPerPartition;
  if (isolated) {
    // vC2M: victim gets 8 dedicated ways and 8 BW partitions; co-runners
    // split the remaining ways and get tight bandwidth budgets (the
    // regulator throttles their bursts early in each period).
    cfg.bw_regulation = true;
    cfg.cache_alloc = {8, 4, 4, 4};
    cfg.bw_alloc = {8, 2, 2, 2};
  } else {
    // No isolation: everyone thrashes the shared cache (effectively C/4
    // ways each) and the bus is unregulated.
    cfg.bw_regulation = false;
    cfg.cache_alloc = {5, 5, 5, 5};
    cfg.bw_alloc = {5, 5, 5, 5};
  }

  const Time period = Time::ms(97);  // misaligned with the 1ms regulation
  sim::SimVcpuSpec v;
  v.period = period;
  v.budget = period;
  v.core = 0;
  cfg.vcpus.push_back(v);
  cfg.tasks.push_back(task_from_model(victim, period, 0));

  const auto& hog_profile = workload::find_profile("streamcluster");
  sim::ProfilingConfig pc;
  pc.cache_partitions = kCachePartitions;
  pc.requests_per_partition = kReqPerPartition;
  const auto hog = sim::workload_from_profile(hog_profile, Time::ms(60), pc);
  for (unsigned k = 1; k < 4; ++k) {
    sim::SimVcpuSpec hv;
    hv.period = Time::ms(80);
    hv.budget = Time::ms(80);
    hv.core = k;
    cfg.vcpus.push_back(hv);
    cfg.tasks.push_back(task_from_model(hog, Time::ms(80), k));
  }

  sim::Simulation s(std::move(cfg));
  s.run(Time::sec(3));
  return s.stats().per_task[0].max_response;
}

}  // namespace

int main(int argc, char** argv) {
  (void)bench::Options::parse(argc, argv, "");

  const char* names[] = {"swaptions",     "bodytrack", "freqmine",
                         "streamcluster", "ferret",    "canneal"};

  std::cout << "Impact of cache & bandwidth isolation on WCET (§3.3)\n"
               "Victim + 3 streaming co-runners, 4 cores, 20 partitions; "
               "reference WCET 10 ms\n\n";
  util::Table table({"benchmark", "solo (ms)", "no isolation (ms)",
                     "vC2M isolation (ms)", "reduction"});
  table.set_precision(2);

  sim::ProfilingConfig pc;
  pc.cache_partitions = kCachePartitions;
  pc.requests_per_partition = kReqPerPartition;
  pc.jobs = 8;
  for (const char* name : names) {
    const auto w = sim::workload_from_profile(workload::find_profile(name),
                                              util::Time::ms(10), pc);
    const auto solo = sim::profile_wcet(w, kCachePartitions,
                                        kCachePartitions, pc);
    const auto noiso = victim_wcet(w, /*isolated=*/false);
    const auto iso = victim_wcet(w, /*isolated=*/true);
    table.add_row(name, solo.to_ms(), noiso.to_ms(), iso.to_ms(),
                  iso > util::Time::zero()
                      ? static_cast<double>(noiso.raw_ns()) /
                            static_cast<double>(iso.raw_ns())
                      : 0.0);
  }
  table.print(std::cout);

  std::cout
      << "\nPaper: isolation effectively mitigates interference from\n"
         "concurrent cache/bus accesses and reduces task WCETs; the exact\n"
         "(c, b) sensitivity varies across benchmarks. Shape checks: the\n"
         "no-isolation column exceeds the isolated one for every memory-\n"
         "sensitive benchmark, and compute-bound benchmarks are hurt "
         "least.\n";
  return 0;
}

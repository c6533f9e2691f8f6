// Table 1 — memory-bandwidth regulator overhead (µs).
//
// The paper instruments its Xen prototype and reports, over many events:
//     Throttle:           min 0.33   avg 0.37   max 1.15    (µs)
//     BW budget replenish: min 8.81  avg 52.22  max 108.65  (µs)
//
// This bench instruments the simulator's implementations of the same two
// handlers with the host's steady clock: the BW-enforcer handler (runs on
// every PC-overflow interrupt: mark the core throttled, clear the overflow
// status, de-schedule) and the BW refiller (runs every regulation period:
// re-preset every core's counter, clear status, replenish budgets).
// Absolute numbers reflect this host, not Xen; the shape to reproduce is
// refill ≫ throttle (the refiller touches every core) and both far below
// the millisecond regulation period.
#include <iostream>

#include "bench_common.h"
#include "sim/simulation.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vc2m;
  using util::Time;
  (void)bench::Options::parse(argc, argv, "");

  // Eight cores, each running a streaming task that overruns its bandwidth
  // budget every regulation period — maximal regulator activity.
  sim::SimConfig cfg;
  cfg.num_cores = 8;
  cfg.cache_partitions = 20;
  cfg.cache_alloc.assign(8, 10);
  cfg.bw_alloc.assign(8, 2);
  cfg.bw_regulation = true;
  cfg.regulation_period = Time::ms(1);
  cfg.requests_per_partition = 1000;
  for (unsigned k = 0; k < 8; ++k) {
    sim::SimVcpuSpec v;
    v.period = Time::ms(100);
    v.budget = Time::ms(100);
    v.core = k;
    cfg.vcpus.push_back(v);
    sim::SimTaskSpec t;
    t.period = Time::ms(100);
    t.cpu_work = Time::ms(10);
    t.mem_work_ref = Time::ms(40);
    t.mem_requests_ref = 500'000;  // 10k req/ms vs 2k/ms budget
    t.vcpu = k;
    cfg.tasks.push_back(t);
  }

  sim::Simulation simulation(cfg);
  sim::HostProbe probe;
  simulation.set_probe(&probe);
  simulation.run(Time::sec(5));

  std::cout << "Table 1: memory bandwidth regulator's overhead (µs)\n"
            << "         (" << probe.throttle.count() << " throttle events, "
            << probe.refill.count() << " refills over 5 s simulated on 8 "
               "cores)\n\n";
  util::Table table({"handler", "min", "avg", "max", "p99"});
  table.add_row("Throttle (BW enforcer)", probe.throttle.min(),
                probe.throttle.mean(), probe.throttle.max(),
                probe.throttle.percentile(0.99));
  table.add_row("BW budget replenishment", probe.refill.min(),
                probe.refill.mean(), probe.refill.max(),
                probe.refill.percentile(0.99));
  table.print(std::cout);

  std::cout << "\nPaper (Xen on Xeon E5-2618L v3):\n"
               "  Throttle                min 0.33  avg 0.37   max 1.15\n"
               "  BW budget replenishment min 8.81  avg 52.22  max 108.65\n"
               "Shape checks: refill avg/throttle avg = "
            << probe.refill.mean() / probe.throttle.mean()
            << "x (paper: ~141x); both well below the 1 ms regulation "
               "period.\n";
  return 0;
}

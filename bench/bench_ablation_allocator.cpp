// Ablation study of the hypervisor-level allocator's design choices.
//
// §5.2 shows that removing the abstraction overhead *and* allocating
// resources effectively are both necessary. This bench drills into the
// allocator itself: starting from the full Heuristic (overhead-free CSA)
// solution it disables one mechanism at a time —
//   - slowdown-vector clustering (Phase 1 grouping),
//   - max-gain partition granting (Phase 2 → round-robin),
//   - load balancing (Phase 3 off),
//   - permutation restarts (1 instead of 8),
// and reports the schedulable fraction per utilization, quantifying each
// mechanism's contribution.
#include <iostream>

#include "bench_common.h"
#include "core/strategy.h"
#include "model/platform.h"
#include "util/table.h"
#include "workload/generator.h"

namespace {

using namespace vc2m;

struct Variant {
  const char* name;
  core::SolveConfig cfg;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"full heuristic", {}});

  core::SolveConfig no_cluster;
  no_cluster.clusters = 1;
  no_cluster.hv.cluster_vcpus = false;
  out.push_back({"no clustering", no_cluster});

  core::SolveConfig rr;
  rr.hv.phase2 = core::HvAllocConfig::Phase2Policy::kRoundRobin;
  out.push_back({"round-robin phase 2", rr});

  core::SolveConfig no_balance;
  no_balance.hv.load_balance = false;
  out.push_back({"no load balancing", no_balance});

  core::SolveConfig one_perm;
  one_perm.hv.max_permutations = 1;
  out.push_back({"single permutation", one_perm});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt =
      bench::Options::parse(argc, argv, "--tasksets --step --seed --csv-dir");
  const auto platform = model::PlatformSpec::A();
  const auto vars = variants();

  std::vector<std::string> header{"util"};
  for (const auto& v : vars) header.emplace_back(v.name);
  util::Table table(std::move(header));

  const double lo = 0.8, hi = 2.0;
  const double step = opt.step * 2;  // coarser grid: ablation trends
  const int n_points = static_cast<int>((hi - lo) / step + 1e-9) + 1;
  util::Rng master(opt.seed);

  for (int pi = 0; pi < n_points; ++pi) {
    const double target = lo + step * pi;
    std::vector<int> ok(vars.size(), 0);
    for (int rep = 0; rep < opt.tasksets; ++rep) {
      workload::GeneratorConfig gen;
      gen.grid = platform.grid;
      gen.target_ref_utilization = target;
      util::Rng gen_rng = master.fork();
      const auto tasks = workload::generate_taskset(gen, gen_rng);
      for (std::size_t v = 0; v < vars.size(); ++v) {
        util::Rng solve_rng = master.fork();
        ok[v] += core::solve("ovf", tasks,
                             platform, vars[v].cfg, solve_rng)
                     .schedulable;
      }
    }
    std::vector<std::string> row;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", target);
    row.emplace_back(buf);
    for (const int o : ok) {
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(o) / opt.tasksets);
      row.emplace_back(buf);
    }
    table.add_row_vec(std::move(row));
    bench::progress("ablation", pi + 1, n_points);
  }

  std::cout << "\nAllocator ablation — Heuristic (overhead-free CSA) on "
            << platform.name << ", fraction of schedulable tasksets\n\n";
  table.print(std::cout);
  table.write_csv(opt.csv_path("ablation_allocator.csv"));
  std::cout << "\nEach column disables one mechanism of the three-phase "
               "allocator; the gap to\n'full heuristic' is that mechanism's "
               "contribution.\n";
  return 0;
}

// Figure 4 — average analysis running time of the five solutions.
//
// Re-runs the Figure 2(a) sweep and reports the mean wall-clock time each
// solution spends per taskset as a function of taskset reference
// utilization. The paper's observations to reproduce: the overhead-free
// analyses stay fast and flat (< 3 s there, far less here), while the
// existing-CSA variants are orders of magnitude slower and grow with
// utilization (they need a PRM minimum budget at every (c,b) grid point
// for every VCPU).
#include <iostream>

#include "bench_common.h"
#include "core/experiment.h"
#include "model/platform.h"
#include "util/instrument.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace vc2m;
  const auto opt = bench::Options::parse(argc, argv);

  core::ExperimentConfig cfg;
  cfg.platform = model::PlatformSpec::A();
  cfg.dist = workload::UtilDist::kUniform;
  cfg.util_step = opt.step;
  cfg.tasksets_per_point = opt.tasksets;
  cfg.seed = opt.seed;
  cfg.jobs = opt.jobs;
  cfg.solve.inner_jobs = opt.inner_jobs;
  util::AllocCounterScope effort;  // aggregate allocator work over the sweep
  const auto result = core::run_schedulability_experiment(
      cfg, [&](int d, int t) { bench::progress("fig4", d, t); });

  std::cout << "\nFigure 4: average running time (seconds per taskset) on "
               "Platform A\n\n";
  util::Table table({"util", "Heur(flat)", "Heur(ovf-free)", "Heur(existing)",
                     "Evenly-part", "Baseline"});
  table.set_precision(6);
  for (const auto& pt : result.points)
    table.add_row(pt.target_util, pt.per_solution[0].avg_seconds(),
                  pt.per_solution[1].avg_seconds(),
                  pt.per_solution[2].avg_seconds(),
                  pt.per_solution[3].avg_seconds(),
                  pt.per_solution[4].avg_seconds());
  table.print(std::cout);
  table.write_csv(opt.csv_path("fig4_running_time.csv"));

  // Aggregate comparison (the paper quotes averages over the sweep).
  double ovf_max = 0, existing_max = 0;
  for (const auto& pt : result.points) {
    ovf_max = std::max(ovf_max, pt.per_solution[1].avg_seconds());
    existing_max = std::max(existing_max, pt.per_solution[2].avg_seconds());
  }
  std::cout << "\nPeak average runtime — Heuristic (overhead-free CSA): "
            << ovf_max << " s; Heuristic (existing CSA): " << existing_max
            << " s (" << (ovf_max > 0 ? existing_max / ovf_max : 0)
            << "x slower).\nPaper: overhead-free < 3 s always; existing CSA "
               "up to 25 s and growing with utilization.\n";

  // Where the time went: aggregate allocator effort across the whole sweep
  // (all solutions, all tasksets).
  const auto& c = effort.counters();
  util::Table et({"allocator effort (sweep total)", "value"});
  et.add_row("k-means runs", c.kmeans_runs);
  et.add_row("k-means iterations", c.kmeans_iterations);
  et.add_row("candidate packings", c.candidate_packings);
  et.add_row("admission tests", c.admission_tests);
  et.add_row("admission passed", c.admission_passed);
  et.add_row("dbf evaluations", c.dbf_evaluations);
  et.add_row("min-budget searches", c.budget_evaluations);
  et.add_row("budget memo hits", c.budget_cache_hits);
  et.add_row("core-load memo hits", c.load_cache_hits);
  et.add_row("partition grants", c.partition_grants);
  et.add_row("vcpu migrations", c.vcpu_migrations);
  et.add_row("VM-level alloc seconds", c.vm_alloc_seconds);
  et.add_row("HV-level alloc seconds", c.hv_alloc_seconds);
  std::cout << '\n';
  et.print(std::cout);

  bench::maybe_write_report(
      opt, bench::experiment_report("fig4_runtime", opt, cfg, result, c));
  return 0;
}

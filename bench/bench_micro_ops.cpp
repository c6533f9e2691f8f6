// Micro-benchmarks of the analysis and allocation primitives
// (google-benchmark). Complements Figure 4: shows *why* the existing CSA
// is orders of magnitude slower — a single PRM minimum-budget search costs
// as much as an entire overhead-free VCPU computation over the whole grid.
//
// `--smoke` (used by scripts/check.sh) skips the benchmarks and instead
// runs one existing-CSA solve under an AllocCounterScope, asserting the
// memoization machinery (AnalysisContext + CoreLoad) is actually engaged:
// budget searches happened, dbf work was done, and repeated per-core
// Σ Θ/Π probes were served from the CoreLoad caches.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>

#include "analysis/dbf.h"
#include "analysis/prm.h"
#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/admission.h"
#include "core/hv_alloc.h"
#include "core/kmeans.h"
#include "core/strategy.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "util/instrument.h"
#include "util/log_histogram.h"
#include "util/phase_profiler.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace vc2m;
using util::Time;

model::Taskset make_taskset(double util, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.grid = model::PlatformSpec::A().grid;
  cfg.target_ref_utilization = util;
  util::Rng rng(seed);
  return workload::generate_taskset(cfg, rng);
}

void BM_DbfEvaluation(benchmark::State& state) {
  std::vector<analysis::PTask> tasks;
  for (int i = 1; i <= 8; ++i)
    tasks.push_back({Time::ms(100 * (1 << (i % 4))), Time::ms(i)});
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::dbf(tasks, Time::ms(800)));
}
BENCHMARK(BM_DbfEvaluation);

void BM_MergeCheckpoints(benchmark::State& state) {
  // Building the sorted + deduplicated checkpoint stream once per
  // (periods, Π) — amortized over every grid cell by the group memo.
  std::vector<analysis::PTask> tasks;
  for (int i = 1; i <= static_cast<int>(state.range(0)); ++i)
    tasks.push_back({Time::ms(100 * (1 << (i % 4))), Time::ms(3 * i)});
  std::vector<std::int64_t> periods;
  for (const auto& t : tasks) periods.push_back(t.period.raw_ns());
  const Time horizon = analysis::hyperperiod(tasks);
  std::vector<Time> points;
  for (auto _ : state) {
    analysis::merge_checkpoints(periods, horizon, points);
    benchmark::DoNotOptimize(points.data());
  }
}
BENCHMARK(BM_MergeCheckpoints)->Arg(2)->Arg(8)->Arg(24);

void BM_PrmSbf(benchmark::State& state) {
  const analysis::Prm prm{Time::ms(100), Time::ms(37)};
  for (auto _ : state)
    benchmark::DoNotOptimize(prm.sbf(Time::ms(731)));
}
BENCHMARK(BM_PrmSbf);

void BM_PrmMinBudget(benchmark::State& state) {
  // One existing-CSA budget search — this runs once per (c,b) grid point
  // per VCPU (380 times per VCPU on Platform A).
  std::vector<analysis::PTask> tasks;
  for (int i = 1; i <= static_cast<int>(state.range(0)); ++i)
    tasks.push_back({Time::ms(100 * (1 << (i % 4))), Time::ms(3 * i)});
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::min_budget_edf(tasks, Time::ms(100)));
}
BENCHMARK(BM_PrmMinBudget)->Arg(2)->Arg(8)->Arg(24);

void BM_PrmMinBudgetOnCurve(benchmark::State& state) {
  // The engine's equivalent of BM_PrmMinBudget: checkpoints, their split
  // by Π and demand precomputed once (as the group memo + Θ-independent
  // demand make them per cell), leaving one division-free walk over the
  // curve that inverts sbf at the checkpoints the running budget does not
  // yet cover.
  std::vector<analysis::PTask> tasks;
  for (int i = 1; i <= static_cast<int>(state.range(0)); ++i)
    tasks.push_back({Time::ms(100 * (1 << (i % 4))), Time::ms(3 * i)});
  const Time pi = Time::ms(100);
  const auto points = analysis::dbf_checkpoints(
      tasks, util::lcm(analysis::hyperperiod(tasks), pi));
  std::vector<Time> demand;
  for (const Time t : points) demand.push_back(analysis::dbf(tasks, t));
  std::vector<std::int64_t> quot, rem;
  for (const Time t : points) {
    quot.push_back(t / pi);
    rem.push_back((t % pi).raw_ns());
  }
  const analysis::DemandCurve curve{points, demand, quot, rem};
  const double total_util = analysis::total_utilization(tasks);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        analysis::min_budget_on_curve(curve, total_util, pi));
}
BENCHMARK(BM_PrmMinBudgetOnCurve)->Arg(2)->Arg(8)->Arg(24);

void BM_VcpuExistingCsaSurface(benchmark::State& state) {
  // One existing-CSA VCPU's 380-cell budget surface on Platform A through a
  // cold AnalysisContext, as vm_alloc builds it: group resolution, one
  // checkpoint stream with its job counts, a demand row and an exact
  // budget per distinct cell, and the memo bookkeeping. The VCPU serves the
  // n lightest tasks of a heavy taskset (harmonic periods, as the sweeps
  // generate).
  auto tasks = make_taskset(4.0, 17);
  std::sort(tasks.begin(), tasks.end(),
            [](const model::Task& a, const model::Task& b) {
              return a.reference_utilization() < b.reference_utilization();
            });
  const auto n = static_cast<std::size_t>(state.range(0));
  if (tasks.size() < n) {
    state.SkipWithError("taskset too small");
    return;
  }
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (auto _ : state)
    benchmark::DoNotOptimize(core::vcpu_existing_csa(tasks, idx));
}
BENCHMARK(BM_VcpuExistingCsaSurface)->Arg(2)->Arg(4)->Arg(8);

void BM_RegulatedVcpu(benchmark::State& state) {
  // One overhead-free (Theorem 2) VCPU computation over the FULL grid.
  const auto tasks = make_taskset(1.0, 11);
  std::vector<std::size_t> idx(tasks.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::regulated_vcpu(tasks, idx));
}
BENCHMARK(BM_RegulatedVcpu);

void BM_KMeansSlowdownVectors(benchmark::State& state) {
  const auto tasks = make_taskset(2.0, 12);
  std::vector<std::vector<double>> points;
  for (const auto& t : tasks) points.push_back(t.slowdown().flat());
  util::Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::kmeans(points, 4, rng));
}
BENCHMARK(BM_KMeansSlowdownVectors);

void BM_AllocateHeuristic(benchmark::State& state) {
  // One hypervisor-level search (§4.3: k-means over the VCPUs' slowdown
  // vectors, then Phases 1–3) on Platform A, for the overhead-free VCPUs
  // of a taskset at reference utilization range(0)/10. Heavier sets try
  // more core counts, permutations and balance rounds before a verdict.
  const auto platform = model::PlatformSpec::A();
  const double util = static_cast<double>(state.range(0)) / 10.0;
  util::Rng vm_rng(9);
  const auto vcpus = core::allocate_vms_heuristic(
      make_taskset(util, 21), core::VmAllocConfig{}, vm_rng);
  if (vcpus.empty()) {
    state.SkipWithError("no VCPUs");
    return;
  }
  const core::HvAllocConfig cfg;
  std::uint64_t seed = 0;
  bool schedulable = false;
  for (auto _ : state) {
    util::Rng rng(++seed);
    const auto res = core::allocate_heuristic(vcpus, platform, cfg, rng);
    schedulable = res.schedulable;
    benchmark::DoNotOptimize(res);
  }
  state.SetLabel(std::to_string(vcpus.size()) + " VCPUs, " +
                 (schedulable ? "schedulable" : "unschedulable"));
}
BENCHMARK(BM_AllocateHeuristic)->Arg(10)->Arg(15)->Arg(20);

void BM_GenerateTaskset(benchmark::State& state) {
  // One serve-sized taskset (reference utilization 0.25) on Platform A: the
  // per-grid PARSEC surface table is built once, so each call pays only for
  // its own tasks' WCET tables.
  workload::GeneratorConfig cfg;
  cfg.grid = model::PlatformSpec::A().grid;
  cfg.target_ref_utilization = 0.25;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(++seed);
    benchmark::DoNotOptimize(workload::generate_taskset(cfg, rng));
  }
}
BENCHMARK(BM_GenerateTaskset);

void BM_AdmitVmFullPlatform(benchmark::State& state) {
  // The saturated serve path: Platform A filled with small VMs until
  // admissions fail, then one more admit — rejected, so the decision must
  // cost no copy of the placed VCPUs.
  const auto platform = model::PlatformSpec::A();
  const auto vm_tasks = [&](int vm, double util, std::uint64_t seed) {
    workload::GeneratorConfig cfg;
    cfg.grid = platform.grid;
    cfg.target_ref_utilization = util;
    util::Rng rng(seed);
    auto tasks = workload::generate_taskset(cfg, rng);
    for (auto& t : tasks) t.vm = vm;
    return tasks;
  };
  core::AdmissionState full;
  core::VmAllocConfig vm_cfg;
  int vm = 0;
  for (int misses = 0; misses < 8; ++vm) {
    util::Rng rng(static_cast<std::uint64_t>(vm));
    auto res = core::admit_vm(full, vm_tasks(vm, 0.3, 100 + vm), vm, platform,
                              vm_cfg, rng);
    if (res.admitted)
      full = std::move(res.state);
    else
      ++misses;
  }
  const auto newcomer = vm_tasks(vm, 0.3, 7);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    util::Rng rng(++seed);
    benchmark::DoNotOptimize(
        core::admit_vm(full, newcomer, vm, platform, vm_cfg, rng));
  }
  state.SetLabel(std::to_string(full.vcpus.size()) + " VCPUs placed");
}
BENCHMARK(BM_AdmitVmFullPlatform);

void BM_SolveEndToEnd(benchmark::State& state) {
  const auto& strategy = core::StrategyRegistry::instance().require(
      core::default_solution_keys()[static_cast<std::size_t>(state.range(0))]);
  const auto tasks = make_taskset(1.0, 13);
  const auto platform = model::PlatformSpec::A();
  util::Rng rng(5);
  for (auto _ : state)
    benchmark::DoNotOptimize(core::solve(strategy, tasks, platform, {}, rng));
  state.SetLabel(strategy.display);
}
BENCHMARK(BM_SolveEndToEnd)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// --smoke: one existing-CSA solve; fail (exit 1) unless the memoization
/// counters show the shared-context machinery at work. With --json PATH,
/// additionally profile the solve, time a dbf-evaluation loop into a
/// LogHistogram and emit a BenchReport.
int run_smoke(const std::string& json_path) {
  if (!json_path.empty()) util::PhaseProfiler::set_enabled(true);
  const auto tasks = make_taskset(1.0, 13);
  const auto platform = model::PlatformSpec::A();
  util::Rng rng(5);
  util::AllocCounterScope scope;
  const auto res = core::solve("existing", tasks, platform, {}, rng);
  const auto& c = scope.counters();
  std::cout << "smoke: existing-CSA solve " << res.seconds << " s, "
            << "schedulable=" << res.schedulable << "\n"
            << "  dbf evaluations:     " << c.dbf_evaluations << "\n"
            << "  min-budget searches: " << c.budget_evaluations << "\n"
            << "  budget memo hits:    " << c.budget_cache_hits << "\n"
            << "  core-load memo hits: " << c.load_cache_hits << "\n";
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    if (!cond) {
      std::cout << "smoke FAIL: " << what << "\n";
      ok = false;
    }
  };
  expect(c.budget_evaluations > 0,
         "no min-budget searches — existing CSA did not run");
  expect(c.dbf_evaluations > 0, "no dbf evaluations");
  expect(c.load_cache_hits > 0,
         "no core-load memo hits — CoreLoad caching is disengaged");
  if (ok) std::cout << "smoke OK: memoization engaged\n";

  if (ok && !json_path.empty()) {
    // Per-call dbf latency distribution: cheap, high-volume, exactly what
    // the log-bucketed histogram is for.
    std::vector<analysis::PTask> ptasks;
    for (int i = 1; i <= 8; ++i)
      ptasks.push_back({Time::ms(100 * (1 << (i % 4))), Time::ms(i)});
    util::LogHistogram dbf_seconds;
    for (int i = 0; i < 2000; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(analysis::dbf(ptasks, Time::ms(800)));
      dbf_seconds.add(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }

    obs::BenchReport r;
    r.name = "micro_ops_smoke";
    r.git_rev = obs::build_git_rev();
    r.config["solution"] = "existing";
    r.config["platform"] = "A";
    r.config["target_util"] = "1.0";
    r.config["seed"] = "13";
    obs::set_counters(r, c);
    r.phases = obs::merged_profile();
    r.histograms["solve_seconds"] = [&] {
      util::LogHistogram h;
      h.add(res.seconds);
      return obs::HistogramSummary::of(h);
    }();
    r.histograms["dbf_eval_seconds"] = obs::HistogramSummary::of(dbf_seconds);
    obs::json::write_file(json_path, r, "bench report");
    std::cout << "bench report: " << json_path << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

// BENCHMARK_MAIN(), plus the --smoke escape hatch for scripts/check.sh.
int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  if (smoke) return run_smoke(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

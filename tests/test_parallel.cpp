// Parallel experiment engine tests: ThreadPool unit + stress coverage, the
// determinism contract of run_schedulability_experiment (bit-identical
// results for any jobs count, including a hand-rolled serial reference),
// and the ExperimentResult precondition guards.
//
// Suite names matter: scripts/check.sh runs everything matching
// ^(ThreadPool|ParallelExperiment|ExperimentResultGuards) under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "util/instrument.h"
#include "util/thread_pool.h"

namespace vc2m {
namespace {

using util::ThreadPool;

// ------------------------------------------------------ ThreadPool unit ----

/// A parallel for over [0, n) on the pool: one submitted task per chunk of
/// `grain` indices, then wait(), which rethrows the first error.
void parallel_for(ThreadPool& pool, std::size_t n, std::size_t grain,
                  const std::function<void(std::size_t)>& body) {
  for (std::size_t lo = 0; lo < n; lo += grain) {
    const std::size_t hi = std::min(n, lo + grain);
    pool.submit([&body, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
  }
  pool.wait();
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.workers(), 3u);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i)
    pool.submit([&] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, WaitWithZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.wait();  // nothing submitted — must not block
  int calls = 0;
  parallel_for(pool, 0, 1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SingleWorkerDrainsEverything) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.workers(), 1u);
  // With one worker, tasks run one at a time — the max observed
  // concurrency must be 1 even though the queue is deep.
  std::atomic<int> active{0}, peak{0}, done{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&] {
      const int now = active.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      active.fetch_sub(1);
      done.fetch_add(1);
    });
  pool.wait();
  EXPECT_EQ(done.load(), 50);
  EXPECT_EQ(peak.load(), 1);
}

TEST(ThreadPoolTest, TasksMaySubmitMoreTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&] {
      count.fetch_add(1);
      pool.submit([&] { count.fetch_add(1); });
    });
  pool.wait();
  EXPECT_EQ(count.load(), 20);
}

TEST(ThreadPoolTest, ExceptionPropagatesToWait) {
  ThreadPool pool(2);
  std::atomic<int> survivors{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { survivors.fetch_add(1); });
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i) pool.submit([&] { survivors.fetch_add(1); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The throwing task does not cancel its siblings…
  EXPECT_EQ(survivors.load(), 40);
  // …and the pool is reusable after the error is consumed.
  pool.submit([&] { survivors.fetch_add(1); });
  pool.wait();
  EXPECT_EQ(survivors.load(), 41);
}

TEST(ThreadPoolTest, ExceptionPropagatesFromParallelFor) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 100, 4,
                            [](std::size_t i) {
                              if (i == 37)
                                throw std::runtime_error("index 37");
                            }),
               std::runtime_error);
}

// Results must not depend on which worker ran what or in which order:
// each task writes a pure function of its index into its own slot, and
// the output must match for 1, 2, and 8 workers.
TEST(ThreadPoolTest, TaskOrderingCannotAffectResults) {
  auto run = [](unsigned workers) {
    ThreadPool pool(workers);
    std::vector<std::uint64_t> out(500, 0);
    for (std::size_t i = 0; i < out.size(); ++i)
      pool.submit([&out, i] { out[i] = i * 2654435761u + 17; });
    pool.wait();
    return out;
  };
  const auto ref = run(1);
  EXPECT_EQ(run(2), ref);
  EXPECT_EQ(run(8), ref);
}

// --------------------------------------------------- ThreadPool stress ----

TEST(ThreadPoolStressTest, TenThousandTinyTasks) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 10'000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  for (std::size_t i = 0; i < kTasks; ++i)
    pool.submit([&hits, i] { hits[i].fetch_add(1); });
  pool.wait();
  for (std::size_t i = 0; i < kTasks; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(ThreadPoolStressTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  for (const std::size_t grain : {std::size_t{1}, std::size_t{7},
                                  std::size_t{4096}, kN}) {
    std::vector<std::atomic<int>> hits(kN);
    for (auto& h : hits) h.store(0);
    parallel_for(pool, kN, grain,
                 [&hits](std::size_t i) { hits[i].fetch_add(1); });
    std::size_t total = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
      total += static_cast<std::size_t>(hits[i].load());
    }
    EXPECT_EQ(total, kN);
  }
}

// ------------------------------------- experiment determinism regression ----

core::ExperimentConfig small_sweep(std::uint64_t seed, int jobs) {
  core::ExperimentConfig cfg;
  cfg.platform = model::PlatformSpec::A();
  cfg.util_lo = 0.4;
  cfg.util_hi = 1.0;
  cfg.util_step = 0.3;
  cfg.tasksets_per_point = 4;
  cfg.seed = seed;
  cfg.jobs = jobs;
  // Skip the slow existing-CSA heuristic; keep one representative of every
  // other analysis family so the determinism check spans them.
  cfg.solutions = {"flat", "ovf", "even", "baseline"};
  return cfg;
}

struct SweepOutput {
  core::ExperimentResult result;
  util::AllocCounters totals;
};

SweepOutput run_sweep(std::uint64_t seed, int jobs) {
  util::AllocCounterScope scope;
  SweepOutput out;
  out.result = core::run_schedulability_experiment(small_sweep(seed, jobs));
  out.totals = scope.counters();
  return out;
}

// The deterministic portion of two results must match bitwise; wall-clock
// fields (seconds) are the only legitimately run-dependent outputs.
void expect_identical(const SweepOutput& a, const SweepOutput& b,
                      const std::string& label) {
  ASSERT_EQ(a.result.points.size(), b.result.points.size()) << label;
  for (std::size_t pi = 0; pi < a.result.points.size(); ++pi) {
    const auto& pa = a.result.points[pi];
    const auto& pb = b.result.points[pi];
    EXPECT_EQ(pa.target_util, pb.target_util) << label;
    ASSERT_EQ(pa.per_solution.size(), pb.per_solution.size()) << label;
    for (std::size_t si = 0; si < pa.per_solution.size(); ++si) {
      EXPECT_EQ(pa.per_solution[si].schedulable,
                pb.per_solution[si].schedulable)
          << label << " point " << pi << " solution " << si;
      EXPECT_EQ(pa.per_solution[si].total, pb.per_solution[si].total)
          << label;
    }
  }
  // The rendered fraction table (what the benches print) is bit-identical.
  std::ostringstream ta, tb;
  a.result.to_table().print(ta);
  b.result.to_table().print(tb);
  EXPECT_EQ(ta.str(), tb.str()) << label;
  // Aggregated allocator effort matches exactly, including the
  // deterministically ordered floating-point kmeans shift sum.
  EXPECT_EQ(a.totals.kmeans_runs, b.totals.kmeans_runs) << label;
  EXPECT_EQ(a.totals.kmeans_iterations, b.totals.kmeans_iterations) << label;
  EXPECT_EQ(a.totals.kmeans_final_shift, b.totals.kmeans_final_shift)
      << label;
  EXPECT_EQ(a.totals.admission_tests, b.totals.admission_tests) << label;
  EXPECT_EQ(a.totals.admission_passed, b.totals.admission_passed) << label;
  EXPECT_EQ(a.totals.dbf_evaluations, b.totals.dbf_evaluations) << label;
  EXPECT_EQ(a.totals.candidate_packings, b.totals.candidate_packings)
      << label;
  EXPECT_EQ(a.totals.partition_grants, b.totals.partition_grants) << label;
  EXPECT_EQ(a.totals.vcpu_migrations, b.totals.vcpu_migrations) << label;
}

TEST(ParallelExperimentTest, ResultsAreBitIdenticalAcrossJobCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 20260806ull}) {
    const auto r1 = run_sweep(seed, 1);
    const auto r2 = run_sweep(seed, 2);
    const auto r8 = run_sweep(seed, 8);
    const std::string label = "seed " + std::to_string(seed);
    expect_identical(r1, r2, label + " jobs 1 vs 2");
    expect_identical(r1, r8, label + " jobs 1 vs 8");
  }
}

// Anchor against the pre-parallel implementation: re-derive the sweep with
// the exact serial loop the runner used before the thread pool existed
// (one master RNG, forked per taskset and per solve in order) and require
// identical schedulable counts.
TEST(ParallelExperimentTest, MatchesHandRolledSerialReference) {
  const auto cfg = small_sweep(/*seed=*/42, /*jobs=*/4);
  const auto parallel = core::run_schedulability_experiment(cfg);

  const int n_points = 3;  // 0.4, 0.7, 1.0
  ASSERT_EQ(parallel.points.size(), static_cast<std::size_t>(n_points));
  util::Rng master(cfg.seed);
  for (int pi = 0; pi < n_points; ++pi) {
    const double target = cfg.util_lo + cfg.util_step * pi;
    EXPECT_DOUBLE_EQ(parallel.points[pi].target_util, target);
    std::vector<int> schedulable(cfg.solutions.size(), 0);
    for (int rep = 0; rep < cfg.tasksets_per_point; ++rep) {
      workload::GeneratorConfig gen;
      gen.grid = cfg.platform.grid;
      gen.target_ref_utilization = target;
      gen.dist = cfg.dist;
      gen.num_vms = cfg.num_vms;
      util::Rng gen_rng = master.fork();
      const auto taskset = workload::generate_taskset(gen, gen_rng);
      for (std::size_t si = 0; si < cfg.solutions.size(); ++si) {
        util::Rng solve_rng = master.fork();
        const auto res = core::solve(cfg.solutions[si], taskset,
                                     cfg.platform, cfg.solve, solve_rng);
        schedulable[si] += res.schedulable ? 1 : 0;
      }
    }
    for (std::size_t si = 0; si < cfg.solutions.size(); ++si)
      EXPECT_EQ(parallel.points[pi].per_solution[si].schedulable,
                schedulable[si])
          << "point " << pi << " solution " << si;
  }
}

TEST(ParallelExperimentTest, ProgressIsMonotoneUnderParallelCompletion) {
  auto cfg = small_sweep(/*seed=*/7, /*jobs=*/8);
  cfg.solutions = {"flat"};
  std::mutex mu;
  int last = 0, calls = 0;
  core::run_schedulability_experiment(cfg, [&](int done, int total) {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(total, 3);
    EXPECT_EQ(done, last + 1);  // strictly increasing by one per point
    last = done;
    ++calls;
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(last, 3);
}

// ------------------------------------------- ExperimentResult guards ----

TEST(ExperimentResultGuardsTest, BreakdownUtilizationRejectsEmptyPoints) {
  core::ExperimentResult empty;
  EXPECT_THROW(empty.breakdown_utilization(0), util::Error);
}

TEST(ExperimentResultGuardsTest, BreakdownUtilizationRejectsBadIndex) {
  core::ExperimentResult r;
  r.cfg.solutions = {"flat"};
  core::UtilizationPoint pt;
  pt.target_util = 0.5;
  pt.per_solution.assign(1, {});
  r.points.push_back(pt);
  EXPECT_NO_THROW(r.breakdown_utilization(0));
  EXPECT_THROW(r.breakdown_utilization(3), util::Error);
}

TEST(ExperimentResultGuardsTest, ToTableRejectsEmptyPoints) {
  core::ExperimentResult empty;
  EXPECT_THROW(empty.to_table(), util::Error);
}

TEST(ExperimentResultGuardsTest, ToTableRejectsMismatchedPerSolution) {
  core::ExperimentResult r;
  r.cfg.solutions = {"flat", "baseline"};
  core::UtilizationPoint pt;
  pt.target_util = 0.5;
  pt.per_solution.assign(1, {});  // config names two solutions
  r.points.push_back(pt);
  EXPECT_THROW(r.to_table(), util::Error);
  r.points.back().per_solution.assign(2, {});
  EXPECT_NO_THROW(r.to_table());
}

}  // namespace
}  // namespace vc2m

#include "core/experiment.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/decision_log.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/phase_profiler.h"
#include "util/thread_pool.h"

namespace vc2m::core {

namespace {

/// Per-work-item validation seed: a SplitMix64 mix of the master seed and
/// the item's serial index. Derived arithmetically (not by forking the
/// master Rng) so the pre-forked gen/solve stream sequence — which
/// tests/test_parallel.cpp pins against a hand-rolled serial reference —
/// is untouched.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t item) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (item + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

double ExperimentResult::breakdown_utilization(std::size_t solution_index,
                                               double threshold) const {
  VC2M_CHECK_MSG(!points.empty(),
                 "breakdown_utilization on an empty experiment (no "
                 "utilization points — was the sweep run?)");
  double breakdown = 0;
  for (const auto& pt : points) {
    VC2M_CHECK_MSG(solution_index < pt.per_solution.size(),
                   "solution index " << solution_index
                                     << " out of range — point at util "
                                     << pt.target_util << " has only "
                                     << pt.per_solution.size()
                                     << " solution columns");
    if (pt.per_solution[solution_index].fraction() < threshold) break;
    breakdown = pt.target_util;
  }
  return breakdown;
}

util::Table ExperimentResult::to_table() const {
  VC2M_CHECK_MSG(!points.empty(),
                 "to_table on an empty experiment (no utilization points — "
                 "was the sweep run?)");
  const auto& registry = StrategyRegistry::instance();
  std::vector<std::string> header{"util"};
  for (const auto& s : cfg.solutions)
    header.push_back(registry.require(s).display);
  if (cfg.validate)
    for (const auto& s : cfg.solutions)
      header.push_back(registry.require(s).display + " +f");
  util::Table table(std::move(header));
  for (const auto& pt : points) {
    VC2M_CHECK_MSG(pt.per_solution.size() == cfg.solutions.size(),
                   "point at util " << pt.target_util << " has "
                                    << pt.per_solution.size()
                                    << " solution columns but the config "
                                       "names "
                                    << cfg.solutions.size() << " solutions");
    std::vector<std::string> row;
    auto fmt = [](double v, int prec) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.*f", prec, v);
      return std::string(buf);
    };
    row.push_back(fmt(pt.target_util, 2));
    for (const auto& sp : pt.per_solution) row.push_back(fmt(sp.fraction(), 3));
    if (cfg.validate)
      for (const auto& sp : pt.per_solution)
        row.push_back(fmt(sp.validated_fraction(), 3));
    table.add_row_vec(std::move(row));
  }
  return table;
}

ExperimentResult run_schedulability_experiment(
    const ExperimentConfig& cfg,
    const std::function<void(int, int)>& progress) {
  VC2M_CHECK(cfg.util_lo > 0 && cfg.util_step > 0 &&
             cfg.util_lo <= cfg.util_hi);
  VC2M_CHECK(cfg.tasksets_per_point > 0);
  VC2M_CHECK(!cfg.solutions.empty());
  VC2M_CHECK_MSG(cfg.jobs >= 0, "jobs must be >= 0 (0 = hardware)");

  VC2M_PROFILE_PHASE("experiment");

  ExperimentResult result;
  result.cfg = cfg;

  // Resolve every named strategy up front: an unknown key dies here with
  // the known-key list instead of mid-sweep on a worker thread. Registry
  // entries have stable addresses, so the pointers stay valid for the run.
  std::vector<const Strategy*> strategies;
  strategies.reserve(cfg.solutions.size());
  for (const auto& key : cfg.solutions)
    strategies.push_back(&StrategyRegistry::instance().require(key));

  const int n_points = static_cast<int>(
      std::floor((cfg.util_hi - cfg.util_lo) / cfg.util_step + 1e-9)) + 1;
  const int reps = cfg.tasksets_per_point;
  const std::size_t n_sol = cfg.solutions.size();
  const std::size_t n_reps_total =
      static_cast<std::size_t>(n_points) * static_cast<std::size_t>(reps);

  // Pre-fork every RNG stream serially from the master seed, in exactly the
  // order a serial sweep consumes them (per point, per taskset: one
  // generator stream, then one solver stream per solution). Each work item
  // below is a pure function of its streams writing to its own slot, so
  // the sweep's output does not depend on worker count or completion order.
  struct RepStreams {
    util::Rng gen;
    std::vector<util::Rng> solve;
  };
  util::Rng master(cfg.seed);
  std::vector<RepStreams> streams(n_reps_total);
  {
    VC2M_PROFILE_PHASE("fork_streams");
    for (std::size_t ti = 0; ti < n_reps_total; ++ti) {
      streams[ti].gen = master.fork();
      streams[ti].solve.reserve(n_sol);
      for (std::size_t si = 0; si < n_sol; ++si)
        streams[ti].solve.push_back(master.fork());
    }
  }

  // One shared intra-solve pool for the whole sweep (when inner parallelism
  // is requested without a caller-supplied pool): solve() would otherwise
  // spin up and tear down a transient pool per work item. Outer workers
  // block on their surface pass's latch while the inner pool's threads run
  // the stripes, so the two pools must be distinct — and are.
  SolveConfig solve_cfg = cfg.solve;
  std::unique_ptr<util::ThreadPool> shared_inner;
  if (solve_cfg.inner_jobs != 1 && solve_cfg.inner_pool == nullptr) {
    const unsigned inner_workers =
        solve_cfg.inner_jobs == 0
            ? util::ThreadPool::hardware_workers()
            : static_cast<unsigned>(solve_cfg.inner_jobs);
    if (inner_workers > 1) {
      shared_inner = std::make_unique<util::ThreadPool>(inner_workers);
      solve_cfg.inner_pool = shared_inner.get();
    }
  }

  // Per-solution span labels, precomputed so worker threads never build
  // strings on the hot path.
  std::vector<std::string> span_names;
  span_names.reserve(n_sol);
  for (const auto& key : cfg.solutions) span_names.push_back("solve/" + key);

  // One output slot per (point, taskset, solution); tasksets are generated
  // once per (point, taskset) under a once_flag and shared by that
  // taskset's solution items, then freed when its last solve finishes.
  struct Cell {
    bool schedulable = false;
    bool validated = false;
    double seconds = 0;
    util::AllocCounters counters;
    obs::DecisionLog log;  ///< per-item decision capture (recording runs only)
  };
  // Decision recording state is thread-local, so worker threads see none of
  // the caller's scope. If the caller is recording, each work item records
  // into its own cell; the captures are appended to the caller's log in
  // serial (point, taskset, solution) order after the sweep — the same
  // jobs-independence contract the counters follow.
  const bool record_decisions = obs::decision_log() != nullptr;
  std::vector<Cell> cells(n_reps_total * n_sol);
  std::vector<model::Taskset> tasksets(n_reps_total);
  std::unique_ptr<std::once_flag[]> taskset_once(
      new std::once_flag[n_reps_total]);

  // Single collector: keeps the progress callback monotone no matter which
  // worker finishes which point, and reclaims taskset memory early.
  std::mutex collector_mu;
  std::vector<int> rep_items_left(n_reps_total, static_cast<int>(n_sol));
  std::vector<int> point_items_left(
      n_points, reps * static_cast<int>(n_sol));
  int points_done = 0;

  util::ThreadPool pool(static_cast<unsigned>(cfg.jobs));
  const auto sweep_start = std::chrono::steady_clock::now();
  {
    VC2M_PROFILE_PHASE("sweep");
    for (int pi = 0; pi < n_points; ++pi) {
      for (int rep = 0; rep < reps; ++rep) {
        const std::size_t ti = static_cast<std::size_t>(pi) * reps +
                               static_cast<std::size_t>(rep);
        for (std::size_t si = 0; si < n_sol; ++si) {
          pool.submit([&, pi, ti, si] {
            std::call_once(taskset_once[ti], [&] {
              VC2M_PROFILE_PHASE("generate");
              workload::GeneratorConfig gen;
              gen.grid = cfg.platform.grid;
              gen.target_ref_utilization = cfg.util_lo + cfg.util_step * pi;
              gen.dist = cfg.dist;
              gen.num_vms = cfg.num_vms;
              util::Rng gen_rng = streams[ti].gen;
              tasksets[ti] = workload::generate_taskset(gen, gen_rng);
            });
            util::Rng solve_rng = streams[ti].solve[si];
            Cell& cell = cells[ti * n_sol + si];
            {
              VC2M_PROFILE_PHASE(span_names[si]);
              std::optional<obs::DecisionLogScope> rec;
              if (record_decisions) rec.emplace(cell.log);
              const auto res = solve(*strategies[si], tasksets[ti],
                                     cfg.platform, solve_cfg, solve_rng);
              cell.schedulable = res.schedulable;
              cell.seconds = res.seconds;
              cell.counters = res.counters;
              // Validate before the collector lock: the taskset may be
              // freed the moment this item is accounted as the rep's last.
              if (cfg.validate && res.schedulable)
                cell.validated =
                    cfg.validate(*strategies[si], tasksets[ti], res,
                                 mix_seed(cfg.seed, ti * n_sol + si));
            }

            std::lock_guard<std::mutex> lk(collector_mu);
            if (--rep_items_left[ti] == 0) tasksets[ti] = model::Taskset{};
            if (--point_items_left[pi] == 0) {
              ++points_done;
              const auto t = pool.telemetry();
              result.pool_samples.push_back(
                  {util::Time::ns(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - sweep_start)
                           .count()),
                   t.total_executed(), t.total_steals(), pool.pending()});
              if (progress) progress(points_done, n_points);
            }
          });
        }
      }
    }
    pool.wait();
  }
  result.pool = pool.telemetry();

  // Deterministic assembly in serial (point, taskset, solution) order.
  VC2M_PROFILE_PHASE("assemble");
  result.points.reserve(static_cast<std::size_t>(n_points));
  for (int pi = 0; pi < n_points; ++pi) {
    UtilizationPoint point;
    point.target_util = cfg.util_lo + cfg.util_step * pi;
    point.per_solution.assign(n_sol, {});
    for (int rep = 0; rep < reps; ++rep) {
      const std::size_t ti =
          static_cast<std::size_t>(pi) * reps + static_cast<std::size_t>(rep);
      for (std::size_t si = 0; si < n_sol; ++si) {
        const Cell& cell = cells[ti * n_sol + si];
        auto& sp = point.per_solution[si];
        sp.total += 1;
        sp.schedulable += cell.schedulable ? 1 : 0;
        sp.validated += cell.validated ? 1 : 0;
        sp.total_seconds += cell.seconds;
        result.solve_seconds.add(cell.seconds);
      }
    }
    result.points.push_back(std::move(point));
  }

  // Solves ran on worker threads whose thread-local collector pointer is
  // null, so the caller's scope saw nothing live; merge the per-solve
  // counters into it here, in serial order, for jobs-independent totals.
  if (auto* outer = util::alloc_counters())
    for (const Cell& cell : cells) outer->merge(cell.counters);
  if (auto* outer = obs::decision_log())
    for (const Cell& cell : cells) outer->append(cell.log);
  return result;
}

}  // namespace vc2m::core

// The §5 schedulability experiment runner behind `vc2m experiment` (and
// its Fig. 2/3/4 presets) and the examples: sweep taskset reference
// utilization, generate workloads per §5.1, run each solution on identical
// tasksets, and record schedulable fractions and analysis running times.
//
// The sweep is embarrassingly parallel: every RNG stream is pre-forked
// serially from the master seed, then the (point, taskset, solution) work
// items are dispatched over a work-stealing thread pool. Results are a pure
// function of the pre-forked streams, so they are bit-identical for any
// `jobs` count and any completion order (docs/parallelism.md spells out the
// contract; tests/test_parallel.cpp enforces it).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "model/platform.h"
#include "util/log_histogram.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/time.h"
#include "workload/generator.h"

namespace vc2m::core {

struct ExperimentConfig {
  model::PlatformSpec platform = model::PlatformSpec::A();
  workload::UtilDist dist = workload::UtilDist::kUniform;
  double util_lo = 0.1;
  double util_hi = 2.0;
  double util_step = 0.05;
  int tasksets_per_point = 50;
  int num_vms = 1;
  std::uint64_t seed = 42;
  /// Worker threads for the sweep; 0 means hardware concurrency. The
  /// result is bit-identical regardless of the value.
  int jobs = 0;
  /// StrategyRegistry keys to sweep, in column order; defaults to the five
  /// paper solutions. Any registered strategy — including ones registered
  /// by downstream code — can be named here. Resolved (and validated)
  /// once, before the sweep starts.
  std::vector<std::string> solutions = default_solution_keys();
  SolveConfig solve;

  /// Optional runtime validation of each *schedulable* allocation — e.g.
  /// obs::make_fault_validator, which replays the allocation in the
  /// simulator under a fault plan ("fraction schedulable under X% WCET
  /// overrun"). Called from worker threads (must be thread-safe) with the
  /// strategy that solved it, the taskset, the solve result, and a per-item
  /// seed derived arithmetically from `seed` — so validation results are
  /// bit-identical for any `jobs` count. Unschedulable allocations are
  /// never validated.
  using ValidateFn =
      std::function<bool(const Strategy&, const model::Taskset&,
                         const SolveResult&, std::uint64_t)>;
  ValidateFn validate;
};

struct SolutionPoint {
  int schedulable = 0;       ///< tasksets deemed schedulable
  int total = 0;             ///< tasksets analyzed
  double total_seconds = 0;  ///< summed analysis time
  /// Tasksets that were schedulable AND passed ExperimentConfig::validate
  /// (0 when no validator is configured).
  int validated = 0;

  double fraction() const {
    return total > 0 ? static_cast<double>(schedulable) / total : 0;
  }
  double avg_seconds() const {
    return total > 0 ? total_seconds / total : 0;
  }
  /// Fraction of analyzed tasksets that survived runtime validation.
  double validated_fraction() const {
    return total > 0 ? static_cast<double>(validated) / total : 0;
  }
};

struct UtilizationPoint {
  double target_util = 0;
  std::vector<SolutionPoint> per_solution;  ///< parallel to cfg.solutions
};

struct ExperimentResult {
  ExperimentConfig cfg;
  std::vector<UtilizationPoint> points;

  /// Distribution of per-solve analysis seconds over the whole sweep,
  /// accumulated in serial (point, taskset, solution) order. The *set* of
  /// samples is jobs-independent; individual wall times are not.
  util::LogHistogram solve_seconds;

  /// Pool counters at the end of the sweep (executed/steals/idle per
  /// worker). Executed totals are deterministic; steal/idle split depends
  /// on OS scheduling — report, never gate.
  util::PoolTelemetry pool;

  /// Pool counter time series, sampled by the collector each time a
  /// utilization point completes (`at` is the wall offset from sweep
  /// start). Rendered as Perfetto counter tracks by the CLI.
  struct PoolSample {
    util::Time at;
    std::uint64_t executed = 0;
    std::uint64_t steals = 0;
    std::size_t pending = 0;
  };
  std::vector<PoolSample> pool_samples;

  /// Largest utilization u such that every point ≤ u has schedulable
  /// fraction ≥ `threshold` for the given solution — the paper's
  /// "utilization after which tasksets start to become unschedulable".
  /// Requires a non-empty sweep and a solution index every point covers.
  double breakdown_utilization(std::size_t solution_index,
                               double threshold = 0.999) const;

  /// Render as a table: one row per utilization, one fraction column per
  /// solution, plus one validated-fraction ("+f") column per solution when
  /// a validator was configured. Requires a non-empty sweep whose points
  /// all match cfg.solutions.
  util::Table to_table() const;
};

/// Run the sweep over cfg.jobs worker threads (0 = hardware concurrency).
/// `progress`, when set, is invoked from a single mutex-serialized collector
/// each time a utilization point completes, with a monotonically increasing
/// (points_completed, total_points) — note it may run on a worker thread.
/// The caller's util::AllocCounterScope, if any, receives every solve's
/// counters merged in serial (point, taskset, solution) order, so aggregate
/// effort totals are also independent of the jobs count.
ExperimentResult run_schedulability_experiment(
    const ExperimentConfig& cfg,
    const std::function<void(int, int)>& progress = {});

}  // namespace vc2m::core

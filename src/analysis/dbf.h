// EDF demand-bound functions for implicit-deadline periodic tasks.
//
// The compositional analyses in this library all reduce to comparing the
// demand of a (plain, resource-agnostic) periodic taskset against the supply
// of a resource model. `PTask` is that plain view: a (period, wcet) pair
// obtained by evaluating a cache/BW-aware task at one grid point.
//
// Two call styles coexist:
//  - The span-of-PTask functions are the reference kernels (readable,
//    allocation-per-call); tests pin the fast path against them.
//  - `TaskArrays` is the structure-of-arrays view the hot path uses:
//    contiguous period/wcet/utilization columns validated once at assign()
//    time, so the demand-sum inner loops run without per-element checks
//    and stay cache-dense. AnalysisContext builds and caches these
//    (docs/performance.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/time.h"

namespace vc2m::analysis {

/// A plain implicit-deadline periodic task (p, e) with e already fixed for a
/// concrete (cache, bandwidth) allocation.
struct PTask {
  util::Time period;
  util::Time wcet;
};

/// EDF demand bound: dbf(t) = Σ_i ⌊t / p_i⌋ · e_i (implicit deadlines).
util::Time dbf(std::span<const PTask> tasks, util::Time t);

/// Σ e_i / p_i.
double total_utilization(std::span<const PTask> tasks);

/// Hyperperiod (LCM of all periods). Fails loudly (util::lcm overflow
/// check) when the exact hyperperiod exceeds 64-bit nanoseconds.
util::Time hyperperiod(std::span<const PTask> tasks);

/// Hard cap on the number of checkpoints one dbf_checkpoints call may
/// produce. Worst-case transient memory is Σ_i horizon/p_i Time values
/// *before* dedup — a 1 ns period against a 1 s horizon would be 10⁹ points
/// (8 GB) — so the count is computed first and checked against this cap
/// (2²² points ≈ 32 MiB) instead of letting the allocation OOM.
inline constexpr std::int64_t kDbfCheckpointCap = std::int64_t{1} << 22;

/// The points where dbf() jumps within (0, horizon]: every multiple of every
/// period. Sorted, deduplicated. Since dbf is a right-continuous step
/// function and every relevant supply bound is non-decreasing, verifying
/// dbf(t) <= sbf(t) at these points verifies it everywhere. Fails (with the
/// offending count) when the pre-dedup point count exceeds
/// kDbfCheckpointCap.
std::vector<util::Time> dbf_checkpoints(std::span<const PTask> tasks,
                                        util::Time horizon);

/// Structure-of-arrays view of a PTask span: contiguous raw-ns period and
/// wcet columns plus the in-task-order utilization sum (bit-identical to
/// total_utilization(), which matters because schedulability compares it
/// against bandwidth with an epsilon). Periods are validated positive once
/// here, so the kernels below run check-free inner loops.
struct TaskArrays {
  std::vector<std::int64_t> period;  ///< p_i in raw ns
  std::vector<std::int64_t> wcet;    ///< e_i in raw ns
  double total_util = 0;             ///< Σ e_i/p_i, summed in task order

  void assign(std::span<const PTask> tasks);
  std::size_t size() const { return period.size(); }
  bool empty() const { return period.empty(); }

  /// Hyperperiod of the period column (checked util::lcm).
  util::Time hyperperiod() const;
};

/// Demand at each checkpoint over SoA columns: out[k] = Σ_i ⌊points[k]/p_i⌋
/// e_i. The wcet column is passed separately so one cached period column
/// serves many wcet surfaces (grid cells). Counts one dbf evaluation per
/// point — each out[k] is exactly one dbf(t).
///
/// Precondition: `points` is strictly ascending and positive, and every
/// period is positive; anything else throws util::Error. No division: the
/// kernel walks the points keeping each task's last passed multiple and
/// steps it forward by p_i, so any strictly ascending point set works,
/// multiples skipped or not (docs/analysis.md).
void demand_at(std::span<const std::int64_t> periods,
               std::span<const std::int64_t> wcets,
               std::span<const util::Time> points,
               std::span<util::Time> out);

/// dbf_checkpoints over a period column: a k-way merge of the per-task
/// arithmetic streams (p, 2p, 3p, …) into `out`, already sorted and
/// deduplicated — no materialize-then-sort. Same cap and same result as
/// dbf_checkpoints(). `out` is cleared first.
void merge_checkpoints(std::span<const std::int64_t> periods,
                       util::Time horizon, std::vector<util::Time>& out);

}  // namespace vc2m::analysis

// EDF demand-bound functions for implicit-deadline periodic tasks.
//
// The compositional analyses in this library all reduce to comparing the
// demand of a (plain, resource-agnostic) periodic taskset against the supply
// of a resource model. `PTask` is that plain view: a (period, wcet) pair
// obtained by evaluating a cache/BW-aware task at one grid point.
//
// The span-of-PTask functions are the reference kernels (readable,
// allocation-per-call); merge_checkpoints builds the same checkpoint stream
// from a bare period column, which is how AnalysisContext caches one stream
// per (periods, Π) group. The engine's demand comes from that group's job
// counts (analysis/context.h, docs/performance.md); tests pin it against
// dbf().
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

/// dbf_checkpoints over a period column: a k-way merge of the per-task
/// arithmetic streams (p, 2p, 3p, …) into `out`, already sorted and
/// deduplicated — no materialize-then-sort. Same cap and same result as
/// dbf_checkpoints(). `out` is cleared first.
void merge_checkpoints(std::span<const std::int64_t> periods,
                       util::Time horizon, std::vector<util::Time>& out);

}  // namespace vc2m::analysis

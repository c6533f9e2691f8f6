// EDF demand-bound functions for implicit-deadline periodic tasks.
//
// The compositional analyses in this library all reduce to comparing the
// demand of a (plain, resource-agnostic) periodic taskset against the supply
// of a resource model. `PTask` is that plain view: a (period, wcet) pair
// obtained by evaluating a cache/BW-aware task at one grid point.
//
// merge_checkpoints builds a group's checkpoint stream from a bare period
// column, which is how AnalysisContext caches one stream per (periods, Π)
// group. The engine's demand comes from that group's job counts
// (analysis/context.h, docs/performance.md). The readable span-of-PTask
// reference kernels (dbf, dbf_checkpoints, hyperperiod) live in
// tests/oracle/dbf.h; tests pin the engine against them.
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

/// Σ e_i / p_i.
double total_utilization(std::span<const PTask> tasks);

/// Hard cap on the number of checkpoints one merge_checkpoints call may
/// produce. Worst-case transient memory is Σ_i horizon/p_i Time values
/// *before* dedup — a 1 ns period against a 1 s horizon would be 10⁹ points
/// (8 GB) — so the count is computed first and checked against this cap
/// (2²² points ≈ 32 MiB) instead of letting the allocation OOM.
inline constexpr std::int64_t kDbfCheckpointCap = std::int64_t{1} << 22;

/// The points where demand jumps within (0, horizon]: every multiple of
/// every period in `periods`, sorted and deduplicated, written to `out`
/// (cleared first). Since demand is a right-continuous step function and
/// every relevant supply bound is non-decreasing, verifying dbf ≤ sbf at
/// these points verifies it everywhere. A k-way merge of the per-task
/// arithmetic streams (p, 2p, 3p, …), no materialize-then-sort. Fails (with
/// the offending count) when the pre-dedup point count exceeds
/// kDbfCheckpointCap.
void merge_checkpoints(std::span<const std::int64_t> periods,
                       util::Time horizon, std::vector<util::Time>& out);

}  // namespace vc2m::analysis

// Reference demand kernels: readable, allocation-per-call EDF demand over a
// span of PTask. The engine never calls them; it builds its checkpoint
// stream with analysis::merge_checkpoints and its demand from a group's job
// counts (analysis/context.h). Tests and bench_micro_ops pin the engine
// against these.
#pragma once

#include <span>
#include <vector>

#include "analysis/dbf.h"
#include "util/time.h"

namespace vc2m::analysis {

/// EDF demand bound: dbf(t) = Σ_i ⌊t / p_i⌋ · e_i (implicit deadlines).
util::Time dbf(std::span<const PTask> tasks, util::Time t);

/// Hyperperiod (LCM of all periods). Fails loudly (util::lcm overflow
/// check) when the exact hyperperiod exceeds 64-bit nanoseconds.
util::Time hyperperiod(std::span<const PTask> tasks);

/// The points where dbf() jumps within (0, horizon]: every multiple of every
/// period. Sorted, deduplicated. Since dbf is a right-continuous step
/// function and every relevant supply bound is non-decreasing, verifying
/// dbf(t) <= sbf(t) at these points verifies it everywhere. Fails (with the
/// offending count) when the pre-dedup point count exceeds
/// kDbfCheckpointCap.
std::vector<util::Time> dbf_checkpoints(std::span<const PTask> tasks,
                                        util::Time horizon);

}  // namespace vc2m::analysis

// Whole-set per-core tests: every VCPU of `vcpus` on one core. The engine
// tests index subsets (analysis/schedulability.h) or keeps an incremental
// core::CoreLoad; tests use these to state what a core must satisfy.
#pragma once

#include <span>

#include "model/task.h"

namespace vc2m::analysis {

/// Σ_j Θ_j(c,b)/Π_j over the given VCPUs.
double core_utilization(std::span<const model::Vcpu> vcpus, unsigned c,
                        unsigned b);

/// Exact test Σ_j Θ_j(c,b)/Π_j ≤ 1 (EDF on one core). Counts one admission
/// test, as the engine's subset form does.
bool core_schedulable(std::span<const model::Vcpu> vcpus, unsigned c,
                      unsigned b);

}  // namespace vc2m::analysis

// Reference PRM analysis (Shin & Lee [13]): the supply bound of a periodic
// resource Γ = (Π, Θ), the dbf ≤ sbf test and the minimum budget by
// bisection. Readable and slow; the engine computes the same minimum with
// analysis::min_budget_on_curve (analysis/prm.h) behind
// AnalysisContext::min_budget, and tests pin the two together.
#pragma once

#include <optional>
#include <span>

#include "analysis/dbf.h"
#include "util/time.h"

namespace vc2m::analysis {

/// Periodic resource model Γ = (Π, Θ).
struct Prm {
  util::Time period;  ///< Π
  util::Time budget;  ///< Θ

  /// Worst-case supply bound function sbf_Γ(t) (exact form of [13]):
  ///   sbf(t) = (k−1)Θ + max(0, t − 2(Π−Θ) − (k−1)Π),
  ///   k = ⌊(t − (Π−Θ))/Π⌋ + 1, for t ≥ Π−Θ; 0 otherwise.
  util::Time sbf(util::Time t) const;

  /// Linear lower bound lsbf(t) = (Θ/Π)·(t − 2(Π−Θ)), clipped at 0.
  double lsbf(util::Time t) const;

  double bandwidth() const { return budget.ratio(period); }
};

/// True iff the taskset is EDF-schedulable on the supply of `prm`:
/// dbf(t) ≤ sbf(t) at every demand checkpoint up to lcm(hyperperiod, Π),
/// plus the long-run rate condition U ≤ Θ/Π.
bool edf_schedulable_on_prm(std::span<const PTask> tasks, const Prm& prm);

/// Minimum integer-nanosecond budget Θ such that the taskset is
/// EDF-schedulable on (Π = period, Θ); std::nullopt if even Θ = Π fails
/// (i.e. the taskset exceeds a dedicated core). A binary search over
/// [⌊U·Π⌋, Π] that re-derives checkpoints and demand per probe.
std::optional<util::Time> min_budget_edf(std::span<const PTask> tasks,
                                         util::Time period);

}  // namespace vc2m::analysis

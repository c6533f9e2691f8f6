// Supply analysis of well-regulated VCPUs (technical report [15]).
//
// A VCPU is *well-regulated* when its execution pattern repeats in every
// period: it executes at time t iff it executes at t + kΠ. vC2M enforces
// this with periodic servers, harmonic VCPU periods, a common release
// offset, and the deterministic EDF tie-break (§3.2).
//
// Regularity shrinks the worst-case supply gap: a periodic-resource-model
// VCPU can deliver its budget at the very start of one period and the very
// end of the next (gap 2(Π−Θ)), but a repeating pattern exposes at most one
// gap of (Π−Θ) to any window. The resulting supply bound dominates the PRM
// sbf, and for harmonic tasksets released in phase with the VCPU the
// schedulability condition collapses to U ≤ Θ/Π — the overhead-free
// interface of Theorem 2.
//
// These are reference kernels for tests: the engine sizes regulated VCPUs
// with analysis::regulated_vcpu / RegulatedBudget (Theorem 2), and these
// functions check that interface against the general supply bound.
#pragma once

#include <optional>
#include <span>

#include "analysis/dbf.h"
#include "util/time.h"

namespace vc2m::analysis {

/// Supply model of a well-regulated VCPU Γ = (Π, Θ).
struct RegulatedSupply {
  util::Time period;  ///< Π
  util::Time budget;  ///< Θ

  /// Worst-case supply over any window of length t:
  ///   sbf_wr(t) = kΘ + max(0, (t − kΠ) − (Π−Θ)),  k = ⌊t/Π⌋.
  /// Exactly one (Π−Θ) gap is exposed, versus the PRM's two.
  util::Time sbf(util::Time t) const;

  double bandwidth() const { return budget.ratio(period); }
};

/// EDF schedulability of an arbitrary (not necessarily harmonic) taskset on
/// a well-regulated VCPU: dbf(t) ≤ sbf_wr(t) at all demand checkpoints up
/// to lcm(hyperperiod, Π), plus the rate condition.
bool edf_schedulable_on_regulated(std::span<const PTask> tasks,
                                  const RegulatedSupply& supply);

/// Minimum budget under the regulated supply (analogue of
/// min_budget_edf); never larger than the PRM minimum.
std::optional<util::Time> min_budget_regulated(std::span<const PTask> tasks,
                                               util::Time period);

}  // namespace vc2m::analysis

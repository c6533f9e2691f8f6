// The periodic resource model of Shin & Lee [13] — the "existing CSA".
//
// A VCPU abstracted as Γ = (Π, Θ) supplies Θ units of CPU time in every
// period Π, in the worst case delayed by up to 2(Π − Θ). The existing
// compositional analysis computes, for the tasks mapped onto a VCPU, the
// minimum budget Θ such that EDF meets all deadlines given the worst-case
// supply — this minimum is what carries the *abstraction overhead* vC2M
// removes: e.g. a single task (p=10, e=1) with utilization 0.1 needs
// Θ = 5.5 at Π = 10, a bandwidth 5.5× the task's utilization.
//
// The engine's form is min_budget_on_curve below, reached through
// AnalysisContext::min_budget. The readable reference analysis it must
// match (the Prm supply bound, the dbf ≤ sbf test and the bisection
// min_budget_edf) lives in tests/oracle/prm.h.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "analysis/dbf.h"
#include "util/time.h"

namespace vc2m::analysis {

// ---------------------------------------------------------------------------
// Exact minimum budget on a precomputed demand curve (the hot path; see
// docs/performance.md, "Layer 1b").
//
// Both conditions of the reference dbf ≤ sbf test (edf_schedulable_on_prm
// in tests/oracle/prm.h) are monotone in Θ: sbf_(Π,Θ)(t) never decreases
// as Θ grows, and neither does the double Θ/Π of the rate test. The
// reference min_budget_edf's bisection over [⌊U·Π⌋, Π] therefore returns
// exactly max(⌊U·Π⌋, θ_rate, max_k θ_k), where θ_rate is the least budget
// passing the rate test and θ_k the least budget whose supply covers the
// demand at checkpoint t_k. The curve form computes that maximum directly:
// one walk over the checkpoints, inverting sbf only where the running Θ
// falls short.

/// One task group's demand, precomputed over the dbf checkpoints of its
/// (periods, horizon) pair. Both spans borrow caller storage (typically an
/// AnalysisContext group + arena).
struct DemandCurve {
  std::span<const util::Time> points;  ///< sorted dbf checkpoints
  std::span<const util::Time> demand;  ///< dbf at each point
  /// Each point split by the Π the curve is searched at, t_k = q_kΠ + r_k
  /// with 0 ≤ r_k < Π, so the walk divides nothing (AnalysisContext keeps
  /// them per group).
  std::span<const std::int64_t> quot;  ///< q_k = ⌊t_k/Π⌋
  std::span<const std::int64_t> rem;   ///< r_k = t_k mod Π
};

/// min_budget_edf on a precomputed curve: the identical minimum (and
/// std::nullopt exactly when min_budget_edf returns it), computed without
/// a search. `total_util` must be total_utilization() of the same tasks
/// (the bit-identical ordered sum); `curve` must cover the checkpoints of
/// lcm(hyperperiod, period), and its quot/rem must split its points by
/// `period`. An empty curve with total_util 0 is the empty taskset.
std::optional<util::Time> min_budget_on_curve(const DemandCurve& curve,
                                              double total_util,
                                              util::Time period);

}  // namespace vc2m::analysis

// The periodic resource model of Shin & Lee [13] — the "existing CSA".
//
// A VCPU abstracted as Γ = (Π, Θ) supplies Θ units of CPU time in every
// period Π, in the worst case delayed by up to 2(Π − Θ). The existing
// compositional analysis computes, for the tasks mapped onto a VCPU, the
// minimum budget Θ such that EDF meets all deadlines given the worst-case
// supply — this minimum is what carries the *abstraction overhead* vC2M
// removes: e.g. a single task (p=10, e=1) with utilization 0.1 needs
// Θ = 5.5 at Π = 10, a bandwidth 5.5× the task's utilization.
#pragma once

#include <cstdint>
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
/// (i.e. the taskset exceeds a dedicated core). The reference: a binary
/// search over [⌊U·Π⌋, Π] that re-derives checkpoints and demand per probe.
/// It is the readable specification and the tests' oracle; the engine uses
/// min_budget_on_curve, which returns the same minimum.
std::optional<util::Time> min_budget_edf(std::span<const PTask> tasks,
                                         util::Time period);

// ---------------------------------------------------------------------------
// Exact minimum budget on a precomputed demand curve (the hot path; see
// docs/performance.md, "Layer 1b").
//
// Both conditions of edf_schedulable_on_prm are monotone in Θ: sbf_(Π,Θ)(t)
// never decreases as Θ grows, and neither does the double Θ/Π of the rate
// test. min_budget_edf's bisection over [⌊U·Π⌋, Π] therefore returns
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

/// The least Θ in [0, Π] with sbf_(Π,Θ)(t) ≥ demand. Requires Π > 0 and
/// 0 ≤ demand ≤ t (Θ = Π supplies exactly t). Exact for every int64 input.
util::Time min_budget_for_point(util::Time period, util::Time t,
                                util::Time demand);

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

#include "oracle/prm.h"

#include <algorithm>
#include <cstdint>

#include "oracle/dbf.h"
#include "util/error.h"

namespace vc2m::analysis {

util::Time Prm::sbf(util::Time t) const {
  VC2M_CHECK(budget >= util::Time::zero() && budget <= period);
  // With gap = Π − Θ and k = ⌊(t − gap)/Π⌋ whole periods before the last
  // ramp, sbf(t) = kΘ + min(max(0, t − 2·gap − kΠ), Θ) for t > gap. Every
  // intermediate stays within [−Π, t], so no input overflows.
  const std::int64_t pi = period.raw_ns(), theta = budget.raw_ns();
  const std::int64_t ts = t.raw_ns(), gap = pi - theta;
  if (ts <= gap) return util::Time::zero();
  const std::int64_t k = ts % pi < gap ? ts / pi - 1 : ts / pi;
  const std::int64_t partial =
      std::max<std::int64_t>(0, ts - gap - gap - pi * k);
  return util::Time::ns(theta * k + std::min(partial, theta));
}

double Prm::lsbf(util::Time t) const {
  const util::Time gap2 = (period - budget) * 2;
  if (t <= gap2) return 0.0;
  return bandwidth() * static_cast<double>((t - gap2).raw_ns());
}

bool edf_schedulable_on_prm(std::span<const PTask> tasks, const Prm& prm) {
  VC2M_CHECK(prm.period > util::Time::zero());
  VC2M_CHECK(prm.budget >= util::Time::zero() && prm.budget <= prm.period);
  if (tasks.empty()) return true;

  // Long-run rate condition.
  if (total_utilization(tasks) > prm.bandwidth() + 1e-12) return false;

  const util::Time horizon = util::lcm(hyperperiod(tasks), prm.period);
  for (const util::Time t : dbf_checkpoints(tasks, horizon))
    if (dbf(tasks, t) > prm.sbf(t)) return false;
  return true;
}

std::optional<util::Time> min_budget_edf(std::span<const PTask> tasks,
                                         util::Time period) {
  VC2M_CHECK(period > util::Time::zero());
  if (tasks.empty()) return util::Time::zero();

  const double u = total_utilization(tasks);
  if (u > 1.0 + 1e-12) return std::nullopt;

  // Feasible at Θ = Π iff schedulable on a dedicated core.
  if (!edf_schedulable_on_prm(tasks, Prm{period, period})) return std::nullopt;

  // Feasibility is monotone in Θ: binary search the least feasible budget
  // in [U·Π, Π].
  util::Time lo = util::Time::ns(static_cast<std::int64_t>(
      u * static_cast<double>(period.raw_ns())));  // U·Π is a lower bound
  util::Time hi = period;
  while (lo < hi) {
    const util::Time mid = util::Time::ns(
        lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
    if (edf_schedulable_on_prm(tasks, Prm{period, mid}))
      hi = mid;
    else
      lo = mid + util::Time::ns(1);
  }
  return hi;
}

}  // namespace vc2m::analysis

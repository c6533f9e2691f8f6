#include "oracle/regulated.h"

#include "oracle/dbf.h"
#include "util/error.h"

namespace vc2m::analysis {

util::Time RegulatedSupply::sbf(util::Time t) const {
  VC2M_CHECK(budget >= util::Time::zero() && budget <= period);
  if (t <= util::Time::zero()) return util::Time::zero();
  const std::int64_t k = t / period;
  const util::Time rem = t % period;
  const util::Time gap = period - budget;  // Π − Θ, exposed once
  const util::Time partial = util::max(util::Time::zero(), rem - gap);
  return budget * k + util::min(partial, budget);
}

bool edf_schedulable_on_regulated(std::span<const PTask> tasks,
                                  const RegulatedSupply& supply) {
  VC2M_CHECK(supply.period > util::Time::zero());
  if (tasks.empty()) return true;
  if (total_utilization(tasks) > supply.bandwidth() + 1e-12) return false;

  const util::Time horizon =
      util::lcm(hyperperiod(tasks), supply.period);
  for (const util::Time t : dbf_checkpoints(tasks, horizon))
    if (dbf(tasks, t) > supply.sbf(t)) return false;
  return true;
}

std::optional<util::Time> min_budget_regulated(std::span<const PTask> tasks,
                                               util::Time period) {
  VC2M_CHECK(period > util::Time::zero());
  if (tasks.empty()) return util::Time::zero();
  const double u = total_utilization(tasks);
  if (u > 1.0 + 1e-12) return std::nullopt;
  if (!edf_schedulable_on_regulated(tasks, {period, period}))
    return std::nullopt;

  util::Time lo = util::Time::ns(static_cast<std::int64_t>(
      u * static_cast<double>(period.raw_ns())));
  util::Time hi = period;
  while (lo < hi) {
    const util::Time mid =
        util::Time::ns(lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
    if (edf_schedulable_on_regulated(tasks, {period, mid}))
      hi = mid;
    else
      lo = mid + util::Time::ns(1);
  }
  return hi;
}

}  // namespace vc2m::analysis

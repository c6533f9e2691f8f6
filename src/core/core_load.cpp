#include "core/core_load.h"

#include <algorithm>
#include <numeric>

#include "analysis/schedulability.h"
#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::core {

CoreLoad::CoreLoad(std::span<const model::Vcpu> vcpus,
                   const model::ResourceGrid& grid)
    : CoreLoad(vcpus, {}, grid) {}

CoreLoad::CoreLoad(std::span<const model::Vcpu> placed,
                   std::span<const model::Vcpu> pending,
                   const model::ResourceGrid& grid)
    : placed_(placed),
      pending_(pending),
      grid_(grid),
      demand_(grid.size(), 0),
      demand_valid_(grid.size(), 0),
      sched_(grid.size(), 0),
      sched_valid_(grid.size(), 0),
      util_(grid.size(), 0),
      util_valid_(grid.size(), 0) {}

CoreLoad::CoreLoad(std::span<const model::Vcpu> vcpus,
                   const model::ResourceGrid& grid,
                   std::span<const std::size_t> members)
    : CoreLoad(vcpus, grid) {
  for (const std::size_t v : members) add(v);
}

void CoreLoad::shift_demand(const model::Vcpu& v, std::int64_t w, int sign) {
  if (!demand_materialized_) return;
  std::size_t i = 0;
  for (unsigned c = grid_.c_min; c <= grid_.c_max; ++c)
    for (unsigned b = grid_.b_min; b <= grid_.b_max; ++b, ++i)
      if (demand_valid_[i])
        demand_[i] +=
            sign * static_cast<__int128>(budget(v, i, c, b).raw_ns()) * w;
}

void CoreLoad::add(std::size_t vcpu_index) {
  VC2M_CHECK(vcpu_index < placed_.size() + pending_.size());
  const model::Vcpu& v = vcpu(vcpu_index);
  // The one grid check for this member: while every member's budget is
  // defined over this core's grid, probes index the budget tables with the
  // core's flat grid index.
  on_grid_ = on_grid_ && v.budget.grid() == grid_ &&
             v.budget.flat().size() == grid_.size();
  on_core_.push_back(vcpu_index);
  if (util_cached_) {
    std::fill(util_valid_.begin(), util_valid_.end(), 0);
    util_cached_ = false;
  }
  if (!exact_) {
    std::fill(sched_valid_.begin(), sched_valid_.end(), 0);
    return;
  }

  const std::int64_t p = v.period.raw_ns();
  VC2M_CHECK(p > 0);
  const std::int64_t g = std::gcd(common_multiple_, p);
  if (common_multiple_ / g > analysis::kPeriodLcmCap / p) {
    // L would overflow the exact-comparison cap: defer to the fallback
    // test from here on (same verdicts, no incremental accounting).
    exact_ = false;
    std::fill(sched_valid_.begin(), sched_valid_.end(), 0);
    return;
  }
  const std::int64_t next = common_multiple_ / g * p;
  const std::int64_t scale = next / common_multiple_;
  if (scale > 1) {
    for (auto& w : weight_) w *= scale;
    if (demand_materialized_)
      for (std::size_t i = 0; i < demand_.size(); ++i)
        if (demand_valid_[i]) demand_[i] *= scale;
  }
  common_multiple_ = next;
  const std::int64_t w = common_multiple_ / p;
  weight_.push_back(w);
  shift_demand(v, w, +1);
}

std::size_t CoreLoad::remove_at(std::size_t pos) {
  VC2M_CHECK(pos < on_core_.size());
  const std::size_t v = on_core_[pos];
  if (util_cached_) {
    std::fill(util_valid_.begin(), util_valid_.end(), 0);
    util_cached_ = false;
  }
  if (exact_) {
    shift_demand(vcpu(v), weight_[pos], -1);
    weight_.erase(weight_.begin() + static_cast<std::ptrdiff_t>(pos));
    // common_multiple_ stays: it remains a common multiple of the
    // remaining periods, which is all the exact comparison needs.
  } else {
    std::fill(sched_valid_.begin(), sched_valid_.end(), 0);
  }
  on_core_.erase(on_core_.begin() + static_cast<std::ptrdiff_t>(pos));
  return v;
}

double CoreLoad::utilization(unsigned c, unsigned b) {
  const std::size_t i = grid_.index(c, b);
  if (util_valid_[i]) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    return util_[i];
  }
  // The same in-order sum analysis::core_utilization performs.
  double u = 0;
  for (const std::size_t j : on_core_) {
    const model::Vcpu& v = vcpu(j);
    u += budget(v, i, c, b).ratio(v.period);
  }
  util_[i] = u;
  util_valid_[i] = 1;
  util_cached_ = true;
  return u;
}

bool CoreLoad::schedulable(unsigned c, unsigned b) {
  const std::size_t i = grid_.index(c, b);
  if (!exact_) {
    bool ok;
    if (sched_valid_[i]) {
      ok = sched_[i] != 0;
      if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    } else {
      ok = analysis::utilization_at_most_one(
          [this](std::size_t j) -> const model::Vcpu& { return vcpu(j); },
          on_core_, c, b);
      sched_[i] = ok ? 1 : 0;
      sched_valid_[i] = 1;
    }
    if (auto* ctr = util::alloc_counters()) {
      ++ctr->admission_tests;
      ctr->admission_passed += ok ? 1 : 0;
    }
    return ok;
  }

  if (demand_valid_[i]) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
  } else {
    __int128 d = 0;
    for (std::size_t k = 0; k < on_core_.size(); ++k)
      d += static_cast<__int128>(budget(vcpu(on_core_[k]), i, c, b).raw_ns()) *
           weight_[k];
    demand_[i] = d;
    demand_valid_[i] = 1;
    demand_materialized_ = true;
  }
  const bool ok = demand_[i] <= static_cast<__int128>(common_multiple_);
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
  return ok;
}

}  // namespace vc2m::core

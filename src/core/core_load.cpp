#include "core/core_load.h"

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
                   const model::ResourceGrid& grid) {
  reset(placed, pending, grid);
}

void CoreLoad::reset(std::span<const model::Vcpu> placed,
                     std::span<const model::Vcpu> pending,
                     const model::ResourceGrid& grid) {
  placed_ = placed;
  pending_ = pending;
  grid_ = grid;
  // Stamps only ever fall behind the epochs, which clear() advances past
  // every stamp, so the per-point tables need no refill.
  const std::size_t n = grid.size();
  if (util_.size() != n) {
    demand_.assign(n, 0);
    demand_stamp_.assign(n, 0);
    demand_seen_.assign(n, 0);
    sched_.assign(n, 0);
    sched_stamp_.assign(n, 0);
    util_.assign(n, 0);
    util_stamp_.assign(n, 0);
  }
  clear();
}

CoreLoad::CoreLoad(std::span<const model::Vcpu> vcpus,
                   const model::ResourceGrid& grid,
                   std::span<const std::size_t> members)
    : CoreLoad(vcpus, grid) {
  for (const std::size_t v : members) add(v);
}

void CoreLoad::log_edit(DemandEdit e) {
  if (!demand_materialized_) return;  // no demand to keep up to date
  if (edits_.size() >= grid_.size()) {
    model::GridPoint p;
    for (p.c = grid_.c_min; p.c <= grid_.c_max; ++p.c)
      for (p.b = grid_.b_min; p.b <= grid_.b_max; ++p.b, ++p.flat)
        if (demand_stamp_[p.flat] == demand_epoch_) {
          catch_up(p);
          demand_seen_[p.flat] = 0;
        }
    edits_.clear();
  }
  edits_.push_back(e);
}

__int128 CoreLoad::catch_up(model::GridPoint p) {
  __int128& d = demand_[p.flat];
  for (std::size_t k = demand_seen_[p.flat]; k < edits_.size(); ++k) {
    const DemandEdit& e = edits_[k];
    if (e.vcpu == DemandEdit::kRescale)
      d *= e.factor;
    else
      d += static_cast<__int128>(budget(vcpu(e.vcpu), p).raw_ns()) * e.factor;
  }
  demand_seen_[p.flat] = static_cast<std::uint32_t>(edits_.size());
  return d;
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
  ++epoch_;  // drops cached sums and fallback verdicts
  if (!exact_) return;

  const std::int64_t p = v.period.raw_ns();
  VC2M_CHECK(p > 0);
  const std::int64_t g = std::gcd(common_multiple_, p);
  if (common_multiple_ / g > analysis::kPeriodLcmCap / p) {
    // L would overflow the exact-comparison cap: defer to the fallback
    // test until clear() (same verdicts, no incremental accounting).
    exact_ = false;
    return;
  }
  const std::int64_t next = common_multiple_ / g * p;
  const std::int64_t scale = next / common_multiple_;
  if (scale > 1) {
    for (auto& w : weight_) w *= scale;
    log_edit({DemandEdit::kRescale, scale});
  }
  common_multiple_ = next;
  const std::int64_t w = common_multiple_ / p;
  weight_.push_back(w);
  log_edit({vcpu_index, w});
}

std::size_t CoreLoad::remove_at(std::size_t pos) {
  VC2M_CHECK(pos < on_core_.size());
  const std::size_t v = on_core_[pos];
  ++epoch_;
  if (exact_) {
    log_edit({v, -weight_[pos]});
    weight_.erase(weight_.begin() + static_cast<std::ptrdiff_t>(pos));
    // common_multiple_ stays: it remains a common multiple of the
    // remaining periods, which is all the exact comparison needs.
  }
  on_core_.erase(on_core_.begin() + static_cast<std::ptrdiff_t>(pos));
  return v;
}

void CoreLoad::clear() {
  on_core_.clear();
  weight_.clear();
  edits_.clear();
  on_grid_ = true;
  exact_ = true;
  demand_materialized_ = false;
  common_multiple_ = 1;
  ++epoch_;
  ++demand_epoch_;
}

double CoreLoad::utilization(model::GridPoint p) {
  const std::size_t i = p.flat;
  if (util_stamp_[i] == epoch_) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    return util_[i];
  }
  // The same in-order sum analysis::core_utilization performs.
  double u = 0;
  for (const std::size_t j : on_core_) {
    const model::Vcpu& v = vcpu(j);
    u += budget(v, p).ratio(v.period);
  }
  util_[i] = u;
  util_stamp_[i] = epoch_;
  return u;
}

bool CoreLoad::schedulable(model::GridPoint p) {
  const std::size_t i = p.flat;
  if (!exact_) {
    bool ok;
    if (sched_stamp_[i] == epoch_) {
      ok = sched_[i] != 0;
      if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    } else {
      ok = analysis::utilization_at_most_one(
          [this](std::size_t j) -> const model::Vcpu& { return vcpu(j); },
          on_core_, p.c, p.b);
      sched_[i] = ok ? 1 : 0;
      sched_stamp_[i] = epoch_;
    }
    if (auto* ctr = util::alloc_counters()) {
      ++ctr->admission_tests;
      ctr->admission_passed += ok ? 1 : 0;
    }
    return ok;
  }

  __int128 d = 0;
  if (demand_stamp_[i] == demand_epoch_) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    d = catch_up(p);
  } else {
    for (std::size_t k = 0; k < on_core_.size(); ++k)
      d += static_cast<__int128>(budget(vcpu(on_core_[k]), p).raw_ns()) *
           weight_[k];
    demand_[i] = d;
    demand_stamp_[i] = demand_epoch_;
    demand_seen_[i] = static_cast<std::uint32_t>(edits_.size());
    demand_materialized_ = true;
  }
  const bool ok = d <= static_cast<__int128>(common_multiple_);
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
  return ok;
}

}  // namespace vc2m::core

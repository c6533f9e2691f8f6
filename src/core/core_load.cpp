#include "core/core_load.h"

#include <numeric>

#include "analysis/schedulability.h"
#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::core {

UtilColumns::UtilColumns(std::span<const model::Vcpu> vcpus,
                         const model::ResourceGrid& grid)
    : vcpus_(vcpus), slot_(grid.size(), 0) {}

void UtilColumns::add_column(model::GridPoint p) {
  bool nonneg = true;
  for (const model::Vcpu& v : vcpus_) {
    values_.push_back(v.utilization(p.c, p.b));
    nonneg = nonneg && values_.back() >= 0;
  }
  nonneg_.push_back(nonneg ? 1 : 0);
  slot_[p.flat] = static_cast<std::uint32_t>(nonneg_.size());
}

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

double CoreLoad::sum(model::GridPoint p, const double* col) const {
  // The same in-order sum analysis::core_utilization performs; a column
  // holds the same quotients.
  double u = 0;
  if (col) {
    for (const std::size_t j : on_core_) u += col[j];
  } else {
    for (const std::size_t j : on_core_) {
      const model::Vcpu& v = vcpu(j);
      u += budget(v, p).ratio(v.period);
    }
  }
  return u;
}

double CoreLoad::sum_at(model::GridPoint p, UtilColumns* cols) {
  if (const double* u = cached(p)) return *u;
  if (cols) cols->fill(p);
  const double u = sum(p, cols ? cols->column(p) : nullptr);
  keep(p, u);
  return u;
}

bool CoreLoad::verdict(model::GridPoint p) {
  const std::size_t i = p.flat;
  if (!exact_) {
    if (sched_stamp_[i] == epoch_) {
      if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
      return sched_[i] != 0;
    }
    const bool ok = analysis::utilization_at_most_one(
        [this](std::size_t j) -> const model::Vcpu& { return vcpu(j); },
        on_core_, p.c, p.b);
    sched_[i] = ok ? 1 : 0;
    sched_stamp_[i] = epoch_;
    return ok;
  }
  if (demand_stamp_[i] == demand_epoch_) {
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    return catch_up(p) <= static_cast<__int128>(common_multiple_);
  }
  __int128 d = 0;
  for (std::size_t k = 0; k < on_core_.size(); ++k)
    d += static_cast<__int128>(budget(vcpu(on_core_[k]), p).raw_ns()) *
         weight_[k];
  demand_[i] = d;
  demand_stamp_[i] = demand_epoch_;
  demand_seen_[i] = static_cast<std::uint32_t>(edits_.size());
  demand_materialized_ = true;
  return d <= static_cast<__int128>(common_multiple_);
}

namespace {

/// Whether the double sum u of n non-negative quotients Θ_j/Π_j, each
/// rounded once from int64 operands and added in order, is far enough from
/// 1 to decide S = Σ_j Θ_j/Π_j ≤ 1 exactly. With unit roundoff ε = 2^-53,
/// each term carries ≤ 3ε relative error (two conversions, one division)
/// and the in-order sum ≤ (n−1)ε·Σ more, so |u − S| ≤ (n+2)ε·S up to
/// O(ε²). The margin below is (2n+8)ε·u, twice that with room to spare, so
/// u − margin > 1 implies S > 1 and u + margin < 1 implies S < 1.
bool clear_of_one(double u, std::size_t n) {
  const double margin = static_cast<double>(n + 4) * 0x1p-52 * u;
  return u - margin > 1 || u + margin < 1;
}

void count_test(bool ok) {
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
}

}  // namespace

bool CoreLoad::schedulable(model::GridPoint p) {
  const bool ok = verdict(p);
  count_test(ok);
  return ok;
}

CoreLoad::Probe CoreLoad::probe(model::GridPoint at, bool want_cache,
                                bool want_bw, UtilColumns* cols) {
  VC2M_CHECK(!cols ||
             cols->vcpu_count() == placed_.size() + pending_.size());
  Probe r;
  // With columns, u(at) decides S ≤ 1 exactly when it is clear of 1 by
  // more than its rounding error, and the demand pass is not needed.
  if (cols) cols->fill(at);
  r.u = sum_at(at, cols);
  r.schedulable = cols && exact_ && cols->nonneg(at) &&
                          clear_of_one(r.u, on_core_.size())
                      ? r.u < 1
                      : verdict(at);
  count_test(r.schedulable);
  if (r.schedulable) return r;
  if (want_cache) r.u_cache = sum_at(grid_.more_cache(at), cols);
  if (want_bw) r.u_bw = sum_at(grid_.more_bw(at), cols);
  return r;
}

}  // namespace vc2m::core

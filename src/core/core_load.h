// Incremental per-core schedulability accounting.
//
// hv_alloc Phases 2–3, admission control, and the exact search all probe
// one core's VCPU set over and over: what is Σ_j Θ_j(c,b)/Π_j here, and
// does it stay ≤ 1? Re-deriving both from the VCPU list on every probe made
// each partition grant and migration O(members × probes). A CoreLoad owns
// one core's membership and keeps running accounts instead:
//
//  - utilization(c, b) — the double sum — is computed at most once per grid
//    point per membership epoch, by the same in-order summation
//    analysis::core_utilization performs (so cached and fresh values are
//    bit-identical; a running double sum updated incrementally would drift
//    and flip tie-sensitive allocator decisions). Membership edits drop the
//    cache; partition grants only move the queried (c, b) and invalidate
//    nothing.
//
//  - schedulable(c, b) — the exact integer test — is maintained
//    incrementally: the core tracks a common multiple L of its members'
//    periods with per-member weights w_j = L/Π_j, and materialized
//    per-point demands D(c,b) = Σ_j Θ_j(c,b)·w_j. add/remove adjust D by
//    the one member's contribution instead of re-summing. D ≤ L is the
//    same exact comparison analysis::core_schedulable makes (L is a
//    multiple of the minimal period LCM, so both sides scale by the same
//    integer). If L would exceed analysis::kPeriodLcmCap the core defers
//    to analysis::core_schedulable permanently — verdicts stay identical
//    in every case, only the evaluation count changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/resource_grid.h"
#include "model/task.h"

namespace vc2m::core {

class CoreLoad {
 public:
  /// An empty core over `vcpus` (indices passed to add() refer into it).
  /// The span must outlive the CoreLoad and must not be reallocated.
  CoreLoad(std::span<const model::Vcpu> vcpus,
           const model::ResourceGrid& grid);

  /// An empty core over the concatenation `placed ++ pending`: index i <
  /// placed.size() names placed[i], the rest name pending[i -
  /// placed.size()]. Admission probes its new VCPUs against the running
  /// ones this way without copying them into one vector. Both spans must
  /// outlive the CoreLoad.
  CoreLoad(std::span<const model::Vcpu> placed,
           std::span<const model::Vcpu> pending,
           const model::ResourceGrid& grid);

  /// Convenience: an initial membership, added in order.
  CoreLoad(std::span<const model::Vcpu> vcpus, const model::ResourceGrid& grid,
           std::span<const std::size_t> members);

  /// Membership, in insertion order (the order every cached sum uses).
  const std::vector<std::size_t>& members() const { return on_core_; }
  bool empty() const { return on_core_.empty(); }
  std::size_t size() const { return on_core_.size(); }

  /// Add the VCPU at `vcpu_index` to this core.
  void add(std::size_t vcpu_index);

  /// Remove the member at position `pos` (not VCPU index); returns the
  /// removed VCPU index. Remaining membership order is preserved.
  std::size_t remove_at(std::size_t pos);

  /// Σ_j Θ_j(c,b)/Π_j over the members — bit-identical to
  /// analysis::core_utilization over members() at (c, b).
  double utilization(unsigned c, unsigned b);

  /// Exact Σ_j Θ_j(c,b)/Π_j ≤ 1 — same verdict as
  /// analysis::core_schedulable over members() at (c, b). Counts an
  /// admission test per query like the non-incremental path.
  bool schedulable(unsigned c, unsigned b);

 private:
  const model::Vcpu& vcpu(std::size_t i) const {
    return i < placed_.size() ? placed_[i] : pending_[i - placed_.size()];
  }
  /// Θ_v at (c, b), whose flat index on this core's grid is i.
  util::Time budget(const model::Vcpu& v, std::size_t i, unsigned c,
                    unsigned b) const {
    return on_grid_ ? v.budget.flat()[i] : v.budget.at(c, b);
  }
  /// Adds `sign` × the member's weighted budget to every materialized point.
  void shift_demand(const model::Vcpu& v, std::int64_t w, int sign);

  std::span<const model::Vcpu> placed_;
  std::span<const model::Vcpu> pending_;
  model::ResourceGrid grid_;
  /// Every member's budget table is over grid_ (else probes use at()).
  bool on_grid_ = true;
  std::vector<std::size_t> on_core_;

  // Exact-mode state: L (common multiple of member periods), per-member
  // weights L/Π_j parallel to on_core_, and lazily materialized demands.
  // Until a point is materialized, membership edits skip the grid walk.
  bool exact_ = true;
  bool demand_materialized_ = false;
  std::int64_t common_multiple_ = 1;
  std::vector<std::int64_t> weight_;
  std::vector<__int128> demand_;           // per grid point, row-major
  std::vector<std::uint8_t> demand_valid_;

  // Cached verdicts for the fallback (non-exact) mode only.
  std::vector<std::uint8_t> sched_;
  std::vector<std::uint8_t> sched_valid_;

  // Cached utilization sums, dropped on membership edits.
  bool util_cached_ = false;
  std::vector<double> util_;
  std::vector<std::uint8_t> util_valid_;
};

}  // namespace vc2m::core

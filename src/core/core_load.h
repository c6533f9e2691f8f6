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
//    the one member's contribution instead of re-summing, lazily: an edit
//    is logged in O(1), and a materialized point folds the edits it has not
//    seen into its D when it is next probed (integer arithmetic, so the
//    order of folding cannot change D). D ≤ L is the
//    same exact comparison analysis::core_schedulable makes (L is a
//    multiple of the minimal period LCM, so both sides scale by the same
//    integer). If L would exceed analysis::kPeriodLcmCap the core defers
//    to analysis::core_schedulable until clear() — verdicts stay identical
//    in every case, only the evaluation count changes.
//
//  - probe(at, …) is what a grant loop reads: the verdict at `at`, Σ Θ/Π
//    at `at` and, on an unschedulable core, Σ Θ/Π at the two grant
//    neighbours (one more cache / one more BW partition). It answers from
//    the same caches and the same in-order sums as schedulable() and
//    utilization(), so each field equals theirs bit for bit, and it counts
//    one admission test, as schedulable() does.
//
// A search that probes the same VCPUs at the same points again and again
// (allocate_heuristic over its candidate packings) can hand probe() a
// UtilColumns: the Θ_v(p)/Π_v of all its VCPUs at each visited point,
// divided once per search. A cache miss then sums loads instead of
// dividing; the sums are the same doubles. With columns, probe() sums
// u(at) first and reads the verdict off it when u is farther from 1 than
// its rounding error can reach (clear_of_one in core_load.cpp): S ≤ 1 is
// then decided exactly without the demand pass, which runs only for sums
// within ~1e-14 of 1.
//
// Cache validity is stamped, not flagged: a point's cached value is valid
// iff its stamp equals the current epoch, so membership edits and clear()
// invalidate every point with one increment instead of a pass over the
// grid. Epochs are 64-bit and never wrap. clear() returns the CoreLoad to
// the state of a fresh one over the same VCPUs and grid, keeping its
// buffers: a search that tries many memberships reuses one CoreLoad per
// core instead of allocating its grid-sized buffers per candidate.
//
// Probes take a model::GridPoint whose flat index is on this core's grid,
// so a caller probing many cores at the same (c, b) computes the index
// once; the (c, b) overloads compute it (checked) per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "model/resource_grid.h"
#include "model/task.h"
#include "util/instrument.h"

namespace vc2m::core {

/// Θ_v(p)/Π_v of every VCPU of one search, one column per grid point the
/// search reads. A column is filled (one division per VCPU) on its point's
/// first read and shared by every CoreLoad over the same VCPUs from then
/// on. Only visited points get a column, and the table is freed with its
/// owner.
class UtilColumns {
 public:
  UtilColumns(std::span<const model::Vcpu> vcpus,
              const model::ResourceGrid& grid);

  std::size_t vcpu_count() const { return vcpus_.size(); }

  /// Fills the column at p unless it is filled already.
  void fill(model::GridPoint p) {
    if (slot_[p.flat] == 0) add_column(p);
  }
  /// The filled column at p: entry v is vcpus[v].utilization(p.c, p.b),
  /// bit for bit. Valid until the next fill() of another point.
  const double* column(model::GridPoint p) const {
    return values_.data() + (slot_[p.flat] - 1) * vcpus_.size();
  }
  /// Every entry of the filled column at p is ≥ 0.
  bool nonneg(model::GridPoint p) const {
    return nonneg_[slot_[p.flat] - 1] != 0;
  }

 private:
  void add_column(model::GridPoint p);

  std::span<const model::Vcpu> vcpus_;
  std::vector<std::uint32_t> slot_;  ///< per grid point: 1 + column, or 0
  std::vector<double> values_;       ///< the columns, back to back
  std::vector<std::uint8_t> nonneg_;  ///< per column
};

class CoreLoad {
 public:
  /// An empty core over no VCPUs and no grid: reset() it before use.
  CoreLoad() = default;

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

  /// Drop every member: afterwards every probe answers as on a freshly
  /// constructed CoreLoad over the same VCPUs and grid (exact mode again,
  /// nothing cached). Keeps the buffers; O(1) in the grid size.
  void clear();

  /// Re-target at `placed ++ pending` on `grid`: afterwards every probe
  /// answers as on CoreLoad(placed, pending, grid). Keeps the buffers, so
  /// a caller that probes one system after another (admission) sizes them
  /// once; O(1) in the grid size unless the grid's size changed.
  void reset(std::span<const model::Vcpu> placed,
             std::span<const model::Vcpu> pending,
             const model::ResourceGrid& grid);

  /// Σ_j Θ_j(c,b)/Π_j over the members — bit-identical to
  /// analysis::core_utilization over members() at (c, b).
  double utilization(unsigned c, unsigned b) {
    return utilization(grid_.point(c, b));
  }
  /// The same at p; p.flat must be p's index on this core's grid.
  double utilization(model::GridPoint p) { return sum_at(p, nullptr); }

  /// Exact Σ_j Θ_j(c,b)/Π_j ≤ 1 — same verdict as
  /// analysis::core_schedulable over members() at (c, b). Counts an
  /// admission test per query like the non-incremental path.
  bool schedulable(unsigned c, unsigned b) {
    return schedulable(grid_.point(c, b));
  }
  /// The same at p; p.flat must be p's index on this core's grid.
  bool schedulable(model::GridPoint p);

  /// One core at one point, as a grant loop reads it.
  struct Probe {
    bool schedulable = false;  ///< the exact verdict at `at`
    double u = 0;              ///< Σ Θ/Π at `at`
    /// Σ Θ/Π at more_cache(at) / more_bw(at): summed only when asked for
    /// and the core is not schedulable at `at`, NaN otherwise.
    double u_cache = std::numeric_limits<double>::quiet_NaN();
    double u_bw = std::numeric_limits<double>::quiet_NaN();
  };

  /// The verdict and u at `at`, plus the neighbours' sums asked for (the
  /// caller has checked at.c < c_max / at.b < b_max for them) when the
  /// core is unschedulable there. Every field equals the matching
  /// schedulable()/utilization() answer bit for bit. Counts one admission
  /// test. `cols`, if given, must be over the same VCPUs as this core.
  Probe probe(model::GridPoint at, bool want_cache, bool want_bw,
              UtilColumns* cols = nullptr);

  /// Θ/Π at p of the member at position `pos` (not VCPU index): the same
  /// value as vcpus[members()[pos]].utilization(p.c, p.b).
  double member_utilization(std::size_t pos, model::GridPoint p) const {
    const model::Vcpu& v = vcpu(on_core_[pos]);
    return budget(v, p).ratio(v.period);
  }

 private:
  const model::Vcpu& vcpu(std::size_t i) const {
    return i < placed_.size() ? placed_[i] : pending_[i - placed_.size()];
  }
  /// Θ_v at p.
  util::Time budget(const model::Vcpu& v, model::GridPoint p) const {
    return on_grid_ ? v.budget.flat()[p.flat] : v.budget.at(p.c, p.b);
  }
  /// The verdict at p without counting it as an admission test; counts a
  /// cache hit when it is served from a materialized demand or a cached
  /// fallback verdict.
  bool verdict(model::GridPoint p);
  /// Σ Θ/Π at p over the members, in member order, from `col` if given.
  double sum(model::GridPoint p, const double* col) const;
  /// The cached sum at p, else sum() from p's column in `cols` (if given)
  /// and keep it.
  double sum_at(model::GridPoint p, UtilColumns* cols);
  /// Caches u as the sum at p for this membership epoch.
  void keep(model::GridPoint p, double u) {
    util_[p.flat] = u;
    util_stamp_[p.flat] = epoch_;
  }
  /// The cached sum at p, counting the hit, or nullptr.
  const double* cached(model::GridPoint p) const {
    if (util_stamp_[p.flat] != epoch_) return nullptr;
    if (auto* ctr = util::alloc_counters()) ++ctr->load_cache_hits;
    return &util_[p.flat];
  }

  /// One exact-mode membership edit, as it changes a materialized demand:
  /// D ← D·factor for a rescale (vcpu == kRescale), else
  /// D ← D + Θ_vcpu·factor (factor = ±the member's weight).
  struct DemandEdit {
    static constexpr std::size_t kRescale = static_cast<std::size_t>(-1);
    std::size_t vcpu;
    std::int64_t factor;
  };
  /// Logs an edit for the materialized points; folds the whole log into
  /// every one of them first when it has reached one entry per point, so
  /// the log stays bounded and an edit costs at most one grid pass
  /// amortized.
  void log_edit(DemandEdit e);
  /// D at materialized point p, brought up to date with the log.
  __int128 catch_up(model::GridPoint p);

  std::span<const model::Vcpu> placed_;
  std::span<const model::Vcpu> pending_;
  model::ResourceGrid grid_;
  /// Every member's budget table is over grid_ (else probes use at()).
  bool on_grid_ = true;
  std::vector<std::size_t> on_core_;

  // Membership epoch: bumped by add, remove_at and clear. Stamps util_
  // and sched_, which every membership edit invalidates.
  std::uint64_t epoch_ = 1;
  // Demand epoch: bumped by clear only. add/remove_at log an edit that
  // the materialized demands fold in when probed.
  std::uint64_t demand_epoch_ = 1;

  // Exact-mode state: L (common multiple of member periods), per-member
  // weights L/Π_j parallel to on_core_, and lazily materialized demands.
  // Until a point is materialized, membership edits log nothing.
  bool exact_ = true;
  bool demand_materialized_ = false;
  std::int64_t common_multiple_ = 1;
  std::vector<std::int64_t> weight_;
  std::vector<__int128> demand_;  // per grid point, row-major
  std::vector<std::uint64_t> demand_stamp_;
  std::vector<DemandEdit> edits_;  // since the last fold into every point
  std::vector<std::uint32_t> demand_seen_;  // per point: edits_ folded in

  // Cached verdicts for the fallback (non-exact) mode only.
  std::vector<std::uint8_t> sched_;
  std::vector<std::uint64_t> sched_stamp_;

  // Cached utilization sums.
  std::vector<double> util_;
  std::vector<std::uint64_t> util_stamp_;
};

/// The max-gain grant step of the §4.3 heuristic, shared by the HV
/// allocator's Phase 2 and admission: among the grants offered, in core
/// index order and cache before BW within a core, the largest utilization
/// drop wins under a strict `>`. A best drop of at most 1e-15 buys nothing,
/// so found() is false and the grant loop ends.
struct GrantStep {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::size_t core = kNone;
  bool cache = false;
  double gain = 0;

  /// Offers core i's grants from its probe; `cache_ok`/`bw_ok` say that
  /// the pool has that partition and the grid a next level.
  void offer(std::size_t i, const CoreLoad::Probe& p, bool cache_ok,
             bool bw_ok) {
    if (cache_ok && p.u - p.u_cache > gain) {
      gain = p.u - p.u_cache;
      core = i;
      cache = true;
    }
    if (bw_ok && p.u - p.u_bw > gain) {
      gain = p.u - p.u_bw;
      core = i;
      cache = false;
    }
  }
  bool found() const { return core != kNone && gain > 1e-15; }
};

}  // namespace vc2m::core

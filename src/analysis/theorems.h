// The overhead-free VCPU interfaces of §4.2.
//
// Theorem 1 (flattening): a task scheduled alone on a VCPU whose release is
// synchronized with the task's is schedulable iff the VCPU — viewed as a
// periodic task (Π = p_i, Θ(c,b) = e_i(c,b)) — is schedulable. The VCPU
// bandwidth equals the task utilization: zero abstraction overhead. The
// VM-level allocator builds these VCPUs itself (core::shape_vm_vcpus and
// core::fill_vcpu_surface): Θ(c,b) is the task's WCET table.
//
// Theorem 2 (well-regulated VCPUs): a *harmonic* taskset is EDF-schedulable
// on a well-regulated VCPU (execution pattern repeating each period) with
// period Π = min_i p_i and budget Θ(c,b) = Π · Σ_i e_i(c,b)/p_i. The VCPU
// bandwidth equals the taskset utilization: again zero overhead.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "model/task.h"

namespace vc2m::analysis {

/// Theorem 2: the well-regulated VCPU serving the (harmonic) tasks at
/// `task_indices` within `tasks`. Throws util::Error if the selected tasks
/// are not harmonic. Budgets are computed with exact integer arithmetic
/// (Π divides every period) and rounded up to the nanosecond.
model::Vcpu regulated_vcpu(const model::Taskset& tasks,
                           std::span<const std::size_t> task_indices);

/// Theorem 2's budget of one set of harmonic tasks, one grid cell at a
/// time: Θ(c,b) = Π · Σ e_i(c,b)/p_i, exact over the common denominator of
/// the period ratios and rounded up to the nanosecond. regulated_vcpu
/// fills every cell with at(); a caller that needs only some cells asks
/// for those. reset() reuses the buffers, so a kept RegulatedBudget
/// allocates nothing once it has seen its widest task set.
class RegulatedBudget {
 public:
  /// Bind to the tasks at `task_indices` (they must outlive the binding).
  /// Throws util::Error if they are not harmonic or do not share a grid.
  void reset(const model::Taskset& tasks,
             std::span<const std::size_t> task_indices);

  util::Time period() const { return pi_; }  ///< Π = min p_i
  const model::ResourceGrid& grid() const { return grid_; }

  /// Θ at the flat grid index `cell`.
  util::Time at(std::size_t cell) const {
    __int128 num = den_ - 1;
    for (std::size_t k = 0; k < wcets_.size(); ++k)
      num += static_cast<__int128>(wcets_[k][cell].raw_ns()) * weights_[k];
    return util::Time::ns(static_cast<std::int64_t>(
        pow2_ && num >= 0 ? num >> shift_ : num / den_));
  }
  /// Θ in every cell, out.size() == grid().size().
  void fill(std::span<util::Time> out) const;

 private:
  util::Time pi_;
  model::ResourceGrid grid_;
  std::int64_t den_ = 1;  ///< lcm of the period ratios q_i = p_i / Π
  /// Harmonic period menus make den_ a power of two: then a shift gives
  /// the same quotient as the 128-bit division for every non-negative
  /// dividend.
  bool pow2_ = true;
  int shift_ = 0;
  std::vector<const util::Time*> wcets_;  ///< each task's flat wcet table
  std::vector<std::int64_t> weights_;     ///< den_ / q_i
};

/// Partition `task_indices` into harmonic chains, written to groups[0,
/// returned count): within each group every pair of periods is harmonic
/// (one divides the other), so each group satisfies Theorem 2's
/// precondition. Greedy first-fit over tasks sorted by period; a fully
/// harmonic input yields a single group. Reuses the storage of `groups`
/// and of the sort scratch `order`.
std::size_t harmonic_groups(const model::Taskset& tasks,
                            std::span<const std::size_t> task_indices,
                            std::vector<std::vector<std::size_t>>& groups,
                            std::vector<std::size_t>& order);

}  // namespace vc2m::analysis

// Cache- and bandwidth-aware task and VCPU models (§4.1).
//
// A task is τ_i = (p_i, {e_i(c,b)}): an implicit-deadline periodic task whose
// WCET depends on the cache and bandwidth partitions allocated to its core.
// A VCPU is V_j = (Π_j, {Θ_j(c,b)}): a periodic server whose budget likewise
// depends on the resources of the core it runs on.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/surface.h"
#include "util/time.h"

namespace vc2m::model {

struct Task {
  util::Time period;  ///< p_i (= relative deadline; implicit deadlines)
  WcetFn wcet;        ///< e_i(c, b)
  /// Maximum WCET e_i^max: execution under worst-case bandwidth with the
  /// cache disabled (§5.1). This point lies *outside* the CAT grid; the
  /// Baseline solution, which allocates no cache, analyzes tasks at this
  /// value. Equals e*_i · s^max of the backing benchmark.
  util::Time max_wcet;
  int vm = 0;         ///< owning virtual machine
  std::string label;  ///< e.g. the PARSEC benchmark backing the WCETs

  /// Reference WCET e*_i = e_i(C, B).
  util::Time reference_wcet() const { return wcet.reference(); }

  /// Reference utilization e*_i / p_i.
  double reference_utilization() const {
    return reference_wcet().ratio(period);
  }

  /// Utilization under a specific allocation, e_i(c,b)/p_i.
  double utilization(unsigned c, unsigned b) const {
    return wcet.at(c, b).ratio(period);
  }

  Surface slowdown() const { return wcet.slowdown(); }
};

using Taskset = std::vector<Task>;

/// Total reference utilization Σ e*_i/p_i of a taskset.
double total_reference_utilization(const Taskset& ts);

/// Hyperperiod (LCM of periods); callers must ensure it stays representable
/// — harmonic tasksets make it equal to the largest period.
util::Time hyperperiod(const Taskset& ts);

struct Vcpu {
  util::Time period;  ///< Π_j
  WcetFn budget;      ///< Θ_j(c, b)
  int vm = 0;         ///< owning virtual machine
  std::vector<std::size_t> tasks;  ///< indices (into the VM taskset) it serves

  /// Reference budget Θ*_j = Θ_j(C, B).
  util::Time reference_budget() const { return budget.reference(); }

  /// Reference CPU-bandwidth Θ*_j / Π_j.
  double reference_utilization() const {
    return reference_budget().ratio(period);
  }

  /// CPU-bandwidth under a specific allocation, Θ_j(c,b)/Π_j.
  double utilization(unsigned c, unsigned b) const {
    return budget.at(c, b).ratio(period);
  }

  Surface slowdown() const { return budget.slowdown(); }
};

}  // namespace vc2m::model

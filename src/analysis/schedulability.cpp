#include "analysis/schedulability.h"

#include <ranges>

#include "util/error.h"
#include "util/instrument.h"
#include "util/time.h"

namespace vc2m::analysis {
namespace {

inline auto all_indices(std::size_t n) {
  return std::views::iota(std::size_t{0}, n);
}

}  // namespace

double core_utilization(std::span<const model::Vcpu> vcpus,
                        std::span<const std::size_t> on_core, unsigned c,
                        unsigned b) {
  double u = 0;
  for (const std::size_t j : on_core) u += vcpus[j].utilization(c, b);
  return u;
}

double core_utilization(std::span<const model::Vcpu> vcpus, unsigned c,
                        unsigned b) {
  double u = 0;
  for (const std::size_t j : all_indices(vcpus.size()))
    u += vcpus[j].utilization(c, b);
  return u;
}

bool core_schedulable(std::span<const model::Vcpu> vcpus,
                      std::span<const std::size_t> on_core, unsigned c,
                      unsigned b) {
  const bool ok = utilization_at_most_one(
      [&](std::size_t j) -> const model::Vcpu& { return vcpus[j]; }, on_core,
      c, b);
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
  return ok;
}

bool core_schedulable(std::span<const model::Vcpu> vcpus, unsigned c,
                      unsigned b) {
  const bool ok = utilization_at_most_one(
      [&](std::size_t j) -> const model::Vcpu& { return vcpus[j]; },
      all_indices(vcpus.size()), c, b);
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
  return ok;
}

void inflate_tasks(model::Taskset& tasks, util::Time per_job) {
  if (per_job.is_zero()) return;
  for (auto& t : tasks) {
    const auto& g = t.wcet.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        t.wcet.set(c, b, t.wcet.at(c, b) + per_job);
    t.max_wcet += per_job;
  }
}

void inflate_vcpus(std::vector<model::Vcpu>& vcpus, util::Time per_period) {
  if (per_period.is_zero()) return;
  for (auto& v : vcpus) {
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        v.budget.set(c, b, v.budget.at(c, b) + per_period);
  }
}

}  // namespace vc2m::analysis

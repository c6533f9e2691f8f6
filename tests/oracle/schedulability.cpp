#include "oracle/schedulability.h"

#include <ranges>

#include "analysis/schedulability.h"
#include "util/instrument.h"

namespace vc2m::analysis {

double core_utilization(std::span<const model::Vcpu> vcpus, unsigned c,
                        unsigned b) {
  double u = 0;
  for (const auto& v : vcpus) u += v.utilization(c, b);
  return u;
}

bool core_schedulable(std::span<const model::Vcpu> vcpus, unsigned c,
                      unsigned b) {
  const bool ok = utilization_at_most_one(
      [&](std::size_t j) -> const model::Vcpu& { return vcpus[j]; },
      std::views::iota(std::size_t{0}, vcpus.size()), c, b);
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->admission_tests;
    ctr->admission_passed += ok ? 1 : 0;
  }
  return ok;
}

}  // namespace vc2m::analysis

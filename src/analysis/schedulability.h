// Per-core schedulability tests for partitioned EDF over VCPUs.
//
// Once VCPU parameters are fixed, a core hosting VCPUs {V_j} with c cache
// and b bandwidth partitions is schedulable iff Σ_j Θ_j(c,b)/Π_j ≤ 1 —
// VCPUs are implicit-deadline periodic servers under EDF. The comparison is
// performed with exact integer arithmetic when the period LCM is small
// (always true for the harmonic workloads of §5) and falls back to long
// double otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "model/task.h"
#include "util/error.h"

namespace vc2m::analysis {

/// Period-LCM cap for the exact integer Σ Θ/Π ≤ 1 comparison; when the LCM
/// of the periods on a core exceeds this, the test (and core::CoreLoad's
/// incremental variant) falls back to long-double accumulation.
inline constexpr std::int64_t kPeriodLcmCap = std::int64_t{1} << 50;

/// Exact Σ_j Θ_j(c,b)/Π_j ≤ 1 over the VCPUs `vcpu_at(j)`, j in `on_core`,
/// via a common multiple of the periods when it fits under kPeriodLcmCap;
/// long-double fallback for pathological period sets. Counts nothing. The
/// accessor lets core::CoreLoad test VCPUs that live in two vectors, and
/// the index range lets the whole-set overloads pass an iota view instead
/// of materializing an index vector per test.
template <typename VcpuAt, typename IndexRange>
bool utilization_at_most_one(const VcpuAt& vcpu_at, const IndexRange& on_core,
                             unsigned c, unsigned b) {
  std::int64_t l = 1;
  bool exact = true;
  for (const std::size_t j : on_core) {
    const std::int64_t p = vcpu_at(j).period.raw_ns();
    VC2M_CHECK(p > 0);
    const std::int64_t g = std::gcd(l, p);
    if (l / g > kPeriodLcmCap / p) {
      exact = false;
      break;
    }
    l = l / g * p;
  }
  if (exact) {
    __int128 demand = 0;
    for (const std::size_t j : on_core) {
      const model::Vcpu& v = vcpu_at(j);
      demand += static_cast<__int128>(v.budget.at(c, b).raw_ns()) *
                (l / v.period.raw_ns());
    }
    return demand <= static_cast<__int128>(l);
  }
  long double u = 0;
  for (const std::size_t j : on_core) {
    const model::Vcpu& v = vcpu_at(j);
    u += static_cast<long double>(v.budget.at(c, b).raw_ns()) /
         static_cast<long double>(v.period.raw_ns());
  }
  return u <= 1.0L;
}

/// Σ_j Θ_j(c,b)/Π_j over the given VCPUs.
double core_utilization(std::span<const model::Vcpu> vcpus, unsigned c,
                        unsigned b);

/// Like core_utilization but over a subset given by indices into `vcpus`.
double core_utilization(std::span<const model::Vcpu> vcpus,
                        std::span<const std::size_t> on_core, unsigned c,
                        unsigned b);

/// Exact test Σ_j Θ_j(c,b)/Π_j ≤ 1 (EDF on one core).
bool core_schedulable(std::span<const model::Vcpu> vcpus, unsigned c,
                      unsigned b);

bool core_schedulable(std::span<const model::Vcpu> vcpus,
                      std::span<const std::size_t> on_core, unsigned c,
                      unsigned b);

/// Intra-core overhead accounting (the [17]-style inflation of §4.1/§4.3):
/// adds `per_job` to every WCET grid entry of every task (cache-related
/// preemption/migration delay per job), and `per_period` to every budget
/// entry of every VCPU (VCPU preemption/completion events per server
/// period). Applied *before* the VM-level / hypervisor-level allocation.
void inflate_tasks(model::Taskset& tasks, util::Time per_job);
void inflate_vcpus(std::vector<model::Vcpu>& vcpus, util::Time per_period);

}  // namespace vc2m::analysis

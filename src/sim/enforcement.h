// Enforcement policies: what the hypervisor/guest stack does when a job
// exhausts its modeled-WCET allowance (or a VCPU overdraws its budget).
//
// The vC2M analysis certifies allocations under the assumption that every
// job runs at most its e(c,b); the enforcement layer decides what happens
// when that assumption is violated at runtime (see sim/faults.h for the
// injection side):
//   - kStrict:   no job-level enforcement; an overrunning job simply keeps
//                executing (and misses deadlines), and a *VCPU* budget
//                overrun — impossible by construction — is a fatal error,
//                exactly the pre-enforcement behavior.
//   - kKill:     abort the job the instant its allowance is exhausted; the
//                task's later jobs are unaffected (job-level abort).
//   - kThrottle: defer the job to its VCPU's next replenishment, where it
//                receives a fresh allowance — the RTDS server behavior.
//   - kDegrade:  criticality-aware shedding: an overrun (or a deadline miss
//                of a criticality >= 1 task) suspends every criticality-0
//                task on the affected core until the shedding window
//                closes; the overrunning job itself keeps executing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "util/time.h"

namespace vc2m::sim {

enum class EnforcementPolicy : std::uint8_t {
  kStrict,
  kKill,
  kThrottle,
  kDegrade,
};

/// The policy named "strict" | "kill" | "throttle" | "degrade";
/// std::nullopt for unknown names.
std::optional<EnforcementPolicy> enforcement_policy_from_string(
    const std::string& name);

struct EnforcementConfig {
  EnforcementPolicy policy = EnforcementPolicy::kStrict;
  /// kDegrade: how long low-criticality tasks stay shed after the last
  /// trigger on their core (each new trigger extends the window).
  util::Time degrade_resume_after = util::Time::ms(20);
};

/// True when `policy` bounds per-job execution at the modeled WCET (i.e.
/// any policy but kStrict plans an enforcement boundary into segments).
inline bool enforces_job_budget(EnforcementPolicy policy) {
  return policy != EnforcementPolicy::kStrict;
}

/// Aggregate enforcement activity over a run (folded into SimStats).
struct EnforcementStats {
  std::uint64_t jobs_killed = 0;
  std::uint64_t jobs_deferred = 0;
  std::uint64_t task_suspensions = 0;
  std::uint64_t task_resumes = 0;
  std::uint64_t vcpu_budget_overruns = 0;
};

}  // namespace vc2m::sim

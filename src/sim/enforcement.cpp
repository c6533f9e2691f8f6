// Enforcement policies for WCET/budget overruns (see sim/enforcement.h).
//
// All entry points run at interrupt boundaries: execution accounting is up
// to date and a deferred reschedule is (or will be) pending, so actions
// here only mutate scheduler state — the next reschedule_core commits the
// consequences.
#include "sim/enforcement.h"

#include "sim/simulation.h"
#include "util/error.h"
#include "util/names.h"

namespace vc2m::sim {

namespace {

/// Indexed by EnforcementPolicy.
constexpr const char* kPolicyNames[] = {"strict", "kill", "throttle",
                                        "degrade"};

}  // namespace

std::optional<EnforcementPolicy> enforcement_policy_from_string(
    const std::string& name) {
  EnforcementPolicy p;
  if (!util::enum_from_name(kPolicyNames, name, p)) return std::nullopt;
  return p;
}

void Simulation::enforce_job_budget(std::size_t core_index) {
  CoreRt& c = cores_[core_index];
  const std::size_t ti = c.running_task;
  VC2M_CHECK(ti != kNone && !tasks_[ti].pending.empty());
  tasks_[ti].pending.front().enforced = true;
  switch (cfg_.enforcement.policy) {
    case EnforcementPolicy::kStrict:
      break;  // unreachable: strict tracks no job allowance
    case EnforcementPolicy::kKill:
      kill_job(ti);
      break;
    case EnforcementPolicy::kThrottle:
      defer_job(ti);
      break;
    case EnforcementPolicy::kDegrade:
      // The overrunning job keeps executing (enforced = no further bound);
      // low-criticality tasks on the core pay for it.
      trigger_degrade(core_index, /*interrupt=*/false);
      break;
  }
}

void Simulation::kill_job(std::size_t task_index) {
  TaskRt& t = tasks_[task_index];
  VC2M_CHECK(!t.pending.empty());
  const Job job = t.pending.front();
  t.pending.pop_front();
  ++t.stats.killed;
  ++enforce_.jobs_killed;
  trace_.record({queue_.now(), TraceKind::kJobKilled,
                 static_cast<std::int32_t>(vcpus_[t.spec.vcpu].spec.core),
                 static_cast<std::int32_t>(t.spec.vcpu),
                 static_cast<std::int32_t>(task_index), job.seq});
  if (observer_) observer_->on_job_killed(task_index);
  // The job's deadline-check event finds it gone from `pending` and stays
  // silent: an aborted job is accounted as a kill, not a miss (unless the
  // miss already happened before the abort).
}

void Simulation::defer_job(std::size_t task_index) {
  TaskRt& t = tasks_[task_index];
  VC2M_CHECK(!t.pending.empty());
  Job& job = t.pending.front();
  job.deferred = true;
  ++t.stats.deferred;
  ++enforce_.jobs_deferred;
  trace_.record({queue_.now(), TraceKind::kJobDeferred,
                 static_cast<std::int32_t>(vcpus_[t.spec.vcpu].spec.core),
                 static_cast<std::int32_t>(t.spec.vcpu),
                 static_cast<std::int32_t>(task_index), job.seq});
  if (observer_) observer_->on_job_deferred(task_index);
  // vcpu_release grants a fresh allowance and clears the deferral at the
  // VCPU's next replenishment — the RTDS behavior.
}

void Simulation::trigger_degrade(std::size_t core_index, bool interrupt) {
  if (cfg_.enforcement.policy != EnforcementPolicy::kDegrade) return;
  // (Re)open the shedding window; every trigger extends it.
  degrade_until_[core_index] =
      queue_.now() + cfg_.enforcement.degrade_resume_after;
  bool suspended_any = false;
  for (const std::size_t vi : cores_[core_index].vcpus) {
    for (const std::size_t ti : vcpus_[vi].tasks) {
      TaskRt& t = tasks_[ti];
      if (t.criticality > 0 || t.suspended) continue;
      t.suspended = true;
      suspended_any = true;
      ++enforce_.task_suspensions;
      trace_.record({queue_.now(), TraceKind::kTaskSuspend,
                     static_cast<std::int32_t>(core_index),
                     static_cast<std::int32_t>(vi),
                     static_cast<std::int32_t>(ti)});
      if (observer_) observer_->on_task_suspended(ti);
    }
  }
  // Each trigger arms its own resume probe; stale probes (the window was
  // extended past them) no-op in resume_degraded.
  queue_.schedule(degrade_until_[core_index],
                  [this, core_index] { resume_degraded(core_index); });
  if (interrupt && suspended_any) interrupt_core(core_index);
}

void Simulation::resume_degraded(std::size_t core_index) {
  if (degrade_until_[core_index].is_zero()) return;        // already resumed
  if (queue_.now() < degrade_until_[core_index]) return;   // window extended
  degrade_until_[core_index] = util::Time::zero();
  bool resumed_any = false;
  for (const std::size_t vi : cores_[core_index].vcpus) {
    for (const std::size_t ti : vcpus_[vi].tasks) {
      TaskRt& t = tasks_[ti];
      if (!t.suspended) continue;
      t.suspended = false;
      resumed_any = true;
      ++enforce_.task_resumes;
      trace_.record({queue_.now(), TraceKind::kTaskResume,
                     static_cast<std::int32_t>(core_index),
                     static_cast<std::int32_t>(vi),
                     static_cast<std::int32_t>(ti)});
      if (observer_) observer_->on_task_resumed(ti);
    }
  }
  // A resumed task waits for its next (nominal-grid) release; nothing runs
  // right now, but the core may still re-decide (a non-idling server's
  // eligibility can change).
  if (resumed_any) interrupt_core(core_index);
}

void Simulation::handle_vcpu_budget_overrun(std::size_t vcpu_index) {
  VcpuRt& v = vcpus_[vcpu_index];
  const util::Time overdraw = -v.budget_left;
  if (cfg_.enforcement.policy == EnforcementPolicy::kStrict) {
    // The pre-enforcement contract: segments are bounded by the remaining
    // budget, so an overdraw means scheduler-internal breakage.
    VC2M_CHECK_MSG(false, "VCPU budget overrun");
  }
  ++enforce_.vcpu_budget_overruns;
  trace_.record({queue_.now(), TraceKind::kVcpuBudgetOverrun,
                 static_cast<std::int32_t>(v.spec.core),
                 static_cast<std::int32_t>(vcpu_index), -1,
                 overdraw.raw_ns()});
  if (observer_) observer_->on_vcpu_budget_overrun(vcpu_index, overdraw);
  // Forgive the overdraw and suspend the server for the rest of its period
  // (handle_boundaries sees the zero budget and deschedules it).
  v.budget_left = util::Time::zero();
}

}  // namespace vc2m::sim

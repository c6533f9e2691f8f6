// Guest-OS level scheduling: each VM's tasks run under EDF on the VCPUs
// they are pinned to (LITMUS^RT partitioned-EDF stand-in), with per-job
// deadline-miss detection.
#include "sim/simulation.h"
#include "util/error.h"

namespace vc2m::sim {

void Simulation::task_release(std::size_t task_index) {
  TaskRt& t = tasks_[task_index];
  const util::Time nominal = queue_.now();
  if (!t.suspended) {
    const util::Time jitter = draw_release_jitter(task_index);
    if (jitter > util::Time::zero()) {
      // The arrival is pushed past the nominal instant; the deadline and
      // the next release stay on the nominal grid, so jitter never drifts
      // the task's long-run rate.
      ++faults_injected_;
      trace_.record({nominal, TraceKind::kFaultReleaseJitter,
                     static_cast<std::int32_t>(
                         vcpus_[t.spec.vcpu].spec.core),
                     static_cast<std::int32_t>(t.spec.vcpu),
                     static_cast<std::int32_t>(task_index), jitter.raw_ns()});
      if (observer_) observer_->on_fault_injected(FaultKind::kReleaseJitter);
      queue_.schedule(nominal + jitter, [this, task_index, nominal] {
        release_job(task_index, nominal, /*schedule_next=*/false);
      });
      util::Time next = nominal + t.spec.period;
      if (t.spec.arrival_jitter > util::Time::zero())
        next += util::Time::ns(
            jitter_rng_.uniform_int(0, t.spec.arrival_jitter.raw_ns()));
      queue_.schedule(next, [this, task_index] { task_release(task_index); });
      return;
    }
  }
  release_job(task_index, nominal, /*schedule_next=*/true);
}

void Simulation::release_job(std::size_t task_index, util::Time nominal,
                             bool schedule_next) {
  TaskRt& t = tasks_[task_index];
  // A task shed by the degrade policy skips its releases entirely (no job,
  // no miss) until it is resumed — that is what "shedding" buys the core.
  const bool create = !t.suspended;
  // A strictly periodic job's deadline is its task's next release. Armed
  // apart, the check and the release would get adjacent sequence numbers
  // at one instant, so nothing could run between them: one event runs both,
  // in that order. Under release jitter (schedule_next false) the next
  // release was armed earlier, ahead of the check, and stays its own event.
  const bool boundary =
      create && schedule_next && t.spec.arrival_jitter.is_zero();
  if (create) {
    Job job;
    job.seq = t.next_seq++;
    job.release = queue_.now();
    job.deadline = nominal + t.spec.period;  // implicit deadline
    job.remaining = t.requirement;
    const double factor = draw_overrun_factor(task_index);
    if (factor > 1.0)
      job.remaining = util::Time::ns(static_cast<std::int64_t>(
          static_cast<double>(t.requirement.raw_ns()) * factor + 0.5));
    if (enforces_job_budget(cfg_.enforcement.policy))
      job.budget_left = t.requirement;  // the modeled-WCET allowance
    t.pending.push_back(job);
    ++t.stats.released;
    trace_.record({queue_.now(), TraceKind::kJobRelease,
                   static_cast<std::int32_t>(
                       vcpus_[t.spec.vcpu].spec.core),
                   static_cast<std::int32_t>(t.spec.vcpu),
                   static_cast<std::int32_t>(task_index), job.seq});
    if (factor > 1.0) {
      ++faults_injected_;
      trace_.record({queue_.now(), TraceKind::kFaultWcetOverrun,
                     static_cast<std::int32_t>(
                         vcpus_[t.spec.vcpu].spec.core),
                     static_cast<std::int32_t>(t.spec.vcpu),
                     static_cast<std::int32_t>(task_index), job.seq});
      if (observer_) observer_->on_fault_injected(FaultKind::kWcetOverrun);
    }

    // Two captured words keep the closure inside std::function's inline
    // buffer, so arming the check allocates nothing; the check finds its
    // job by deadline instead of by sequence number.
    if (!boundary)
      queue_.schedule(job.deadline,
                      [this, task_index] { job_deadline_check(task_index); });
  }
  if (boundary) {
    queue_.schedule(nominal + t.spec.period, [this, task_index] {
      job_deadline_check(task_index);
      task_release(task_index);
    });
  } else if (schedule_next) {
    // Next arrival: the minimum inter-arrival plus, for sporadic tasks, a
    // seeded random delay (the paper's workloads are strictly periodic).
    util::Time next = nominal + t.spec.period;
    if (t.spec.arrival_jitter > util::Time::zero())
      next += util::Time::ns(
          jitter_rng_.uniform_int(0, t.spec.arrival_jitter.raw_ns()));
    queue_.schedule(next, [this, task_index] { task_release(task_index); });
  }

  // The new job may preempt the VCPU's current job (guest EDF) or wake a
  // suspended non-idling server; always let the core re-decide.
  if (create) interrupt_core(vcpus_[t.spec.vcpu].spec.core);
}

void Simulation::job_deadline_check(std::size_t task_index) {
  TaskRt& t = tasks_[task_index];
  // Bring execution accounting up to date: a job completing exactly at its
  // deadline must not be flagged (its segment-end event fires at the same
  // timestamp, possibly after this one).
  account_core(vcpus_[t.spec.vcpu].spec.core);

  // A task's jobs have distinct deadlines (their nominal releases are at
  // least a period apart), so the pending job due now is the one this
  // check was armed for.
  for (auto& job : t.pending) {
    if (job.deadline != queue_.now()) continue;
    if (job.remaining.is_zero() || job.missed) return;
    job.missed = true;
    ++t.stats.deadline_misses;
    trace_.record({queue_.now(), TraceKind::kDeadlineMiss,
                   static_cast<std::int32_t>(
                       vcpus_[t.spec.vcpu].spec.core),
                   static_cast<std::int32_t>(t.spec.vcpu),
                   static_cast<std::int32_t>(task_index), job.seq});
    // Degrade policy: a miss of a task that must not miss sheds the
    // low-criticality load on its core (trigger_degrade no-ops under every
    // other policy).
    if (t.criticality >= 1)
      trigger_degrade(vcpus_[t.spec.vcpu].spec.core, /*interrupt=*/true);
    return;
  }
  // Not pending any more: the job completed before its deadline.
}

void Simulation::complete_job(std::size_t task_index) {
  TaskRt& t = tasks_[task_index];
  VC2M_CHECK(!t.pending.empty());
  Job job = t.pending.front();
  VC2M_CHECK(job.remaining.is_zero());
  t.pending.pop_front();

  ++t.stats.completed;
  const util::Time response = queue_.now() - job.release;
  t.stats.max_response = util::max(t.stats.max_response, response);
  t.stats.response_ms.add(response.to_ms());
  if (queue_.now() > job.deadline) {
    const util::Time tardiness = queue_.now() - job.deadline;
    t.stats.max_tardiness = util::max(t.stats.max_tardiness, tardiness);
    if (!job.missed) ++t.stats.deadline_misses;  // missed, completed late
  }
  trace_.record({queue_.now(), TraceKind::kJobComplete,
                 static_cast<std::int32_t>(
                     vcpus_[t.spec.vcpu].spec.core),
                 static_cast<std::int32_t>(t.spec.vcpu),
                 static_cast<std::int32_t>(task_index), job.seq});
  if (observer_)
    observer_->on_job_complete(task_index, response, t.spec.period,
                               queue_.now() > job.deadline);
}

std::size_t Simulation::pick_task(const VcpuRt& v) const {
  // Guest EDF over the VCPU's pinned tasks: earliest front-job deadline,
  // ties by task index. Within one task, FIFO equals EDF (periodic,
  // implicit deadlines).
  std::size_t best = kNone;
  for (const std::size_t ti : v.tasks) {
    const TaskRt& t = tasks_[ti];
    if (!task_runnable(t)) continue;
    if (best == kNone ||
        t.pending.front().deadline < tasks_[best].pending.front().deadline)
      best = ti;
  }
  return best;
}

bool Simulation::task_runnable(const TaskRt& t) const {
  // Shed tasks are invisible to the scheduler; a throttled (deferred) front
  // job blocks its task until the VCPU's next replenishment (within one
  // task jobs are FIFO, so later jobs cannot overtake it).
  return !t.suspended && !t.pending.empty() && !t.pending.front().deferred;
}

}  // namespace vc2m::sim

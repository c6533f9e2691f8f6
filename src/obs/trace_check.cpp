#include "obs/trace_check.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

namespace vc2m::obs {

namespace {

struct CoreState {
  std::int32_t running = -1;      // VCPU index, -1 = idle
  util::Time run_start;
  bool throttled = false;
  util::Time throttle_start;
  bool revoked = false;           // open partition-revocation window
  std::int64_t revoke_limit = 0;  // max cache ways while revoked
};

struct VcpuState {
  util::Time consumed;            // occupancy in the current server period
  bool seen_release = false;      // budget check starts at the first one
  bool overrun = false;           // declared overrun; cleared at next release
};

struct JobState {
  util::Time release;
  bool released = false;
  bool completed = false;
  bool missed = false;
  bool killed = false;            // enforcement killed it; terminal state
};

struct TaskState {
  // Indexed by job sequence number. The simulator numbers each task's jobs
  // densely from 0, so releases append; an id more than kJobSlack past the
  // end goes to the sparse fallback instead, so the table grows with the
  // number of events, never with an id's value.
  std::vector<JobState> jobs;
  bool suspended = false;         // shed by degradation
};

// Core, VCPU and task ids index dense tables; ids outside [0, kMaxId) are
// reported as violations and the event is skipped. Job ids only need to be
// non-negative.
constexpr std::int64_t kMaxId = std::int64_t{1} << 16;
constexpr std::size_t kJobSlack = 64;

// The id fields each kind refers to.
enum Ref : unsigned { kCore = 1, kVcpu = 2, kTask = 4, kJob = 8 };

unsigned refs_of(const sim::TraceEvent& ev) {
  switch (ev.kind) {
    case sim::TraceKind::kVcpuSchedule:
    case sim::TraceKind::kVcpuDeschedule:
      return kCore | kVcpu;
    case sim::TraceKind::kCoreThrottle:
    case sim::TraceKind::kCoreUnthrottle:
    case sim::TraceKind::kPartitionRevoke:
    case sim::TraceKind::kPartitionRestore:
    case sim::TraceKind::kCosProgram:
      return kCore;
    case sim::TraceKind::kVcpuRelease:  // names its core only if it has one
      return ev.core < 0 ? kVcpu : kCore | kVcpu;
    case sim::TraceKind::kVcpuBudgetOverrun:
      return kVcpu;
    case sim::TraceKind::kTaskDispatch:
      return kCore | kVcpu | kTask;
    case sim::TraceKind::kJobRelease:
    case sim::TraceKind::kJobComplete:
    case sim::TraceKind::kDeadlineMiss:
    case sim::TraceKind::kJobKilled:
      return kTask | kJob;
    case sim::TraceKind::kTaskSuspend:
    case sim::TraceKind::kTaskResume:
      return kTask;
    default:
      return 0;
  }
}

class Checker {
 public:
  Checker(const TraceCheckConfig& cfg) : cfg_(cfg) {}

  TraceCheckResult run(std::span<const sim::TraceEvent> events) {
    for (const auto& ev : events) {
      ++res_.events;
      if (!ids_valid(ev)) continue;
      switch (ev.kind) {
        case sim::TraceKind::kVcpuSchedule: handle_schedule(ev); break;
        case sim::TraceKind::kVcpuDeschedule: handle_deschedule(ev); break;
        case sim::TraceKind::kCoreThrottle: handle_throttle(ev); break;
        case sim::TraceKind::kCoreUnthrottle: handle_unthrottle(ev); break;
        case sim::TraceKind::kVcpuRelease: handle_vcpu_release(ev); break;
        case sim::TraceKind::kTaskDispatch: handle_dispatch(ev); break;
        case sim::TraceKind::kJobRelease: handle_job_release(ev); break;
        case sim::TraceKind::kJobComplete: handle_job_complete(ev); break;
        case sim::TraceKind::kDeadlineMiss: handle_miss(ev); break;
        case sim::TraceKind::kJobKilled: handle_job_kill(ev); break;
        case sim::TraceKind::kTaskSuspend: handle_suspend(ev); break;
        case sim::TraceKind::kTaskResume: handle_resume(ev); break;
        case sim::TraceKind::kPartitionRevoke: handle_revoke(ev); break;
        case sim::TraceKind::kPartitionRestore: handle_restore(ev); break;
        case sim::TraceKind::kCosProgram: handle_cos_program(ev); break;
        case sim::TraceKind::kVcpuBudgetOverrun:
          vcpu(ev.vcpu).overrun = true;
          break;
        case sim::TraceKind::kVcpuBudgetExhausted:
        case sim::TraceKind::kBwRefill:
        case sim::TraceKind::kHypercall:
        case sim::TraceKind::kFaultWcetOverrun:
        case sim::TraceKind::kFaultReleaseJitter:
        case sim::TraceKind::kFaultRefillDelay:
        case sim::TraceKind::kJobDeferred:
        case sim::TraceKind::kCount_:
          break;
      }
    }
    finish();
    return std::move(res_);
  }

 private:
  /// Report every id field of `ev` outside its table's domain.
  bool ids_valid(const sim::TraceEvent& ev) {
    const unsigned refs = refs_of(ev);
    bool ok = true;
    const auto check = [&](Ref ref, const char* field, std::int64_t id,
                           bool valid) {
      if (!(refs & ref) || valid) return;
      violation(ev.when, sim::to_string(ev.kind), " references invalid ",
                field, " ", id);
      ok = false;
    };
    const auto indexable = [](std::int64_t id) {
      return id >= 0 && id < kMaxId;
    };
    check(kCore, "core", ev.core, indexable(ev.core));
    check(kVcpu, "vcpu", ev.vcpu, indexable(ev.vcpu));
    check(kTask, "task", ev.task, indexable(ev.task));
    check(kJob, "job", ev.job, ev.job >= 0);
    return ok;
  }

  // Entity lookups; ids_valid has bounded the id.
  template <typename T>
  static T& at(std::vector<T>& table, std::int64_t id) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= table.size()) table.resize(i + 1);
    return table[i];
  }
  CoreState& core(std::int32_t c) { return at(cores_, c); }
  VcpuState& vcpu(std::int32_t v) { return at(vcpus_, v); }
  TaskState& task(std::int32_t t) { return at(tasks_, t); }

  /// The released job (task, job), or null.
  JobState* find_job(std::int32_t t, std::int64_t j) {
    TaskState& ts = task(t);
    const auto i = static_cast<std::size_t>(j);
    if (i < ts.jobs.size() && ts.jobs[i].released) return &ts.jobs[i];
    if (sparse_jobs_.empty()) return nullptr;
    const auto it = sparse_jobs_.find({t, j});
    return it == sparse_jobs_.end() ? nullptr : &it->second;
  }

  template <typename... Parts>
  void violation(util::Time when, Parts&&... parts) {
    ++res_.total_violations;
    if (res_.violations.size() >= cfg_.max_violations) return;
    std::ostringstream os;
    (os << ... << parts);
    res_.violations.push_back({when, os.str()});
  }

  /// Close the running VCPU's occupancy segment at `now` and charge it
  /// against the budget (config-gated).
  void charge(CoreState& c, util::Time now) {
    if (c.running < 0) return;
    VcpuState& v = vcpu(c.running);
    v.consumed += now - c.run_start;
    c.run_start = now;
    // A declared budget overrun (enforced, non-strict run) licenses the
    // overdraw for the rest of this server period.
    const auto vi = static_cast<std::size_t>(c.running);
    if (v.seen_release && !v.overrun && vi < cfg_.vcpu_budgets.size() &&
        v.consumed > cfg_.vcpu_budgets[vi])
      violation(now, "vcpu ", c.running, " overdrew its budget: consumed ",
                v.consumed.raw_ns(), " ns of ",
                cfg_.vcpu_budgets[vi].raw_ns(), " ns");
  }

  void handle_schedule(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (c.running >= 0)
      violation(ev.when, "vcpu ", ev.vcpu, " scheduled on core ", ev.core,
                " while vcpu ", c.running, " still occupies it");
    if (c.throttled)
      violation(ev.when, "vcpu ", ev.vcpu, " scheduled on core ", ev.core,
                " while it is throttled");
    const auto vi = static_cast<std::size_t>(ev.vcpu);
    if (vi < cfg_.vcpu_cores.size() && cfg_.vcpu_cores[vi] != ev.core)
      violation(ev.when, "vcpu ", ev.vcpu, " scheduled on core ", ev.core,
                " but is partitioned to core ", cfg_.vcpu_cores[vi]);
    c.running = ev.vcpu;
    c.run_start = ev.when;
  }

  void handle_deschedule(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (c.running != ev.vcpu) {
      violation(ev.when, "deschedule of vcpu ", ev.vcpu, " on core ",
                ev.core, " but ",
                (c.running < 0 ? std::string("the core is idle")
                               : "vcpu " + std::to_string(c.running) +
                                     " is running"));
      return;
    }
    const util::Time run_start = c.run_start;  // charge() advances it
    charge(c, ev.when);
    // Invariant 2: any overlap of this run segment with an open throttle
    // window means the VCPU executed on a throttled core. The legal
    // same-instant throttle→deschedule sequence yields zero overlap.
    if (c.throttled && ev.when > util::max(run_start, c.throttle_start))
      violation(ev.when, "vcpu ", ev.vcpu, " ran on core ", ev.core,
                " during a throttle window");
    c.running = -1;
  }

  void handle_throttle(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (c.throttled)
      violation(ev.when, "core ", ev.core, " throttled twice");
    c.throttled = true;
    c.throttle_start = ev.when;
  }

  void handle_unthrottle(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (!c.throttled) {
      violation(ev.when, "core ", ev.core, " unthrottled but not throttled");
      return;
    }
    if (c.running >= 0 && ev.when > util::max(c.run_start, c.throttle_start))
      violation(ev.when, "vcpu ", c.running, " ran on core ", ev.core,
                " during a throttle window");
    c.throttled = false;
  }

  void handle_vcpu_release(const sim::TraceEvent& ev) {
    // Server period boundary: occupancy since the previous release must fit
    // the old budget (charge checks), then the meter resets.
    if (ev.core >= 0) {
      CoreState& c = core(ev.core);
      if (c.running == ev.vcpu) charge(c, ev.when);
    }
    VcpuState& v = vcpu(ev.vcpu);
    v.consumed = util::Time::zero();
    v.seen_release = true;
    v.overrun = false;
  }

  void handle_dispatch(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (c.throttled)
      violation(ev.when, "task ", ev.task, " dispatched on core ", ev.core,
                " while it is throttled");
    if (c.running != ev.vcpu)
      violation(ev.when, "task ", ev.task, " dispatched on vcpu ", ev.vcpu,
                " which is not running on core ", ev.core);
    if (task(ev.task).suspended)
      violation(ev.when, "task ", ev.task,
                " dispatched while suspended by degradation");
  }

  void handle_job_release(const sim::TraceEvent& ev) {
    ++res_.releases;
    if (find_job(ev.task, ev.job)) {
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " released twice");
      return;
    }
    std::vector<JobState>& jobs = task(ev.task).jobs;
    const auto i = static_cast<std::size_t>(ev.job);
    JobState* job;
    if (i < jobs.size() + kJobSlack) {
      if (i >= jobs.size()) jobs.resize(i + 1);
      job = &jobs[i];
    } else {
      job = &sparse_jobs_[{ev.task, ev.job}];
    }
    job->release = ev.when;
    job->released = true;
  }

  void handle_job_complete(const sim::TraceEvent& ev) {
    ++res_.completions;
    JobState* job = find_job(ev.task, ev.job);
    if (!job) {
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " completed but was never released");
      return;
    }
    if (job->completed)
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " completed twice");
    // Invariant 6: a killed job must never execute (and thus complete)
    // afterwards — the kill removed it from its task's pending queue.
    if (job->killed)
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " completed after being killed");
    job->completed = true;
  }

  void handle_miss(const sim::TraceEvent& ev) {
    ++res_.misses;
    JobState* job = find_job(ev.task, ev.job);
    if (!job) {
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " missed its deadline but was never released");
      return;
    }
    if (job->completed)
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " missed its deadline after completing");
    if (job->killed)
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " missed its deadline after being killed");
    job->missed = true;
  }

  void handle_job_kill(const sim::TraceEvent& ev) {
    JobState* job = find_job(ev.task, ev.job);
    if (!job) {
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " killed but was never released");
      return;
    }
    if (job->completed)
      violation(ev.when, "task ", ev.task, " job ", ev.job,
                " killed after completing");
    if (job->killed)
      violation(ev.when, "task ", ev.task, " job ", ev.job, " killed twice");
    job->killed = true;
  }

  void handle_suspend(const sim::TraceEvent& ev) {
    bool& suspended = task(ev.task).suspended;
    if (suspended)
      violation(ev.when, "task ", ev.task, " suspended twice");
    suspended = true;
  }

  void handle_resume(const sim::TraceEvent& ev) {
    bool& suspended = task(ev.task).suspended;
    if (!suspended)
      violation(ev.when, "task ", ev.task, " resumed but not suspended");
    suspended = false;
  }

  void handle_revoke(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (c.revoked)
      violation(ev.when, "core ", ev.core,
                " partition revoked while a revocation is already open");
    c.revoked = true;
    c.revoke_limit = ev.job;  // job field carries the shrunken way count
  }

  void handle_restore(const sim::TraceEvent& ev) {
    CoreState& c = core(ev.core);
    if (!c.revoked) {
      violation(ev.when, "core ", ev.core,
                " partition restored but not revoked");
      return;
    }
    c.revoked = false;
  }

  void handle_cos_program(const sim::TraceEvent& ev) {
    // Invariant 7: while a core's partition is revoked to W ways, no COS
    // binding may hand the core more than W ways.
    CoreState& c = core(ev.core);
    if (c.revoked && ev.job > c.revoke_limit)
      violation(ev.when, "core ", ev.core, " bound to ", ev.job,
                " cache ways while its partition is revoked to ",
                c.revoke_limit);
  }

  void finish() {
    if (cfg_.task_periods.empty() || cfg_.horizon.is_zero()) return;
    // Invariant 5: a release whose implicit deadline lies inside the
    // horizon must have been completed or declared missed. Reported in
    // ascending (task, job) order.
    std::vector<std::tuple<std::int32_t, std::int64_t, util::Time>> open;
    const auto note = [&](std::int32_t t, std::int64_t j, const JobState& job) {
      if (!job.released || job.completed || job.missed || job.killed) return;
      const auto ti = static_cast<std::size_t>(t);
      if (ti < cfg_.task_periods.size() &&
          job.release + cfg_.task_periods[ti] <= cfg_.horizon)
        open.emplace_back(t, j, job.release);
    };
    for (std::size_t t = 0; t < tasks_.size(); ++t)
      for (std::size_t j = 0; j < tasks_[t].jobs.size(); ++j)
        note(static_cast<std::int32_t>(t), static_cast<std::int64_t>(j),
             tasks_[t].jobs[j]);
    for (const auto& [key, job] : sparse_jobs_)
      note(key.first, key.second, job);
    std::sort(open.begin(), open.end());
    for (const auto& [t, j, release] : open)
      violation(release, "task ", t, " job ", j,
                " released but neither completed nor missed by the horizon");
  }

  const TraceCheckConfig& cfg_;
  TraceCheckResult res_;
  std::vector<CoreState> cores_;
  std::vector<VcpuState> vcpus_;
  std::vector<TaskState> tasks_;
  // Jobs whose id lies beyond their task table's reach (kJobSlack).
  std::map<std::pair<std::int32_t, std::int64_t>, JobState> sparse_jobs_;
};

}  // namespace

TraceCheckConfig TraceCheckConfig::from_sim(const sim::SimConfig& cfg,
                                            util::Time horizon) {
  TraceCheckConfig out;
  out.horizon = horizon;
  out.vcpu_budgets.reserve(cfg.vcpus.size());
  out.vcpu_cores.reserve(cfg.vcpus.size());
  for (const auto& v : cfg.vcpus) {
    out.vcpu_budgets.push_back(v.budget);
    out.vcpu_cores.push_back(static_cast<int>(v.core));
  }
  out.task_periods.reserve(cfg.tasks.size());
  for (const auto& t : cfg.tasks) out.task_periods.push_back(t.period);
  return out;
}

TraceCheckResult check_trace(std::span<const sim::TraceEvent> events,
                             const TraceCheckConfig& cfg) {
  return Checker(cfg).run(events);
}

std::string TraceCheckResult::summary() const {
  std::ostringstream os;
  os << (ok() ? "OK" : "FAIL") << ": " << events << " events, " << releases
     << " releases, " << completions << " completions, " << misses
     << " misses, " << total_violations << " violation"
     << (total_violations == 1 ? "" : "s");
  return os.str();
}

}  // namespace vc2m::obs

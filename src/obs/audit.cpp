#include "obs/audit.h"

#include "sim/deploy.h"
#include "util/error.h"
#include "util/phase_profiler.h"

namespace vc2m::obs {

Audit audit(const core::Strategy& strategy, const model::Taskset& tasks,
            const model::PlatformSpec& platform,
            const core::SolveResult& solved, const AuditConfig& cfg) {
  VC2M_CHECK_MSG(cfg.hyperperiods >= 1, "an audit needs >= 1 hyperperiod");
  Audit a;
  {
    VC2M_PROFILE_PHASE("deploy");
    sim::DeployConfig dc;
    dc.exec = sim::ExecModel::kCpuOnly;
    dc.release_sync = strategy.vm->release_sync();
    dc.capture_trace = true;
    a.config = sim::deploy(tasks, solved.vcpus, solved.mapping, platform, dc);
    a.config.enforcement = cfg.enforcement;
    a.config.faults = cfg.faults;
  }
  a.horizon = model::hyperperiod(tasks) * cfg.hyperperiods;
  {
    VC2M_PROFILE_PHASE("simulate");
    sim::Simulation s(a.config);
    s.set_observer(cfg.observer);
    s.run(a.horizon);
    a.stats = s.stats();
    a.events = s.take_trace_events();
  }
  {
    VC2M_PROFILE_PHASE("check");
    a.check = check_trace(a.events,
                          TraceCheckConfig::from_sim(a.config, a.horizon));
  }

  const sim::SimStats& st = a.stats;
  a.record = {st.jobs_released,  st.jobs_completed, st.deadline_misses,
              st.faults_injected, st.jobs_killed,   st.jobs_deferred,
              a.events.size(),    a.check.total_violations};
  return a;
}

core::ExperimentConfig::ValidateFn make_fault_validator(
    const model::PlatformSpec& platform, sim::FaultSpec faults,
    sim::EnforcementConfig enforcement, int hyperperiods) {
  faults.validate();
  VC2M_CHECK_MSG(hyperperiods >= 1, "fault validator needs >= 1 hyperperiod");
  return [platform, faults, enforcement, hyperperiods](
             const core::Strategy& strategy, const model::Taskset& tasks,
             const core::SolveResult& solved, std::uint64_t stream_seed) {
    AuditConfig cfg{enforcement, faults, hyperperiods};
    cfg.faults.seed = stream_seed;  // the per-item experiment stream
    const Audit a = audit(strategy, tasks, platform, solved, cfg);
    for (std::size_t i = 0; i < a.stats.per_task.size(); ++i) {
      const sim::TaskStats& t = a.stats.per_task[i];
      // Criticality-0 tasks are sheddable by design.
      if (a.stats.task_criticality[i] >= 1 &&
          (t.deadline_misses > 0 || t.killed > 0))
        return false;
    }
    return a.check.ok();
  };
}

}  // namespace vc2m::obs

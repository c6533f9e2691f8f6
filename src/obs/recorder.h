// MetricsRecorder: a sim::SimObserver that streams semantic simulator
// events into a MetricsRegistry.
//
// Live (per-event) metrics:
//   task.<i>.response_ratio      histogram of response time / period
//   task.<i>.misses              counter
//   vcpu.<j>.budget_fraction     histogram of consumed / budget per period
//   vcpu.<j>.overruns            counter of budget-exhausted periods
//   core.<k>.throttles           counter of throttle windows
//   core.<k>.throttled_ns        counter of nanoseconds spent throttled
//   sim.response_ratio           the all-tasks histogram
//
// Fault-injection / enforcement metrics (sim/faults.h, sim/enforcement.h):
//   fault.<kind>                 counter per injected fault kind
//   sim.faults_injected          counter across all kinds
//   task.<i>.killed / deferred   enforcement actions against the task
//   vcpu.<j>.budget_overruns     declared (non-strict) VCPU overruns
//   enforce.*                    global enforcement action counters
//
// finalize() folds the end-of-run SimStats counters in:
//   sim.jobs_released / jobs_completed / deadline_misses / ...
//
// record_alloc_counters() publishes an allocator run (util::AllocCounters)
// under alloc.* so one registry can carry a whole experiment.
#pragma once

#include "obs/metrics.h"
#include "sim/hooks.h"
#include "sim/simulation.h"
#include "util/instrument.h"

namespace vc2m::obs {

/// Bucket edges for ratio-of-allowance histograms (response/period,
/// consumed/budget): fine below 1.0 — the region that proves schedulability
/// margins — plus overload buckets above.
const std::vector<double>& ratio_bounds();

class MetricsRecorder : public sim::SimObserver {
 public:
  /// The registry must outlive the recorder; the recorder must outlive the
  /// simulation it observes.
  explicit MetricsRecorder(MetricsRegistry& registry) : reg_(registry) {}

  void on_job_complete(std::size_t task, util::Time response,
                       util::Time period, bool missed) override;
  void on_vcpu_period_end(std::size_t vcpu, util::Time consumed,
                          util::Time budget, bool exhausted) override;
  void on_throttle_end(std::size_t core, util::Time duration) override;
  void on_fault_injected(sim::FaultKind kind) override;
  void on_job_killed(std::size_t task) override;
  void on_job_deferred(std::size_t task) override;
  void on_task_suspended(std::size_t task) override;
  void on_task_resumed(std::size_t task) override;
  void on_vcpu_budget_overrun(std::size_t vcpu, util::Time overdraw) override;

  /// Fold the run's final statistics into the registry (the global
  /// counters).
  void finalize(const sim::SimStats& stats);

  MetricsRegistry& registry() { return reg_; }

 private:
  MetricsRegistry& reg_;
};

/// Publish one allocator run's effort counters under alloc.*.
void record_alloc_counters(MetricsRegistry& registry,
                           const util::AllocCounters& counters);

}  // namespace vc2m::obs

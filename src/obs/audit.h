// The one check of the paper's central claim, "certified ⇒ no deadline
// miss": deploy a certified allocation onto the simulator, run it for whole
// hyperperiods and replay the trace through the invariant checker.
//
// audit() makes every deployment decision itself, so no caller picks one:
// the CPU-only execution model (sim/deploy.h), release synchronization
// exactly when the strategy's VM policy asks for it (Theorem 1), the
// simulator's default hypercall latency, a captured trace checked by
// obs::check_trace, and a horizon of whole hyperperiods. `vc2m simulate`,
// the scenario runner, the `vc2m experiment --faults` validator and the
// certification tests all run through it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/experiment.h"
#include "obs/trace_check.h"
#include "sim/simulation.h"
#include "util/record.h"

namespace vc2m::obs {

struct AuditConfig {
  sim::EnforcementConfig enforcement;
  /// The fault plan, its seed included; inert by default.
  sim::FaultSpec faults;
  /// The horizon in hyperperiods of the taskset.
  int hyperperiods = 1;
  /// Semantic-event observer for the run (e.g. obs::MetricsRecorder);
  /// owned by the caller. May be null.
  sim::SimObserver* observer = nullptr;
};

/// The counts an audit reports: a scenario record's `metrics`.
struct AuditRecord {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t jobs_killed = 0;
  std::uint64_t jobs_deferred = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_violations = 0;
};

template <util::RecordOf<AuditRecord> R, class V>
void fields(R& r, V&& v) {
  v("jobs_released", r.jobs_released);
  v("jobs_completed", r.jobs_completed);
  v("deadline_misses", r.deadline_misses);
  v("faults_injected", r.faults_injected);
  v("jobs_killed", r.jobs_killed);
  v("jobs_deferred", r.jobs_deferred);
  v("trace_events", r.trace_events);
  v("trace_violations", r.trace_violations);
}

struct Audit {
  sim::SimConfig config;  ///< the deployment as simulated
  util::Time horizon;
  sim::SimStats stats;
  std::vector<sim::TraceEvent> events;
  TraceCheckResult check;
  AuditRecord record;
};

/// Deploy `solved`, which `strategy` certified for `tasks` on `platform`,
/// simulate it for `cfg.hyperperiods` hyperperiods and check its trace.
/// The three steps are the `deploy`, `simulate` and `check` phases of the
/// phase profiler (util/phase_profiler.h).
/// Throws util::Error when `solved` is not schedulable.
Audit audit(const core::Strategy& strategy, const model::Taskset& tasks,
            const model::PlatformSpec& platform,
            const core::SolveResult& solved, const AuditConfig& cfg = {});

/// An ExperimentConfig::validate functor: audit each schedulable
/// allocation under `faults` + `enforcement` (the per-item stream seed
/// replaces faults.seed) for `hyperperiods` hyperperiods, and pass iff no
/// criticality >= 1 task misses a deadline or has a job killed and the
/// trace is clean. Thread-safe: each call runs its own simulation.
core::ExperimentConfig::ValidateFn make_fault_validator(
    const model::PlatformSpec& platform, sim::FaultSpec faults,
    sim::EnforcementConfig enforcement, int hyperperiods = 1);

}  // namespace vc2m::obs

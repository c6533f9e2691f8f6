// Trace invariant checker: replays a simulator trace and verifies the
// properties the vC2M design guarantees by construction.
//
// Checked on any trace (no configuration needed):
//   0. every core, VCPU and task id an event refers to lies in [0, 65536)
//      and every job id is non-negative; an event that breaks this is
//      reported and otherwise skipped, so no id can crash the checker.
//      Job ids far past a task's last one go to a sparse fallback, so
//      memory grows with the number of events, not with id values;
//   1. at most one VCPU occupies a core at a time, and schedule/deschedule
//      events pair up (no deschedule of an idle core, no double schedule);
//   2. nothing executes on a throttled core — no VCPU is scheduled onto it,
//      no task is dispatched on it, and a VCPU running when the throttle
//      hits is descheduled at that same instant;
//   3. every job completion and deadline miss refers to a previously
//      released, still-outstanding job (no duplicate completions).
//
// Checked when the trace's configuration is supplied (from_sim):
//   4. a VCPU's core occupancy within one server period never exceeds its
//      budget (occupancy is the budget in this model — idle budget burn and
//      switch overhead included);
//   5. every job whose deadline falls inside the horizon is matched by a
//      completion or a deadline miss.
//
// The config-gated checks assume static VCPU parameters; traces produced
// with schedule_vcpu_update in play should be checked without a config.
//
// Events must be in recorded (causal) order — same-timestamp sequences like
// throttle→deschedule are meaningful in that order. Traces re-imported via
// obs::read_trace_file preserve it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/simulation.h"
#include "sim/trace.h"

namespace vc2m::obs {

struct TraceCheckConfig {
  std::vector<util::Time> vcpu_budgets;  ///< empty: skip the budget check
  std::vector<int> vcpu_cores;           ///< empty: skip the placement check
  std::vector<util::Time> task_periods;  ///< empty: skip unmatched releases
  /// End of the simulated window; zero = unknown (skips unmatched releases).
  util::Time horizon = util::Time::zero();
  /// Reporting cap; violations beyond it are counted, not stored.
  std::size_t max_violations = 32;

  static TraceCheckConfig from_sim(const sim::SimConfig& cfg,
                                   util::Time horizon);
};

struct TraceViolation {
  util::Time when;
  std::string what;
};

struct TraceCheckResult {
  std::size_t events = 0;            ///< events examined
  std::size_t total_violations = 0;  ///< including those past the cap
  std::vector<TraceViolation> violations;
  std::uint64_t releases = 0, completions = 0, misses = 0;

  bool ok() const { return total_violations == 0; }
  /// One-line verdict, e.g. "OK: 1234 events, 57 jobs, 0 violations".
  std::string summary() const;
};

TraceCheckResult check_trace(std::span<const sim::TraceEvent> events,
                             const TraceCheckConfig& cfg = {});

}  // namespace vc2m::obs

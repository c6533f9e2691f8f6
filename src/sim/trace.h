// Scheduling trace and counters produced by the simulator.
//
// Mirrors the instrumentation of the prototype: every scheduling decision,
// budget event, throttle/refill, release and completion can be recorded with
// its timestamp for offline inspection; cheap counters are always on.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/time.h"

namespace vc2m::sim {

enum class TraceKind : std::uint8_t {
  kJobRelease,
  kJobComplete,
  kDeadlineMiss,
  kVcpuRelease,          // budget replenished at a period boundary
  kVcpuBudgetExhausted,
  kVcpuSchedule,         // VCPU starts running on a core
  kVcpuDeschedule,
  kTaskDispatch,         // guest-level task switch within a VCPU
  kCoreThrottle,
  kCoreUnthrottle,
  kBwRefill,
  kHypercall,            // release-synchronization hypercall executed
  // Fault-injection events (sim/faults.h). New kinds are appended so the
  // numeric ids in previously exported traces stay valid.
  kFaultWcetOverrun,     // job released with inflated work; job = seq
  kFaultReleaseJitter,   // release delayed; job = delay in ns
  kPartitionRevoke,      // core transiently shrunk; job = new way count
  kPartitionRestore,     // revoked ways handed back; job = restored ways
  kCosProgram,           // CAT COS reprogrammed for core; job = ways
  kFaultRefillDelay,     // regulator refill armed late; job = delay in ns
  // Enforcement events (sim/enforcement.h).
  kJobKilled,            // job aborted at allowance exhaustion (kKill)
  kJobDeferred,          // job parked until replenishment (kThrottle)
  kTaskSuspend,          // low-criticality task shed (kDegrade)
  kTaskResume,           // shed task readmitted
  kVcpuBudgetOverrun,    // VCPU overdrew its budget; job = overdraw in ns
  kCount_,
};

std::string to_string(TraceKind k);

/// Inverse of to_string (used when re-importing exported traces);
/// std::nullopt for unknown names.
std::optional<TraceKind> trace_kind_from_string(const std::string& name);

struct TraceEvent {
  util::Time when;
  TraceKind kind;
  std::int32_t core = -1;
  std::int32_t vcpu = -1;
  std::int32_t task = -1;
  std::int64_t job = -1;  ///< job sequence number within the task
};

class Trace {
 public:
  /// When capture is off (default) only the counters are maintained.
  explicit Trace(bool capture = false) : capture_(capture) {}

  void record(TraceEvent ev) {
    ++counts_[static_cast<std::size_t>(ev.kind)];
    if (capture_) events_.push_back(ev);
  }

  std::uint64_t count(TraceKind k) const {
    return counts_[static_cast<std::size_t>(k)];
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Hand the captured events over; the counters stay.
  std::vector<TraceEvent> take_events() { return std::move(events_); }

 private:
  bool capture_;
  std::vector<TraceEvent> events_;
  std::array<std::uint64_t, static_cast<std::size_t>(TraceKind::kCount_)>
      counts_{};
};

}  // namespace vc2m::sim

#include "sim/trace.h"

#include <iterator>

#include "util/names.h"

namespace vc2m::sim {

namespace {

/// Indexed by TraceKind; the export formats spell kinds this way.
constexpr const char* kTraceKindNames[] = {
    "job-release",        "job-complete",          "deadline-miss",
    "vcpu-release",       "vcpu-budget-exhausted", "vcpu-schedule",
    "vcpu-deschedule",    "task-dispatch",         "core-throttle",
    "core-unthrottle",    "bw-refill",             "hypercall",
    "fault-wcet-overrun", "fault-release-jitter",  "partition-revoke",
    "partition-restore",  "cos-program",           "fault-refill-delay",
    "job-killed",         "job-deferred",          "task-suspend",
    "task-resume",        "vcpu-budget-overrun"};
static_assert(std::size(kTraceKindNames) ==
              static_cast<std::size_t>(TraceKind::kCount_));

}  // namespace

std::string to_string(TraceKind k) {
  return util::enum_name(kTraceKindNames, k);
}

std::optional<TraceKind> trace_kind_from_string(const std::string& name) {
  TraceKind k;
  if (!util::enum_from_name(kTraceKindNames, name, k)) return std::nullopt;
  return k;
}

}  // namespace vc2m::sim

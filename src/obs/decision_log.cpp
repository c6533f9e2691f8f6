#include "obs/decision_log.h"

#include <cstdio>

#include "util/names.h"

namespace vc2m::obs {
namespace {

// Index-aligned with the enums; append-only, like the enums themselves.
constexpr const char* kKindNames[] = {
    "solve_begin",     "vm_outcome",        "budget_search",
    "budget_point",    "bin_pack",          "vcpu_screen",
    "capacity_screen", "packing_candidate", "partition_grant",
    "grant_exhausted", "migration",         "hv_attempt",
    "admit_placement", "admit_verdict",     "exact_partition",
    "verdict",
};

constexpr const char* kConstraintNames[] = {
    "none",
    "no_feasible_budget",
    "task_overflows_vcpu",
    "vcpu_exceeds_core",
    "utilization_exceeds_cores",
    "core_over_utilized",
    "cache_pool_exhausted",
    "bw_pool_exhausted",
    "no_beneficial_grant",
    "core_limit",
    "no_feasible_partition",
};

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

const char* to_string(DecisionKind k) {
  return util::enum_name(kKindNames, k);
}

const char* to_string(DecisionConstraint c) {
  return util::enum_name(kConstraintNames, c);
}

bool decision_kind_from_string(const std::string& s, DecisionKind& out) {
  return util::enum_from_name(kKindNames, s, out);
}

bool decision_constraint_from_string(const std::string& s,
                                     DecisionConstraint& out) {
  return util::enum_from_name(kConstraintNames, s, out);
}

std::string describe(const DecisionEvent& e) {
  std::string s = to_string(e.kind);
  if (e.vm >= 0) s += " vm " + std::to_string(e.vm);
  if (e.entity >= 0) s += " #" + std::to_string(e.entity);
  if (e.core >= 0) {
    s += (e.kind == DecisionKind::kHvAttempt ? " cores " : " core ") +
         std::to_string(e.core);
  }
  if (e.cache >= 0 || e.bw >= 0) {
    s += " (c=" + std::to_string(e.cache) + ",b=" + std::to_string(e.bw) + ")";
  }
  s += e.accepted ? ": accepted" : ": rejected";
  s += fmt(", value %.6g", e.value);
  if (e.accepted) {
    s += fmt(", slack %.6g", e.margin);
  } else {
    if (e.constraint != DecisionConstraint::kNone) {
      s += " — ";
      s += to_string(e.constraint);
    }
    s += fmt(", short by %.6g", e.margin);
  }
  return s;
}

}  // namespace vc2m::obs

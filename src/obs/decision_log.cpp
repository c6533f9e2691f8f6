#include "obs/decision_log.h"

#include <cstdio>

#include "util/names.h"

namespace vc2m::obs {
namespace {

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

}  // namespace

const char* to_string(DecisionKind k) {
  return util::enum_name(kDecisionKindNames, k);
}

const char* to_string(DecisionConstraint c) {
  return util::enum_name(kDecisionConstraintNames, c);
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

// Allocation explanations: rejection chains and headroom, built on the
// decision log.
//
// explain_solve() runs one strategy on one taskset with a DecisionLogScope
// open and post-processes the event stream plus the final allocation into
// an ExplainReport:
//
//  - a per-VM *rejection chain* when the verdict is unschedulable: for
//    every VM the binding constraint (the most specific rejecting event —
//    an oversized VCPU beats a generic capacity screen) and the numeric
//    margin by which it was missed, with a human-readable detail line
//    ("no (c,b) cell with Θ≤Π at 4 ways; best cell short by 0.18 budget");
//  - a per-core *headroom report* when the verdict is schedulable: the
//    utilization slack, and how many cache ways / bandwidth partitions the
//    core could return to the spare pools while staying schedulable — the
//    counterfactual data an online admission service serves;
//  - the raw event stream (bounded; events_dropped counts truncation).
//
// The report serializes as versioned JSON ("vc2m-explain-report/1"), its
// members declared once in the `fields` functions below and written and
// read through obs/json.h like the bench reports; it reads back for
// round-trip validation, and renders as text for `vc2m explain`.
//
// Recording never perturbs the solve: explain_solve's result is
// bit-identical to core::solve without a scope (tests/test_explain.cpp pins
// this against tests/golden/engine.golden).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "obs/decision_log.h"
#include "util/record.h"

namespace vc2m::obs {

/// Headroom of one allocated core at its final (cache, bw) partitions.
struct CoreHeadroom {
  unsigned core = 0;
  unsigned cache = 0;       ///< allocated cache partitions
  unsigned bw = 0;          ///< allocated bandwidth partitions
  std::size_t vcpus = 0;    ///< VCPUs mapped here
  double utilization = 0;   ///< Σ Θ/Π at (cache, bw)
  double slack = 0;         ///< 1 − utilization
  /// Partitions this core could hand back while every shrunken allocation
  /// stays schedulable (each resource probed independently, one partition
  /// at a time, down to the grid minimum).
  unsigned reclaimable_cache = 0;
  unsigned reclaimable_bw = 0;
};

struct HeadroomReport {
  std::vector<CoreHeadroom> cores;
  unsigned spare_cache = 0;  ///< pool partitions no core was granted
  unsigned spare_bw = 0;
};

/// Why one VM could not be placed: the binding constraint and its margin.
struct VmRejection {
  int vm = -1;
  DecisionConstraint constraint = DecisionConstraint::kNone;
  double margin = 0;    ///< shortfall in the constraint's own unit
  std::string detail;   ///< one human-readable sentence
};

inline constexpr const char* kExplainReportSchema = "vc2m-explain-report/1";

struct ExplainReport {
  std::string schema = kExplainReportSchema;
  std::string strategy;  ///< registry key
  std::string git_rev;
  std::map<std::string, std::string> config;
  bool schedulable = false;
  unsigned cores_used = 0;
  HeadroomReport headroom;
  std::vector<VmRejection> rejections;  ///< empty when schedulable
  std::vector<DecisionEvent> events;
  std::uint64_t events_dropped = 0;
};

// The explain report's JSON members (obs/json.h), in wire order.

template <util::RecordOf<CoreHeadroom> R, class V>
void fields(R& c, V&& v) {
  v("core", c.core);
  v("cache", c.cache);
  v("bw", c.bw);
  v("vcpus", c.vcpus);
  v("utilization", c.utilization);
  v("slack", c.slack);
  v("reclaimable_cache", c.reclaimable_cache);
  v("reclaimable_bw", c.reclaimable_bw);
}

template <util::RecordOf<HeadroomReport> R, class V>
void fields(R& h, V&& v) {
  v("spare_cache", h.spare_cache);
  v("spare_bw", h.spare_bw);
  v("cores", h.cores);
}

template <util::RecordOf<VmRejection> R, class V>
void fields(R& r, V&& v) {
  v("vm", r.vm);
  v("constraint", util::Named{r.constraint, kDecisionConstraintNames});
  v("margin", r.margin);
  v("detail", r.detail);
}

template <util::RecordOf<DecisionEvent> R, class V>
void fields(R& e, V&& v) {
  v("kind", util::Named{e.kind, kDecisionKindNames});
  v("accepted", e.accepted);
  v("constraint", util::Named{e.constraint, kDecisionConstraintNames});
  v("vm", e.vm);
  v("entity", e.entity);
  v("core", e.core);
  v("cache", e.cache);
  v("bw", e.bw);
  v("value", e.value);
  v("margin", e.margin);
}

template <util::RecordOf<ExplainReport> R, class V>
void fields(R& r, V&& v) {
  v("schema", r.schema);
  v("strategy", r.strategy);
  v("git_rev", r.git_rev);
  v("config", r.config);
  v("schedulable", r.schedulable);
  v("cores_used", r.cores_used);
  v("headroom", r.headroom);
  v("rejections", r.rejections);
  v("events_dropped", r.events_dropped);
  v("events", r.events);
}

/// Solve with decision recording and build the report. `out_result`, when
/// non-null, receives the solve result (bit-identical to an unrecorded
/// core::solve with the same inputs and RNG state).
ExplainReport explain_solve(const core::Strategy& strategy,
                            const model::Taskset& tasks,
                            const model::PlatformSpec& platform,
                            const core::SolveConfig& cfg, util::Rng& rng,
                            core::SolveResult* out_result = nullptr);

/// Post-process an existing capture: derive the rejection chains (per VM in
/// `tasks`) and headroom from a decision log and its solve result. This is
/// what explain_solve uses; exposed for callers that already hold a log
/// (e.g. an admission service recording its own scopes).
ExplainReport build_explain_report(const DecisionLog& log,
                                   const core::SolveResult& result,
                                   const model::Taskset& tasks,
                                   const model::PlatformSpec& platform);

/// Throws util::Error on malformed JSON, duplicate keys, non-finite
/// numbers, a missing member, unknown enum names, config keys out of
/// ascending order, or a schema this reader does not speak. Unknown
/// fields at any level are reported through `notes` (when given).
ExplainReport read_explain_report(std::istream& is,
                                  std::vector<std::string>* notes = nullptr);

/// Human rendering for `vc2m explain`: verdict, rejection chains, headroom
/// table. `show_events` appends one describe() line per recorded event.
void render_explain(std::ostream& os, const ExplainReport& r,
                    bool show_events = false);

}  // namespace vc2m::obs

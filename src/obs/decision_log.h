// Decision provenance for the allocation engine: a flight recorder.
//
// The solver makes thousands of coupled decisions per run — which budget a
// (c,b) cell gets, which core a VCPU lands on, which partition grant is
// worth its cost — and the final allocation alone cannot answer "why was
// this VM rejected?" or "why is core 2 so full?". While a DecisionLogScope
// is open, every consequential step is appended to a DecisionLog as a
// typed DecisionEvent carrying the rejecting constraint and the numeric
// margin by which it was missed (or met). `vc2m explain` and the
// vc2m-explain-report/1 artifact (obs/explain.h) are built on this stream.
//
// Recording follows the util::AllocCounters contract exactly:
//  - Off by default. Every emit site is one thread-local pointer test
//    (`if (auto* log = obs::decision_log())`); with no scope open the hot
//    paths stay effectively free.
//  - Passive. Emission never touches allocator state, consumes no RNG, and
//    never changes a verdict — tests/test_explain.cpp pins the engine
//    bit-identical to tests/golden/engine.golden with recording enabled.
//  - Deterministic. Within one solve the event order is the solver's own
//    deterministic visit order; core::run_schedulability_experiment
//    captures per-work-item logs and concatenates them in serial
//    (point, taskset, solution) order, so the merged stream is
//    bit-identical at any --jobs count.
//
// This header is deliberately link-free (all hot-path members inline, no
// vc2m_obs symbols) so the lower layers — src/analysis, src/core — can
// emit without a dependency cycle; the cold helpers (names, one-line
// descriptions) live in decision_log.cpp inside vc2m_obs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace vc2m::obs {

/// What kind of step a DecisionEvent records. Values are append-only: the
/// vc2m-explain-report/1 schema serializes them by name
/// (kDecisionKindNames).
enum class DecisionKind : std::uint8_t {
  kSolveBegin,      ///< one solve() starts: value = task count
  kVmOutcome,       ///< VM-level phase done: value = VCPU count (0 = failed)
  kBudgetSearch,    ///< one fresh min-budget search (analysis context)
  kBudgetPoint,     ///< one (c,b) cell of a VCPU's budget surface
  kBinPack,         ///< best-fit packing attempt of one item
  kVcpuScreen,      ///< hv fast screen: one VCPU vs a whole core
  kCapacityScreen,  ///< hv fast screen: total utilization vs core count
  kPackingCandidate,///< one Phase-1 candidate packing (m cores, permutation)
  kPartitionGrant,  ///< Phase-2 grant of one cache/BW partition
  kGrantExhausted,  ///< Phase 2 gave up: pools dry or no beneficial grant
  kMigration,       ///< Phase-3 VCPU move between cores
  kHvAttempt,       ///< outcome of one core-count attempt (m cores)
  kAdmitPlacement,  ///< online admission: one VCPU vs one candidate core
  kAdmitVerdict,    ///< online admission: final per-VM verdict
  kExactPartition,  ///< exact search: resource split over one partition
  kVerdict,         ///< final solve verdict
};

/// The constraint that bound when a step was rejected (kNone on accepts).
enum class DecisionConstraint : std::uint8_t {
  kNone,
  kNoFeasibleBudget,       ///< no Θ ≤ Π exists for the task group
  kTaskOverflowsVcpu,      ///< packing weight exceeds a unit VCPU
  kVcpuExceedsCore,        ///< one VCPU > 1.0 even at (C_max, B_max)
  kUtilizationExceedsCores,///< Σ utilization > available cores
  kCoreOverUtilized,       ///< Σ Θ/Π > 1 on one core
  kCachePoolExhausted,     ///< free cache partitions ran out
  kBwPoolExhausted,        ///< free bandwidth partitions ran out
  kNoBeneficialGrant,      ///< no remaining grant reduces utilization
  kCoreLimit,              ///< no more physical cores to open
  kNoFeasiblePartition,    ///< exact search: no resource split fits
};

/// The enums' stable names, index-aligned with them and append-only like
/// them: the vc2m-explain-report/1 schema spells them.
inline constexpr const char* kDecisionKindNames[] = {
    "solve_begin",     "vm_outcome",        "budget_search",
    "budget_point",    "bin_pack",          "vcpu_screen",
    "capacity_screen", "packing_candidate", "partition_grant",
    "grant_exhausted", "migration",         "hv_attempt",
    "admit_placement", "admit_verdict",     "exact_partition",
    "verdict",
};
inline constexpr const char* kDecisionConstraintNames[] = {
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

/// One recorded decision. Field use depends on `kind` (see the emit sites
/// and docs/explainability.md for the per-kind contract); unused id fields
/// stay -1 and unused numeric fields stay 0.
struct DecisionEvent {
  DecisionKind kind{};
  bool accepted = false;
  DecisionConstraint constraint = DecisionConstraint::kNone;
  std::int32_t vm = -1;      ///< implicated VM id, when exactly one is
  std::int32_t entity = -1;  ///< VCPU/task/item index, per kind
  std::int32_t core = -1;    ///< core index (or core count for kHvAttempt)
  std::int32_t cache = -1;   ///< cache partitions at the decision point
  std::int32_t bw = -1;      ///< bandwidth partitions at the decision point
  double value = 0;   ///< principal quantity (Θ ms, utilization, residual…)
  /// Signed margin of the decision: how much slack was left when accepted
  /// (≥ 0), or how far the binding constraint was missed when rejected
  /// (> 0 = shortfall). Always in the same unit as `value`'s dimension.
  double margin = 0;

  friend bool operator==(const DecisionEvent&, const DecisionEvent&) = default;
};

/// An append-only event stream with a hard size cap: a runaway search can
/// emit millions of events, and the recorder must stay bounded the same
/// way the log-bucketed histograms are. Events past the cap are counted,
/// not stored — ExplainReport surfaces `events_dropped` so a truncated
/// explanation is never mistaken for a complete one.
class DecisionLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit DecisionLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  void emit(const DecisionEvent& e) {
    if (events_.size() < capacity_) {
      events_.push_back(e);
    } else {
      ++dropped_;
    }
  }

  /// Append another log's events (and dropped count) in order — the serial
  /// merge the experiment runner performs per work item.
  void append(const DecisionLog& o) {
    for (const auto& e : o.events_) emit(e);
    dropped_ += o.dropped_;
  }

  const std::vector<DecisionEvent>& events() const { return events_; }
  std::size_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return events_.empty() && dropped_ == 0; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  std::size_t capacity_;
  std::vector<DecisionEvent> events_;
  std::size_t dropped_ = 0;
};

namespace detail {
inline thread_local DecisionLog* g_decision_log = nullptr;
}

/// The active recorder, or nullptr when no scope is open. Emit sites use
/// `if (auto* log = obs::decision_log()) log->emit({...});` — one branch.
inline DecisionLog* decision_log() { return detail::g_decision_log; }

/// RAII recording scope. By default the scope owns its log and, like
/// util::AllocCounterScope, appends it to any enclosing scope's log on
/// destruction (so an outer "whole experiment" scope sees nested solves in
/// order). Binding an external sink instead (the experiment work items do
/// this) records into it directly and skips the merge — the caller then
/// owns ordering.
class DecisionLogScope {
 public:
  DecisionLogScope() : prev_(detail::g_decision_log), sink_(&owned_) {
    detail::g_decision_log = sink_;
  }
  explicit DecisionLogScope(DecisionLog& sink)
      : prev_(detail::g_decision_log), sink_(&sink), external_(true) {
    detail::g_decision_log = sink_;
  }
  ~DecisionLogScope() {
    detail::g_decision_log = prev_;
    if (!external_ && prev_) prev_->append(owned_);
  }
  DecisionLogScope(const DecisionLogScope&) = delete;
  DecisionLogScope& operator=(const DecisionLogScope&) = delete;

  const DecisionLog& log() const { return *sink_; }

 private:
  DecisionLog* prev_;
  DecisionLog* sink_;
  DecisionLog owned_;
  bool external_ = false;
};

// ---------------------------------------------------------------------------
// Cold helpers (vc2m_obs, decision_log.cpp) — rendering and schema names.

/// Stable serialization names ("budget_point", "no_feasible_budget", …) —
/// the vc2m-explain-report/1 schema uses these, so they never change.
const char* to_string(DecisionKind k);
const char* to_string(DecisionConstraint c);

/// Parse the stable names back (read side of the explain report). Returns
/// false on an unknown name.
bool decision_kind_from_string(const std::string& s, DecisionKind& out);
bool decision_constraint_from_string(const std::string& s,
                                     DecisionConstraint& out);

/// One human-readable line for an event, e.g.
/// "budget point vm 1 (c=4,b=2): rejected — no_feasible_budget, short by
///  0.18 budget".
std::string describe(const DecisionEvent& e);

}  // namespace vc2m::obs

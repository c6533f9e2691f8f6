#include "obs/explain.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <ostream>
#include <set>

#include "analysis/schedulability.h"
#include "obs/bench_report.h"
#include "obs/json.h"
#include "util/error.h"

namespace vc2m::obs {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

/// Specificity rank of a VM-attributed rejecting event: lower wins. An
/// oversized VCPU or an infeasible budget surface names the real cause; a
/// phase outcome only restates that something failed.
int vm_rank(DecisionKind k) {
  switch (k) {
    case DecisionKind::kVcpuScreen: return 0;
    case DecisionKind::kBudgetPoint: return 1;
    case DecisionKind::kBinPack: return 2;
    case DecisionKind::kHvAttempt: return 3;
    case DecisionKind::kVmOutcome: return 4;
    case DecisionKind::kAdmitVerdict: return 5;
    default: return 9;
  }
}

/// Specificity rank of a system-level rejecting event (no single VM).
int system_rank(DecisionKind k) {
  switch (k) {
    case DecisionKind::kCapacityScreen: return 0;
    case DecisionKind::kGrantExhausted: return 1;
    case DecisionKind::kMigration: return 2;
    case DecisionKind::kExactPartition: return 3;
    case DecisionKind::kBinPack: return 4;
    case DecisionKind::kHvAttempt: return 5;
    case DecisionKind::kVmOutcome: return 6;
    case DecisionKind::kVerdict: return 8;
    default: return 9;
  }
}

std::string constraint_detail(const DecisionEvent& e) {
  switch (e.constraint) {
    case DecisionConstraint::kNoFeasibleBudget:
      return fmt("no (c,b) cell with Θ≤Π at (c=%d,b=%d); best cell short by "
                 "%.3g budget",
                 e.cache, e.bw, e.margin);
    case DecisionConstraint::kVcpuExceedsCore:
      return fmt("VCPU #%d needs utilization %.3g even at the full "
                 "allocation (c=%d,b=%d) — over a whole core by %.3g",
                 e.entity, e.value, e.cache, e.bw, e.margin);
    case DecisionConstraint::kTaskOverflowsVcpu:
      return fmt("an item of weight %.3g overflows a unit bin by %.3g",
                 e.value, e.margin);
    case DecisionConstraint::kUtilizationExceedsCores:
      return fmt("total best-case demand %.3g exceeds %d cores by %.3g",
                 e.value, e.core, e.margin);
    case DecisionConstraint::kCoreOverUtilized:
      return fmt("core %d stays at utilization %.3g — over by %.3g",
                 e.core, e.value, e.margin);
    case DecisionConstraint::kCachePoolExhausted:
      return fmt("cache partition pool exhausted; closest core still %.3g "
                 "over capacity",
                 e.margin);
    case DecisionConstraint::kBwPoolExhausted:
      return fmt("bandwidth partition pool exhausted; closest core still "
                 "%.3g over capacity",
                 e.margin);
    case DecisionConstraint::kNoBeneficialGrant:
      return fmt("no remaining partition grant reduces utilization; closest "
                 "core still %.3g over capacity",
                 e.margin);
    case DecisionConstraint::kCoreLimit:
      return fmt("no packing onto up to %d cores admits the load", e.core);
    case DecisionConstraint::kNoFeasiblePartition:
      return "no cache/bandwidth split over the pools is feasible";
    case DecisionConstraint::kNone: break;
  }
  return describe(e);
}

/// The binding rejection for one VM: the most specific rejecting event
/// attributed to it, with budget-surface rejections aggregated (the margin
/// of the *best* cell is what the VM was short by).
VmRejection vm_rejection(int vm, const std::vector<DecisionEvent>& events) {
  VmRejection out;
  out.vm = vm;
  const DecisionEvent* best = nullptr;
  int best_rank = std::numeric_limits<int>::max();
  std::size_t budget_cells = 0;
  for (const auto& e : events) {
    if (e.accepted || e.vm != vm) continue;
    const int rank = vm_rank(e.kind);
    if (e.kind == DecisionKind::kBudgetPoint) ++budget_cells;
    if (rank < best_rank ||
        (rank == best_rank && best && e.margin < best->margin)) {
      best_rank = rank;
      best = &e;
    }
  }
  if (!best) return out;  // caller falls back to the system-level cause
  out.constraint = best->constraint;
  out.margin = best->margin;
  out.detail = constraint_detail(*best);
  if (best->kind == DecisionKind::kBudgetPoint && budget_cells > 1)
    out.detail += fmt(" (%zu cells infeasible)", budget_cells);
  return out;
}

/// The system-level binding rejection (capacity screens, grant exhaustion)
/// — attached to every rejected VM without a cause of its own.
const DecisionEvent* system_cause(const std::vector<DecisionEvent>& events) {
  const DecisionEvent* best = nullptr;
  int best_rank = std::numeric_limits<int>::max();
  for (const auto& e : events) {
    if (e.accepted || e.vm >= 0) continue;
    const int rank = system_rank(e.kind);
    if (rank < best_rank ||
        (rank == best_rank && best && e.margin < best->margin)) {
      best_rank = rank;
      best = &e;
    }
  }
  return best;
}

HeadroomReport build_headroom(const core::SolveResult& result,
                              const model::PlatformSpec& platform) {
  HeadroomReport h;
  const auto& grid = platform.grid;
  const auto& mapping = result.mapping;
  std::span<const model::Vcpu> vcpus(result.vcpus);
  unsigned used_c = 0, used_b = 0;
  for (unsigned k = 0; k < mapping.cores_used; ++k) {
    const auto& members = mapping.vcpus_on_core[k];
    CoreHeadroom ch;
    ch.core = k;
    ch.cache = mapping.cache[k];
    ch.bw = mapping.bw[k];
    ch.vcpus = members.size();
    ch.utilization =
        analysis::core_utilization(vcpus, members, ch.cache, ch.bw);
    ch.slack = 1.0 - ch.utilization;
    // Shrink each resource independently, one partition at a time, for as
    // long as the core stays schedulable — purely counterfactual probing,
    // the allocation itself is never modified.
    unsigned c = ch.cache;
    while (c > grid.c_min &&
           analysis::core_schedulable(vcpus, members, c - 1, ch.bw))
      --c;
    ch.reclaimable_cache = ch.cache - c;
    unsigned b = ch.bw;
    while (b > grid.b_min &&
           analysis::core_schedulable(vcpus, members, ch.cache, b - 1))
      --b;
    ch.reclaimable_bw = ch.bw - b;
    used_c += ch.cache;
    used_b += ch.bw;
    h.cores.push_back(ch);
  }
  h.spare_cache = platform.total_cache() - used_c;
  h.spare_bw = platform.total_bw() - used_b;
  return h;
}

}  // namespace

ExplainReport build_explain_report(const DecisionLog& log,
                                   const core::SolveResult& result,
                                   const model::Taskset& tasks,
                                   const model::PlatformSpec& platform) {
  ExplainReport r;
  r.git_rev = build_git_rev();
  r.schedulable = result.schedulable;
  r.cores_used = result.mapping.cores_used;
  r.events = log.events();
  r.events_dropped = log.dropped();

  if (result.schedulable) {
    r.headroom = build_headroom(result, platform);
  } else {
    r.headroom.spare_cache = platform.total_cache();
    r.headroom.spare_bw = platform.total_bw();
    std::set<int> vms;
    for (const auto& t : tasks) vms.insert(t.vm);
    const DecisionEvent* fallback = system_cause(r.events);
    for (const int vm : vms) {
      VmRejection rej = vm_rejection(vm, r.events);
      if (rej.constraint == DecisionConstraint::kNone && fallback) {
        rej.constraint = fallback->constraint;
        rej.margin = fallback->margin;
        rej.detail = constraint_detail(*fallback);
      }
      if (rej.constraint == DecisionConstraint::kNone)
        rej.detail = r.events_dropped > 0
                         ? "no rejecting event retained (log truncated)"
                         : "no rejecting event recorded";
      r.rejections.push_back(std::move(rej));
    }
  }
  return r;
}

ExplainReport explain_solve(const core::Strategy& strategy,
                            const model::Taskset& tasks,
                            const model::PlatformSpec& platform,
                            const core::SolveConfig& cfg, util::Rng& rng,
                            core::SolveResult* out_result) {
  DecisionLogScope scope;
  core::SolveResult result = core::solve(strategy, tasks, platform, cfg, rng);
  ExplainReport r =
      build_explain_report(scope.log(), result, tasks, platform);
  r.strategy = strategy.key;
  r.config["strategy_display"] = strategy.display;
  r.config["cores"] = std::to_string(platform.cores);
  r.config["total_cache"] = std::to_string(platform.total_cache());
  r.config["total_bw"] = std::to_string(platform.total_bw());
  r.config["tasks"] = std::to_string(tasks.size());
  std::set<int> vms;
  for (const auto& t : tasks) vms.insert(t.vm);
  r.config["vms"] = std::to_string(vms.size());
  if (out_result) *out_result = std::move(result);
  return r;
}

ExplainReport read_explain_report(std::istream& is,
                                  std::vector<std::string>* notes) {
  ExplainReport r = json::read<ExplainReport>(is, "explain report", notes);
  VC2M_CHECK_MSG(r.schema == kExplainReportSchema,
                 "not a vc2m explain report (schema '" << r.schema << "')");
  return r;
}

void render_explain(std::ostream& os, const ExplainReport& r,
                    bool show_events) {
  os << "strategy " << r.strategy;
  if (const auto it = r.config.find("strategy_display");
      it != r.config.end())
    os << " — " << it->second;
  os << " (rev " << r.git_rev << ")\n";
  if (r.schedulable) {
    os << "verdict: SCHEDULABLE on " << r.cores_used << " core"
       << (r.cores_used == 1 ? "" : "s") << "\n\n";
    os << "headroom per core:\n";
    os << "  core  cache  bw  vcpus   util  slack  reclaim(c)  reclaim(b)\n";
    for (const auto& c : r.headroom.cores) {
      os << fmt("  %4u  %5u  %2u  %5zu  %5.3f  %5.3f  %10u  %10u\n", c.core,
                c.cache, c.bw, c.vcpus, c.utilization, c.slack,
                c.reclaimable_cache, c.reclaimable_bw);
    }
    os << "spare pools: " << r.headroom.spare_cache << " cache, "
       << r.headroom.spare_bw << " bw partitions\n";
  } else {
    os << "verdict: NOT SCHEDULABLE\n\n";
    os << "rejection chain:\n";
    for (const auto& rej : r.rejections) {
      os << "  VM " << rej.vm << " rejected ["
         << to_string(rej.constraint) << "]: " << rej.detail;
      if (rej.margin > 0) os << fmt(" (margin %.3g)", rej.margin);
      os << "\n";
    }
  }
  os << "\nevents: " << r.events.size() << " recorded";
  if (r.events_dropped > 0) os << " (" << r.events_dropped << " dropped)";
  os << "\n";
  if (show_events)
    for (const auto& e : r.events) os << "  " << describe(e) << "\n";
}

}  // namespace vc2m::obs

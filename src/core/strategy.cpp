#include "core/strategy.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/exact.h"
#include "core/packing.h"
#include "core/vm_alloc.h"
#include "obs/decision_log.h"
#include "util/error.h"
#include "util/phase_profiler.h"
#include "util/thread_pool.h"

namespace vc2m::core {

namespace {

/// Tasks → VCPUs via best-fit decreasing bin packing (per VM), used by the
/// two comparison solutions. `weight(i)` gives the packing weight of task i;
/// `make_vcpu(indices)` builds the VCPU for one bin.
template <typename WeightFn, typename MakeVcpu>
std::vector<model::Vcpu> pack_best_fit(const model::Taskset& tasks,
                                       WeightFn&& weight,
                                       MakeVcpu&& make_vcpu) {
  std::vector<model::Vcpu> vcpus;
  for (const auto& vm_idx : tasks_by_vm(tasks)) {
    std::vector<double> weights;
    weights.reserve(vm_idx.size());
    for (const std::size_t i : vm_idx) weights.push_back(weight(i));
    const auto bins = packing::best_fit_decreasing(
        weights, 1.0, /*max_bins=*/vm_idx.size());
    if (!bins) {  // a single task overflows a unit bin
      if (auto* log = obs::decision_log()) {
        double w_max = 0;
        for (const double w : weights) w_max = std::max(w_max, w);
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kVmOutcome;
        e.constraint = obs::DecisionConstraint::kTaskOverflowsVcpu;
        e.vm = tasks[vm_idx.front()].vm;
        e.value = w_max;
        e.margin = std::max(0.0, w_max - 1.0);
        log->emit(e);
      }
      return {};
    }
    for (const auto& bin : *bins) {
      std::vector<std::size_t> global;
      global.reserve(bin.size());
      for (const std::size_t local : bin) global.push_back(vm_idx[local]);
      vcpus.push_back(make_vcpu(global));
    }
  }
  return vcpus;
}

/// §4.2 heuristic VM-level allocation, parameterized by the VCPU analysis.
class HeuristicVmPolicy final : public VmPolicy {
 public:
  HeuristicVmPolicy(VcpuAnalysis analysis, std::string_view name)
      : analysis_(analysis), name_(name) {}
  std::string_view name() const override { return name_; }
  bool release_sync() const override {
    return analysis_ == VcpuAnalysis::kFlattening;
  }
  std::vector<model::Vcpu> allocate(const model::Taskset& tasks,
                                    const model::PlatformSpec& platform,
                                    const SolveConfig& cfg,
                                    analysis::AnalysisContext& ctx,
                                    util::Rng& rng) const override {
    VmAllocConfig vm;
    vm.max_vcpus_per_vm = platform.cores;
    vm.clusters = cfg.clusters;
    vm.analysis = analysis_;
    return allocate_vms_heuristic(tasks, vm, ctx, rng);
  }

 private:
  VcpuAnalysis analysis_;
  std::string_view name_;
};

/// Evenly-partition comparison VM level: best-fit decreasing packing by
/// task utilization under the even (C/M, B/M) split, Theorem-2 VCPUs.
class EvenPackVmPolicy final : public VmPolicy {
 public:
  std::string_view name() const override {
    return "best-fit pack (Theorem 2, even-split weights)";
  }
  std::vector<model::Vcpu> allocate(const model::Taskset& tasks,
                                    const model::PlatformSpec& platform,
                                    const SolveConfig& cfg,
                                    analysis::AnalysisContext& ctx,
                                    util::Rng& rng) const override {
    (void)cfg;
    (void)ctx;
    (void)rng;
    const auto& grid = platform.grid;
    const unsigned c_even =
        std::max(grid.c_min, platform.total_cache() / platform.cores);
    const unsigned b_even =
        std::max(grid.b_min, platform.total_bw() / platform.cores);
    return pack_best_fit(
        tasks,
        [&](std::size_t i) { return tasks[i].utilization(c_even, b_even); },
        [&](const std::vector<std::size_t>& idx) {
          return analysis::regulated_vcpu(tasks, idx);
        });
  }
};

/// Baseline comparison VM level: best-fit decreasing packing by maximum
/// WCET (worst-case bandwidth, no cache), existing-CSA VCPU budgets.
class BaselinePackVmPolicy final : public VmPolicy {
 public:
  std::string_view name() const override {
    return "best-fit pack (existing CSA at max WCET)";
  }
  std::vector<model::Vcpu> allocate(const model::Taskset& tasks,
                                    const model::PlatformSpec& platform,
                                    const SolveConfig& cfg,
                                    analysis::AnalysisContext& ctx,
                                    util::Rng& rng) const override {
    (void)platform;
    (void)cfg;
    (void)rng;
    return pack_best_fit(
        tasks,
        [&](std::size_t i) {
          return tasks[i].max_wcet.ratio(tasks[i].period);
        },
        [&](const std::vector<std::size_t>& idx) {
          return vcpu_existing_csa_max_wcet(tasks, idx, ctx);
        });
  }
};

/// §4.3 three-phase heuristic HV level.
class HeuristicHvPolicy final : public HvPolicy {
 public:
  std::string_view name() const override {
    return "three-phase heuristic (pack, grant, balance)";
  }
  HvAllocResult allocate(std::span<const model::Vcpu> vcpus,
                         const model::PlatformSpec& platform,
                         const SolveConfig& cfg,
                         analysis::AnalysisContext& ctx,
                         util::Rng& rng) const override {
    (void)ctx;  // per-core accounting lives in CoreLoad (see hv_alloc.cpp)
    HvAllocConfig hv = cfg.hv;
    hv.clusters = cfg.clusters;
    return allocate_heuristic(vcpus, platform, hv, rng);
  }
};

/// Evenly-partition comparison HV level.
class EvenPartitionHvPolicy final : public HvPolicy {
 public:
  std::string_view name() const override {
    return "even partitions, best-fit pack";
  }
  HvAllocResult allocate(std::span<const model::Vcpu> vcpus,
                         const model::PlatformSpec& platform,
                         const SolveConfig& cfg,
                         analysis::AnalysisContext& ctx,
                         util::Rng& rng) const override {
    (void)cfg;
    (void)ctx;
    (void)rng;
    return allocate_even_partition(vcpus, platform);
  }
};

/// Exhaustive-search HV level (yardstick; exponential — dies above
/// ExactConfig::max_vcpus VCPUs, so keep it out of large sweeps).
class ExactHvPolicy final : public HvPolicy {
 public:
  std::string_view name() const override {
    return "exact search (exponential; small instances only)";
  }
  HvAllocResult allocate(std::span<const model::Vcpu> vcpus,
                         const model::PlatformSpec& platform,
                         const SolveConfig& cfg,
                         analysis::AnalysisContext& ctx,
                         util::Rng& rng) const override {
    (void)cfg;
    (void)ctx;
    (void)rng;
    return allocate_exact(vcpus, platform, ExactConfig{});
  }
};

}  // namespace

StrategyRegistry::StrategyRegistry() {
  const auto flat_vm = std::make_shared<HeuristicVmPolicy>(
      VcpuAnalysis::kFlattening, "heuristic (Theorem 1 flattening)");
  const auto ovf_vm = std::make_shared<HeuristicVmPolicy>(
      VcpuAnalysis::kRegulated, "heuristic (Theorem 2 regulated)");
  const auto csa_vm = std::make_shared<HeuristicVmPolicy>(
      VcpuAnalysis::kExistingCsa, "heuristic (existing CSA)");
  const auto even_vm = std::make_shared<EvenPackVmPolicy>();
  const auto base_vm = std::make_shared<BaselinePackVmPolicy>();
  const auto heur_hv = std::make_shared<HeuristicHvPolicy>();
  const auto even_hv = std::make_shared<EvenPartitionHvPolicy>();

  add({"flat", "Heuristic (flattening)",
       "Theorem-1 flattened VCPUs, three-phase packing with max-gain grants",
       flat_vm, heur_hv});
  add({"ovf", "Heuristic (overhead-free CSA)",
       "Theorem-2 regulated VCPUs, three-phase packing with max-gain grants",
       ovf_vm, heur_hv});
  add({"existing", "Heuristic (existing CSA)",
       "Existing-CSA VCPU budgets, three-phase packing with max-gain grants",
       csa_vm, heur_hv});
  add({"even", "Evenly-partition (overhead-free CSA)",
       "Theorem-2 regulated VCPUs, best-fit cores with even partition split",
       even_vm, even_hv});
  add({"baseline", "Baseline (existing CSA)",
       "Existing-CSA VCPU budgets, best-fit cores with even partition split",
       base_vm, even_hv});
  add({"exact-ovf", "Exact search (overhead-free CSA)",
       "Theorem-2 regulated VCPUs, exhaustive core/partition search yardstick",
       ovf_vm, std::make_shared<ExactHvPolicy>()});
}

StrategyRegistry& StrategyRegistry::instance() {
  static StrategyRegistry registry;
  return registry;
}

const Strategy& StrategyRegistry::add(Strategy s) {
  VC2M_CHECK_MSG(!s.key.empty(), "strategy key must be non-empty");
  VC2M_CHECK_MSG(s.vm && s.hv,
                 "strategy '" << s.key << "' needs both a VM-level and a "
                                         "hypervisor-level policy");
  VC2M_CHECK_MSG(find(s.key) == nullptr,
                 "strategy '" << s.key << "' is already registered");
  entries_.push_back(std::make_unique<Strategy>(std::move(s)));
  return *entries_.back();
}

const Strategy* StrategyRegistry::find(std::string_view key) const {
  for (const auto& e : entries_)
    if (e->key == key) return e.get();
  return nullptr;
}

const Strategy& StrategyRegistry::require(std::string_view key) const {
  if (const Strategy* s = find(key)) return *s;
  std::string known;
  for (const auto& e : entries_) {
    if (!known.empty()) known += ", ";
    known += e->key;
  }
  VC2M_CHECK_MSG(false,
                 "unknown strategy '" << key << "' (known: " << known << ")");
  std::abort();  // unreachable
}

std::vector<const Strategy*> StrategyRegistry::all() const {
  std::vector<const Strategy*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

const std::vector<std::string>& default_solution_keys() {
  static const std::vector<std::string> kKeys = {"flat", "ovf", "existing",
                                                 "even", "baseline"};
  return kKeys;
}

SolveResult solve(const Strategy& strategy, const model::Taskset& tasks,
                  const model::PlatformSpec& platform, const SolveConfig& cfg,
                  util::Rng& rng) {
  VC2M_CHECK(!tasks.empty());
  VC2M_PROFILE_PHASE("solve");
  // Copy the taskset (WCET tables included) only to inflate it.
  std::optional<model::Taskset> inflated;
  if (!cfg.task_inflation.is_zero()) {
    inflated.emplace(tasks);
    analysis::inflate_tasks(*inflated, cfg.task_inflation);
  }
  const model::Taskset& charged = inflated ? *inflated : tasks;

  const auto t0 = std::chrono::steady_clock::now();
  SolveResult res;
  // Transient inner pool for single-solve callers that ask for intra-solve
  // parallelism without supplying a pool (experiment sweeps share one pool
  // across all solves instead). Declared before ctx so it outlives it.
  std::unique_ptr<util::ThreadPool> transient_pool;
  util::ThreadPool* inner_pool = cfg.inner_pool;
  const int inner_jobs = cfg.inner_jobs == 0
                             ? static_cast<int>(util::ThreadPool::hardware_workers())
                             : cfg.inner_jobs;
  if (inner_jobs > 1 && inner_pool == nullptr) {
    transient_pool = std::make_unique<util::ThreadPool>(
        static_cast<unsigned>(inner_jobs));
    inner_pool = transient_pool.get();
  }
  {
    analysis::AnalysisContext ctx;  // shared by both levels; owns counters
    ctx.set_inner_parallelism(inner_pool, inner_jobs);
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kSolveBegin;
      e.accepted = true;
      e.value = static_cast<double>(charged.size());
      log->emit(e);
    }
    auto vcpus = strategy.vm->allocate(charged, platform, cfg, ctx, rng);
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kVmOutcome;
      e.accepted = !vcpus.empty();
      if (vcpus.empty())
        e.constraint = obs::DecisionConstraint::kTaskOverflowsVcpu;
      e.value = static_cast<double>(vcpus.size());
      log->emit(e);
    }
    if (!vcpus.empty()) {  // empty = VM-level packing already failed
      analysis::inflate_vcpus(vcpus, cfg.vcpu_inflation);
      res.mapping = strategy.hv->allocate(vcpus, platform, cfg, ctx, rng);
      res.schedulable = res.mapping.schedulable;
      res.vcpus = std::move(vcpus);
    }
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kVerdict;
      e.accepted = res.schedulable;
      e.core = static_cast<std::int32_t>(res.mapping.cores_used);
      e.value = static_cast<double>(res.vcpus.size());
      log->emit(e);
    }
    res.counters = ctx.counters();
  }
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  return res;
}

SolveResult solve(std::string_view strategy_key, const model::Taskset& tasks,
                  const model::PlatformSpec& platform, const SolveConfig& cfg,
                  util::Rng& rng) {
  return solve(StrategyRegistry::instance().require(strategy_key), tasks,
               platform, cfg, rng);
}

}  // namespace vc2m::core

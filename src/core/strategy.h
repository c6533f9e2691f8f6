// The pluggable allocation engine: a solution is a named composition of a
// VM-level policy (tasks → VCPUs) and a hypervisor-level policy (VCPUs →
// cores + partitions), looked up in a string-keyed registry.
//
// The five §5 solutions are pre-registered compositions of three VM-level
// policies (Theorem-1 flattening, Theorem-2 regulated, existing-CSA — plus
// the two comparison packers) and two HV-level policies (three-phase
// heuristic, even-partition), with the exact search available as a third
// HV policy for yardstick runs. New strategies — e.g. multi-objective
// partitioning or bandwidth-reservation variants — register a Strategy at
// startup and immediately work everywhere a name is accepted: solve(),
// experiment sweeps, and the CLI (`vc2m solutions`, `--solutions`).
// docs/architecture.md has the full recipe.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/context.h"
#include "core/hv_alloc.h"
#include "model/platform.h"
#include "model/task.h"
#include "util/instrument.h"
#include "util/rng.h"
#include "util/time.h"

namespace vc2m::util {
class ThreadPool;
}

namespace vc2m::core {

struct SolveConfig {
  /// Slowdown classes for both clustering stages.
  std::size_t clusters = 4;
  HvAllocConfig hv;
  /// Intra-core overhead inflation (§4.1 Remarks); zero by default, as the
  /// paper's schedulability study abstracts measured overheads away.
  util::Time task_inflation = util::Time::zero();
  util::Time vcpu_inflation = util::Time::zero();
  /// Intra-solve parallelism for the min-budget surfaces: stripe count for
  /// AnalysisContext::min_budget_surface (1 = serial, 0 = hardware
  /// concurrency). Allocations AND effort counters are bit-identical at any
  /// value (docs/performance.md).
  int inner_jobs = 1;
  /// Pool the surfaces stripe over; borrowed, not owned. Must not be the
  /// pool whose worker invokes solve() (a surface pass blocks on its
  /// stripes).
  /// When null and inner_jobs != 1, solve() spins up a transient pool.
  util::ThreadPool* inner_pool = nullptr;
};

struct SolveResult {
  bool schedulable = false;
  std::vector<model::Vcpu> vcpus;
  HvAllocResult mapping;
  double seconds = 0;  ///< wall-clock analysis + allocation time
  /// What the allocator did: clustering effort, admission tests, dbf and
  /// budget evaluations, memoization hits, search coverage, per-phase wall
  /// time (src/obs reports these through the metrics registry).
  util::AllocCounters counters;
};

/// VM-level policy: turn one taskset into parameterized VCPUs. Policies are
/// stateless and shared between strategies; per-run state (memoized budget
/// surfaces, counters) lives in the AnalysisContext threaded through.
class VmPolicy {
 public:
  virtual ~VmPolicy() = default;
  virtual std::string_view name() const = 0;
  virtual std::vector<model::Vcpu> allocate(const model::Taskset& tasks,
                                            const model::PlatformSpec& platform,
                                            const SolveConfig& cfg,
                                            analysis::AnalysisContext& ctx,
                                            util::Rng& rng) const = 0;
  /// True when this policy's VCPUs release in lockstep with their task
  /// (Theorem-1 flattening): deployment then synchronizes VCPU release
  /// offsets with task releases (obs::audit sets release_sync from it).
  virtual bool release_sync() const { return false; }
};

/// Hypervisor-level policy: map VCPUs onto cores and pick per-core cache/BW
/// partition counts. Same sharing rules as VmPolicy; the incremental
/// per-core accounting both built-in policies use lives in core::CoreLoad.
class HvPolicy {
 public:
  virtual ~HvPolicy() = default;
  virtual std::string_view name() const = 0;
  virtual HvAllocResult allocate(std::span<const model::Vcpu> vcpus,
                                 const model::PlatformSpec& platform,
                                 const SolveConfig& cfg,
                                 analysis::AnalysisContext& ctx,
                                 util::Rng& rng) const = 0;
};

/// One registered solution: a named composition of the two levels.
struct Strategy {
  std::string key;      ///< registry key, e.g. "ovf"
  std::string display;  ///< paper name, e.g. "Heuristic (overhead-free CSA)"
  /// One-line summary shown by `vc2m solutions` — what the composition does,
  /// not how it is keyed.
  std::string description;
  std::shared_ptr<const VmPolicy> vm;
  std::shared_ptr<const HvPolicy> hv;
};

/// Process-wide strategy registry, pre-populated with the five §5 solutions
/// under their CLI names (flat, ovf, existing, even, baseline) plus the
/// exact-search yardstick (exact-ovf). Register additional strategies at
/// startup, before experiment worker threads start reading.
class StrategyRegistry {
 public:
  static StrategyRegistry& instance();

  /// Register a strategy (key must be unique and non-empty; both policies
  /// must be set). Returns the stored entry, whose address stays stable.
  const Strategy& add(Strategy s);

  const Strategy* find(std::string_view key) const;

  /// find() or die with the list of known keys.
  const Strategy& require(std::string_view key) const;

  /// All strategies in registration order (built-ins first).
  std::vector<const Strategy*> all() const;

 private:
  StrategyRegistry();
  std::vector<std::unique_ptr<Strategy>> entries_;
};

/// Run one strategy on one taskset — the engine entry point; the
/// registry-key overload is a thin wrapper over this.
/// Tasks must share the platform's resource grid; Theorem-2-based
/// strategies additionally require harmonic periods (guaranteed by the
/// §5.1 generator).
SolveResult solve(const Strategy& strategy, const model::Taskset& tasks,
                  const model::PlatformSpec& platform, const SolveConfig& cfg,
                  util::Rng& rng);

/// Registry lookup by key, then solve. Dies on an unknown key.
SolveResult solve(std::string_view strategy_key, const model::Taskset& tasks,
                  const model::PlatformSpec& platform, const SolveConfig& cfg,
                  util::Rng& rng);

/// The five paper solutions' registry keys, in the paper's legend order
/// (strongest first) — the default experiment sweep.
const std::vector<std::string>& default_solution_keys();

}  // namespace vc2m::core

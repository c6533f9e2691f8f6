// Lightweight allocator instrumentation counters.
//
// The analysis and allocation layers increment these counters while a
// collection scope is active (solve(), admit_vm(), the benches); with no
// scope the hooks are a single thread-local pointer test, so the hot paths
// stay effectively free when nobody is measuring. The observability layer
// (src/obs) converts a populated AllocCounters into registry metrics.
#pragma once

#include <cstdint>

namespace vc2m::util {

/// What the allocator actually did for one solve: clustering effort,
/// admission tests, demand-bound evaluations, search-space coverage and
/// per-phase wall time. All counters are cumulative over the scope.
struct AllocCounters {
  // KMeans clustering (VM level and hypervisor level).
  std::uint64_t kmeans_runs = 0;
  std::uint64_t kmeans_iterations = 0;
  /// Per run, Σ_c ‖centroid_c − mean of cluster c‖² after the last update
  /// step. It is not a convergence delta: it is nonzero only when an
  /// empty-cluster repair stole a point from a cluster whose centroid that
  /// step had already computed, leaving the centroid off its members' mean.
  double kmeans_final_shift = 0;

  // Schedulability / admission testing. The engine counts an admission
  // test in analysis::core_schedulable (the index-subset form),
  // core::CoreLoad::schedulable and core::CoreLoad::probe (one per probe,
  // however its verdict is reached), and one dbf evaluation per checkpoint
  // of each demand row analysis::AnalysisContext builds
  // (demand_from_counts, context.cpp). The test oracle's dbf() and
  // whole-set core_schedulable (tests/oracle/) count the same way, so
  // tests can compare. A Phase-2 grant costs one probe of the granted core
  // and a Phase-3 move one probe each of its two cores, so the HV search
  // counts one test per core state it reaches, not one per core per grant.
  std::uint64_t admission_tests = 0;    ///< Σ Θ/Π ≤ 1 core tests
  std::uint64_t admission_passed = 0;
  std::uint64_t dbf_evaluations = 0;    ///< dbf(t) evaluations

  // Memoization (analysis::AnalysisContext and core::CoreLoad).
  std::uint64_t budget_evaluations = 0;  ///< min-budget searches performed
  std::uint64_t budget_cache_hits = 0;   ///< budgets served from the memo
  /// CoreLoad answers served from its caches: a Σ Θ/Π sum, a
  /// materialized demand or a fallback verdict.
  std::uint64_t load_cache_hits = 0;

  // Hypervisor-level search coverage.
  std::uint64_t candidate_packings = 0;  ///< Phase-1 packings explored
  std::uint64_t partition_grants = 0;    ///< Phase-2 cache/BW grants
  std::uint64_t vcpu_migrations = 0;     ///< Phase-3 moves

  // SoA / arena / intra-solve-parallel kernels (analysis fast path). All
  // three are deterministic at any --jobs / --inner-jobs: arena_bytes counts
  // rounded allocation *requests* (a pure function of the work, unlike
  // high-water marks), soa_rebuilds counts checkpoint streams built (one
  // per (Π, periods) group that needs one), inner_tasks counts min-budget
  // cells computed by surface passes whether they ran serially or striped
  // over the pool.
  std::uint64_t arena_bytes = 0;    ///< bytes served by scratch arenas
  std::uint64_t soa_rebuilds = 0;   ///< checkpoint stream builds
  std::uint64_t inner_tasks = 0;    ///< surface min-budget cells computed

  // Per-phase wall time (seconds).
  double vm_alloc_seconds = 0;
  double hv_alloc_seconds = 0;

  void merge(const AllocCounters& o) {
    kmeans_runs += o.kmeans_runs;
    kmeans_iterations += o.kmeans_iterations;
    kmeans_final_shift += o.kmeans_final_shift;
    admission_tests += o.admission_tests;
    admission_passed += o.admission_passed;
    dbf_evaluations += o.dbf_evaluations;
    budget_evaluations += o.budget_evaluations;
    budget_cache_hits += o.budget_cache_hits;
    load_cache_hits += o.load_cache_hits;
    candidate_packings += o.candidate_packings;
    partition_grants += o.partition_grants;
    vcpu_migrations += o.vcpu_migrations;
    arena_bytes += o.arena_bytes;
    soa_rebuilds += o.soa_rebuilds;
    inner_tasks += o.inner_tasks;
    vm_alloc_seconds += o.vm_alloc_seconds;
    hv_alloc_seconds += o.hv_alloc_seconds;
  }
};

namespace detail {
inline thread_local AllocCounters* g_alloc_counters = nullptr;
}

/// The active collector, or nullptr when no scope is open. Instrumented
/// code uses `if (auto* c = alloc_counters()) ++c->...;`.
inline AllocCounters* alloc_counters() { return detail::g_alloc_counters; }

/// RAII collection scope. Scopes nest: an inner scope shadows the outer
/// one and merges its counts into it on destruction, so a caller measuring
/// a whole experiment still sees the totals of nested solves.
class AllocCounterScope {
 public:
  AllocCounterScope() : prev_(detail::g_alloc_counters) {
    detail::g_alloc_counters = &counters_;
  }
  ~AllocCounterScope() {
    detail::g_alloc_counters = prev_;
    if (prev_) prev_->merge(counters_);
  }
  AllocCounterScope(const AllocCounterScope&) = delete;
  AllocCounterScope& operator=(const AllocCounterScope&) = delete;

  const AllocCounters& counters() const { return counters_; }

 private:
  AllocCounters counters_;
  AllocCounters* prev_;
};

}  // namespace vc2m::util

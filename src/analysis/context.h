// Shared memoization context for one allocation run.
//
// Both allocation levels (vm_alloc, hv_alloc) and the online paths
// (admission, exact search) ask the same analysis questions repeatedly: the
// existing-CSA minimum budget for a task group at a grid point, and the
// effort counters everything reports through. An AnalysisContext is created
// once per run (one solve(), one admission decision), threaded through both
// levels, and memoizes those answers — so a budget computed while
// parameterizing a VCPU is never re-derived by a later stage asking for the
// identical (period, taskset) pair.
//
// The memo is bit-identity-preserving: a hit returns exactly the value
// analysis::min_budget_edf produces for the identical key. It is one
// node-stable map from a (Π, periods) group to that group's state
// (docs/performance.md, "Layer 1b"):
//  - the group's dbf checkpoint stream up to lcm(hyperperiod, Π), built
//    lazily and only once a query with U ≤ 1 needs it, then shared by every
//    wcet surface (grid cell) of the group;
//  - a flat open-addressed table from the group's wcet tuples to Θ.
// min_budget_batch() answers a whole min-budget surface in one call: it
// resolves the group once per run of equal periods, hashes only the wcets,
// allocates nothing per query, and optionally stripes the exact budget
// computations over a thread pool with a serial-order reduction, so results
// *and* AllocCounters are bit-identical at any inner-jobs count. Scratch
// (demand curves, per-cell task views, packing work arrays) comes from a
// per-solve bump Arena.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/dbf.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/instrument.h"
#include "util/time.h"

namespace vc2m::util {
class ThreadPool;
}

namespace vc2m::analysis {

class AnalysisContext {
 public:
  /// Opens an AllocCounterScope: every instrumented call made while this
  /// context is alive lands in counters() (and merges into any enclosing
  /// scope on destruction). Use on one thread only (min_budget_batch may
  /// fan work out to a configured pool, but the context API itself is
  /// single-caller).
  AnalysisContext() = default;
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  /// Memoized analysis::min_budget_edf, computed by min_budget_on_curve.
  std::optional<util::Time> min_budget(std::span<const PTask> tasks,
                                       util::Time period);

  /// One query of a min-budget surface batch. `searched` is true when this
  /// query computed a fresh budget (a memo miss — exactly the queries for
  /// which a serial ctx.min_budget() sequence would have emitted a
  /// kBudgetSearch decision event; use emit_budget_search() to reproduce
  /// it).
  struct BatchResult {
    std::optional<util::Time> theta;
    bool searched = false;
  };

  /// Answer `queries` (task groups sharing the VCPU period Π) exactly as a
  /// serial loop of min_budget(queries[j], period) would — same memo
  /// hit/miss pattern, same budget_evaluations/budget_cache_hits, same
  /// minima, same soa_rebuilds — with duplicate queries coalesced and the
  /// distinct computations optionally striped over the pool configured via
  /// set_inner_parallelism(). Counters from striped work are merged in
  /// job-index order on the calling thread, so AllocCounters totals are
  /// bit-identical at any inner-jobs value (docs/performance.md spells out
  /// the determinism contract). If the batch throws (checkpoint cap, lcm
  /// overflow), none of its queries stay memoized. Emits no decision
  /// events; the caller replays them in cell order to keep event streams
  /// identical too.
  std::vector<BatchResult> min_budget_batch(
      std::span<const std::span<const PTask>> queries, util::Time period);

  /// Emit the kBudgetSearch decision event a serial min_budget(tasks,
  /// period) miss would have emitted for this outcome (no-op when no
  /// decision log is active).
  static void emit_budget_search(std::span<const PTask> tasks,
                                 util::Time period,
                                 const std::optional<util::Time>& theta);

  /// Configure intra-solve parallelism for min_budget_batch: stripe the
  /// per-cell computations over `pool` with `jobs` stripes. `pool` is borrowed
  /// and must not be the pool whose worker is calling the batch (the batch
  /// blocks until its stripes finish). jobs <= 1 or a null pool means
  /// serial. Results and counters do not depend on the setting.
  void set_inner_parallelism(util::ThreadPool* pool, int jobs) {
    inner_pool_ = pool;
    inner_jobs_ = jobs;
  }

  /// Telemetry correlation: the id of the service request this context is
  /// solving for (-1 = not request-scoped). Purely informational — nothing
  /// in the analysis reads it; the admission layer stamps it so span-level
  /// tooling can attribute a context's counters to one request.
  void set_request_id(std::int64_t id) { request_id_ = id; }
  std::int64_t request_id() const { return request_id_; }

  /// The per-solve scratch arena. Callers may draw scratch from it under an
  /// Arena::Scope mark; everything is reclaimed when the context dies.
  util::Arena& arena() { return arena_; }

  /// The effort counters collected so far by this context's scope.
  const util::AllocCounters& counters() const { return scope_.counters(); }

 private:
  /// Flat open-addressed map from one group's wcet tuples (raw ns, in task
  /// order) to a memo value. Entries are dense in insertion order; the slot
  /// array (linear probing, load ≤ 1/2) holds entry index + 1, 0 = empty.
  /// pop_back() removes the newest entry exactly, which is how a failed
  /// batch rolls its in-flight entries back.
  class BudgetTable {
   public:
    static constexpr std::uint32_t kAbsent = UINT32_MAX;

    explicit BudgetTable(std::size_t width) : width_(width) {}

    /// Entry index of the query's wcet tuple, or kAbsent.
    std::uint32_t find(std::span<const PTask> tasks, std::uint64_t hash) const;
    /// Append an entry for a tuple find() reported absent.
    std::uint32_t insert(std::span<const PTask> tasks, std::uint64_t hash,
                         std::int64_t value);
    void pop_back();
    std::int64_t& value(std::uint32_t entry) { return values_[entry]; }

   private:
    std::size_t slot_of(std::uint64_t hash) const {
      return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void grow();

    std::size_t width_;                 ///< tasks per tuple
    std::vector<std::int64_t> wcets_;   ///< width_ words per entry
    std::vector<std::int64_t> values_;  ///< one per entry
    std::vector<std::uint64_t> hashes_; ///< one per entry (for rehash)
    std::vector<std::uint32_t> slots_;  ///< power-of-two sized
    int shift_ = 64;                    ///< 64 − log2(slots_.size())
  };

  /// Memo values in a BudgetTable: Θ in raw ns (≥ 0), kNoBudget for "no
  /// feasible budget", or pending(j) while job j of the running batch is
  /// in flight.
  static constexpr std::int64_t kNoBudget = -1;
  static constexpr std::int64_t pending(std::size_t job) {
    return -2 - static_cast<std::int64_t>(job);
  }

  /// One (Π, periods) group.
  struct Group {
    explicit Group(std::span<const std::int64_t> key)
        : period(util::Time::ns(key[0])),
          periods(key.begin() + 1, key.end()),
          budgets(key.size() - 1) {}

    util::Time period;                  ///< Π
    std::vector<std::int64_t> periods;  ///< p_i in query order
    bool has_points = false;
    std::vector<util::Time> points;  ///< checkpoint stream, iff has_points
    BudgetTable budgets;
  };

  /// util::word_hash over a group key [Π, p_0, p_1, ...].
  struct KeyHash {
    std::size_t operator()(const std::vector<std::int64_t>& key) const {
      return static_cast<std::size_t>(util::word_hash(key));
    }
  };

  /// Find or create the group of (tasks' periods, Π).
  Group& group_for(std::span<const PTask> tasks, util::Time period);

  /// Build the group's checkpoint stream unless it has one. Serial only
  /// (called before any striped dispatch). Counts soa_rebuilds on build.
  void ensure_points(Group& g, std::span<const PTask> tasks);

  /// The exact minimum budget (no memo, no events): demand computed once
  /// over the group's checkpoints, then min_budget_on_curve. `scratch`
  /// backs the wcet/demand columns. Equals min_budget_edf(tasks, Π).
  static std::optional<util::Time> compute_min_budget(
      std::span<const PTask> tasks, const Group& g, double total_util,
      util::Arena& scratch);

  /// Node-stable: Group references survive rehashes.
  std::unordered_map<std::vector<std::int64_t>, Group, KeyHash> groups_;
  std::vector<std::int64_t> key_;  ///< group lookup scratch
  util::Arena arena_;
  util::ThreadPool* inner_pool_ = nullptr;
  int inner_jobs_ = 1;
  std::int64_t request_id_ = -1;
  util::AllocCounterScope scope_;
};

}  // namespace vc2m::analysis

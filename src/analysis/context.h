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
// the reference min_budget_edf (tests/oracle/prm.h) produces for the
// identical key. It is one node-stable map from a (Π, periods) group to
// that group's state (docs/performance.md, "Layer 1b"):
//  - the group's dbf checkpoint stream up to lcm(hyperperiod, Π) and its
//    K × n job-count matrix ⌊t_k/p_i⌋, built lazily and only once a query
//    with U ≤ 1 needs them, then shared by every wcet surface (grid cell)
//    of the group: a cell's demand at t_k is Σ_i cnt[k][i]·e_i;
//  - a flat open-addressed table from the group's wcet tuples to Θ.
// min_budget_surface() answers a whole min-budget surface of one group in
// one pass over the tasks' wcet columns: it resolves the group once,
// grows the memo at most once, hashes only the wcets, allocates nothing per
// cell, and optionally stripes the exact budget computations over a thread
// pool with a serial-order reduction, so results *and* AllocCounters are
// bit-identical at any inner-jobs count. Scratch (demand rows, per-surface
// job tables) comes from a per-solve bump Arena.
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
  /// scope on destruction). Use on one thread only (min_budget_surface may
  /// fan work out to a configured pool, but the context API itself is
  /// single-caller).
  AnalysisContext() = default;
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  /// The PRM minimum budget of `tasks` at Π = `period` (nullopt if even a
  /// dedicated core misses), memoized; computed by min_budget_on_curve.
  std::optional<util::Time> min_budget(std::span<const PTask> tasks,
                                       util::Time period);

  /// One task of a min-budget surface: its period and its wcet in every
  /// cell, e.g. a model::WcetFn's flat() column.
  struct SurfaceTask {
    util::Time period;
    std::span<const util::Time> wcets;
  };

  /// One cell of a min-budget surface. `searched` is true when this cell
  /// computed a fresh budget (a memo miss — exactly the cells for which a
  /// serial ctx.min_budget() loop would have emitted a kBudgetSearch
  /// decision event; use emit_budget_search() to reproduce it).
  struct SurfaceCell {
    std::optional<util::Time> theta;
    bool searched = false;
  };

  /// Answer one group's min-budget surface: cell j's tasks are
  /// (tasks[i].period, tasks[i].wcets[j]) and its answer goes to out[j];
  /// every column has out.size() entries. Same as a serial loop of
  /// min_budget() over the cells in index order — same memo hit/miss
  /// pattern, same budget_evaluations/budget_cache_hits, same minima, same
  /// soa_rebuilds and dbf_evaluations — with duplicate cells coalesced and
  /// the distinct computations optionally striped over the pool configured
  /// via set_inner_parallelism(). Counters from striped work are merged in
  /// job-index order on the calling thread, so AllocCounters totals are
  /// bit-identical at any inner-jobs value (docs/performance.md spells out
  /// the determinism contract). If the pass throws (checkpoint cap, lcm
  /// overflow), none of its cells stay memoized. Emits no decision events;
  /// the caller replays them in cell order to keep event streams identical
  /// too.
  void min_budget_surface(std::span<const SurfaceTask> tasks,
                          util::Time period, std::span<SurfaceCell> out);

  /// Emit the kBudgetSearch decision event a serial min_budget() miss would
  /// have emitted for this outcome (no-op when no decision log is active).
  /// `total_util` is total_utilization() of the cell's tasks; it is read
  /// only when `theta` is empty.
  static void emit_budget_search(util::Time period,
                                 const std::optional<util::Time>& theta,
                                 double total_util);

  /// Configure intra-solve parallelism for min_budget_surface: stripe the
  /// per-cell computations over `pool` with `jobs` stripes. `pool` is
  /// borrowed and must not be the pool whose worker is calling the surface
  /// pass (the pass blocks until its stripes finish). jobs <= 1 or a null
  /// pool means serial. Results and counters do not depend on the setting.
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
  /// surface pass rolls its in-flight entries back.
  class BudgetTable {
   public:
    static constexpr std::uint32_t kAbsent = UINT32_MAX;

    explicit BudgetTable(std::size_t width) : width_(width) {}

    /// Make room for `more` entries beyond the current ones, so that many
    /// inserts rehash at most once. Capacity grows at least geometrically.
    void reserve(std::size_t more);
    /// Entry index of the wcet tuple `key` (one word per task), or kAbsent.
    std::uint32_t find(const std::int64_t* key, std::uint64_t hash) const;
    /// Append an entry for a tuple find() reported absent.
    std::uint32_t insert(const std::int64_t* key, std::uint64_t hash,
                         std::int64_t value);
    void pop_back();
    std::int64_t& value(std::uint32_t entry) { return values_[entry]; }
    /// The entry's wcet tuple; stable until the next insert or pop_back.
    const std::int64_t* key(std::uint32_t entry) const {
      return wcets_.data() + entry * width_;
    }

   private:
    std::size_t slot_of(std::uint64_t hash) const {
      return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    void rehash(std::size_t slots);

    std::size_t width_;                 ///< tasks per tuple
    std::vector<std::int64_t> wcets_;   ///< width_ words per entry
    std::vector<std::int64_t> values_;  ///< one per entry
    std::vector<std::uint64_t> hashes_; ///< one per entry (for rehash)
    std::vector<std::uint32_t> slots_;  ///< power-of-two sized
    int shift_ = 64;                    ///< 64 − log2(slots_.size())
  };

  /// Memo values in a BudgetTable: Θ in raw ns (≥ 0), kNoBudget for "no
  /// feasible budget", or pending(j) while job j of the running surface
  /// pass is in flight.
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
    /// The checkpoint stream t_k, the row-major job counts
    /// counts[k·n + i] = ⌊t_k/p_i⌋, and t_k split by Π: ⌊t_k/Π⌋ in
    /// split[k], t_k mod Π in split[K + k]; iff has_points. A count is at
    /// most the stream's pre-dedup size, which kDbfCheckpointCap bounds.
    std::vector<util::Time> points;
    std::vector<std::uint32_t> counts;
    std::vector<std::int64_t> split;
    BudgetTable budgets;
  };

  /// util::word_hash over a group key [Π, p_0, p_1, ...].
  struct KeyHash {
    std::size_t operator()(const std::vector<std::int64_t>& key) const {
      return static_cast<std::size_t>(util::word_hash(key));
    }
  };

  /// Find or create the group of (tasks' periods, Π). `Task` is PTask or
  /// SurfaceTask.
  template <class Task>
  Group& group_for(std::span<const Task> tasks, util::Time period);

  /// Build the group's checkpoint stream and job counts unless it has them.
  /// Serial only (called before any striped dispatch). Counts soa_rebuilds
  /// on build.
  void ensure_points(Group& g);

  /// The exact minimum budget (no memo, no events) of the group's tasks at
  /// `wcets` (one per task), as a memo value: demand from the job counts,
  /// then min_budget_on_curve. `scratch` backs the demand row. Equals
  /// min_budget_edf(tasks, Π).
  static std::int64_t compute_min_budget(const Group& g,
                                         const std::int64_t* wcets,
                                         double total_util,
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

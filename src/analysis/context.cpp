#include "analysis/context.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>

#include "analysis/prm.h"
#include "obs/decision_log.h"
#include "util/phase_profiler.h"
#include "util/thread_pool.h"

namespace vc2m::analysis {

namespace {

std::optional<util::Time> decode(std::int64_t v) {
  if (v < 0) return std::nullopt;
  return util::Time::ns(v);
}

/// total_utilization() of the tasks (periods[i], wcets[i]): the same
/// expression as Time::ratio, summed in task order, so bit-identical.
double utilization(std::span<const std::int64_t> periods,
                   const std::int64_t* wcets) {
  double u = 0;
  for (std::size_t i = 0; i < periods.size(); ++i)
    u += static_cast<double>(wcets[i]) / static_cast<double>(periods[i]);
  return u;
}

/// Demand at each checkpoint from the job counts: out[k] = Σ_i
/// counts[k·n + i]·wcets[i], which is dbf(t_k). Counts one dbf evaluation
/// per point, as the reference does.
void demand_from_counts(std::span<const std::uint32_t> counts,
                        const std::int64_t* wcets, std::size_t n,
                        std::span<util::Time> out) {
  if (auto* ctr = util::alloc_counters()) ctr->dbf_evaluations += out.size();
  const std::uint32_t* row = counts.data();
  for (std::size_t k = 0; k < out.size(); ++k, row += n) {
    std::int64_t d = 0;
    for (std::size_t i = 0; i < n; ++i)
      d += static_cast<std::int64_t>(row[i]) * wcets[i];
    out[k] = util::Time::ns(d);
  }
}

}  // namespace

void AnalysisContext::emit_budget_search(
    util::Time period, const std::optional<util::Time>& theta,
    double total_util) {
  auto* log = obs::decision_log();
  if (!log) return;
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kBudgetSearch;
  if (theta) {
    e.accepted = true;
    e.value = theta->ratio(period);
    e.margin = 1.0 - e.value;
  } else {
    e.constraint = obs::DecisionConstraint::kNoFeasibleBudget;
    e.value = total_util;
    e.margin = std::max(0.0, total_util - 1.0);
  }
  log->emit(e);
}

// ---------------------------------------------------------- BudgetTable --

void AnalysisContext::BudgetTable::reserve(std::size_t more) {
  const std::size_t entries = values_.size() + more;
  if (entries > values_.capacity()) {
    const std::size_t cap = std::max(entries, 2 * values_.capacity());
    wcets_.reserve(cap * width_);
    values_.reserve(cap);
    hashes_.reserve(cap);
  }
  if (2 * entries > slots_.size()) rehash(std::bit_ceil(2 * entries));
}

std::uint32_t AnalysisContext::BudgetTable::find(const std::int64_t* key,
                                                 std::uint64_t hash) const {
  if (slots_.empty()) return kAbsent;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = slot_of(hash);; s = (s + 1) & mask) {
    const std::uint32_t ref = slots_[s];
    if (ref == 0) return kAbsent;
    const std::uint32_t e = ref - 1;
    if (hashes_[e] != hash) continue;
    if (std::equal(key, key + width_, wcets_.data() + e * width_)) return e;
  }
}

std::uint32_t AnalysisContext::BudgetTable::insert(const std::int64_t* key,
                                                   std::uint64_t hash,
                                                   std::int64_t value) {
  if (2 * (values_.size() + 1) > slots_.size())
    rehash(slots_.empty() ? 16 : 2 * slots_.size());
  const auto e = static_cast<std::uint32_t>(values_.size());
  wcets_.insert(wcets_.end(), key, key + width_);
  values_.push_back(value);
  hashes_.push_back(hash);
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = slot_of(hash);
  while (slots_[s] != 0) s = (s + 1) & mask;
  slots_[s] = e + 1;
  return e;
}

void AnalysisContext::BudgetTable::pop_back() {
  // Linear probing without deletions: the newest entry ends every probe
  // chain it sits on, so clearing its slot leaves all older chains intact.
  const auto e = static_cast<std::uint32_t>(values_.size() - 1);
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = slot_of(hashes_[e]);
  while (slots_[s] != e + 1) s = (s + 1) & mask;
  slots_[s] = 0;
  wcets_.resize(e * width_);
  values_.pop_back();
  hashes_.pop_back();
}

void AnalysisContext::BudgetTable::rehash(std::size_t slots) {
  slots_.assign(slots, 0);
  shift_ = 64 - std::countr_zero(slots);
  // Re-insert in entry order, so the table is as if built in that order.
  const std::size_t mask = slots - 1;
  for (std::uint32_t e = 0; e < values_.size(); ++e) {
    std::size_t s = slot_of(hashes_[e]);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = e + 1;
  }
}

// -------------------------------------------------------------- groups ----

template <class Task>
AnalysisContext::Group& AnalysisContext::group_for(std::span<const Task> tasks,
                                                   util::Time period) {
  key_.clear();
  key_.push_back(period.raw_ns());
  for (const auto& t : tasks) key_.push_back(t.period.raw_ns());
  const auto it = groups_.find(key_);
  if (it != groups_.end()) return it->second;
  return groups_.emplace(key_, Group(key_)).first->second;
}

void AnalysisContext::ensure_points(Group& g) {
  if (g.has_points) return;
  VC2M_PROFILE_PHASE("checkpoints");
  if (auto* ctr = util::alloc_counters()) ++ctr->soa_rebuilds;
  util::Time hyper = util::Time::ns(1);
  for (const std::int64_t p : g.periods)
    hyper = util::lcm(hyper, util::Time::ns(p));
  // The merge checks the periods and yields strictly ascending positive
  // points, so the counts below, and every demand row computed from them,
  // need no further checks. Each count is at most the merge's pre-dedup
  // size, which the merge caps.
  static_assert(kDbfCheckpointCap <= UINT32_MAX);
  merge_checkpoints(g.periods, util::lcm(hyper, g.period), g.points);
  const std::size_t n = g.periods.size(), points = g.points.size();
  const std::int64_t pi = g.period.raw_ns();
  g.counts.resize(points * n);
  g.split.resize(2 * points);
  for (std::size_t k = 0; k < points; ++k) {
    const std::int64_t t = g.points[k].raw_ns();
    for (std::size_t i = 0; i < n; ++i)
      g.counts[k * n + i] = static_cast<std::uint32_t>(t / g.periods[i]);
    g.split[k] = t / pi;
    g.split[points + k] = t % pi;
  }
  g.has_points = true;
}

std::int64_t AnalysisContext::compute_min_budget(const Group& g,
                                                 const std::int64_t* wcets,
                                                 double total_util,
                                                 util::Arena& scratch) {
  // Mirrors min_budget_edf's early-outs exactly; when neither fires the
  // caller has built the group's stream (over-utilized groups never build
  // one, matching the reference path's order of operations).
  if (g.periods.empty()) return 0;
  if (total_util > 1.0 + 1e-12) return kNoBudget;

  util::Arena::Scope mark(scratch);
  const std::size_t points = g.points.size();
  auto demand = scratch.alloc_array<util::Time>(points);
  demand_from_counts(g.counts, wcets, g.periods.size(), demand);
  const std::span<const std::int64_t> quot(g.split.data(), points),
      rem(g.split.data() + points, points);
  const auto theta = min_budget_on_curve(
      DemandCurve{g.points, demand, quot, rem}, total_util, g.period);
  return theta ? theta->raw_ns() : kNoBudget;
}

// ------------------------------------------------------------- queries ----

std::optional<util::Time> AnalysisContext::min_budget(
    std::span<const PTask> tasks, util::Time period) {
  Group& g = group_for(tasks, period);
  util::Arena::Scope mark(arena_);
  auto tuple = arena_.alloc_array<std::int64_t>(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    tuple[i] = tasks[i].wcet.raw_ns();
  const std::uint64_t hash = util::word_hash(tuple);
  if (const auto e = g.budgets.find(tuple.data(), hash);
      e != BudgetTable::kAbsent) {
    if (auto* ctr = util::alloc_counters()) ++ctr->budget_cache_hits;
    return decode(g.budgets.value(e));
  }

  if (auto* ctr = util::alloc_counters()) ++ctr->budget_evaluations;
  VC2M_PROFILE_PHASE("min_budget");
  const double u = total_utilization(tasks);
  if (!tasks.empty() && u <= 1.0 + 1e-12) ensure_points(g);
  const std::int64_t v = compute_min_budget(g, tuple.data(), u, arena_);
  emit_budget_search(period, decode(v), u);
  g.budgets.insert(tuple.data(), hash, v);
  return decode(v);
}

void AnalysisContext::min_budget_surface(std::span<const SurfaceTask> tasks,
                                         util::Time period,
                                         std::span<SurfaceCell> out) {
  const std::size_t cells = out.size();
  for (const auto& t : tasks)
    VC2M_CHECK_MSG(t.wcets.size() == cells,
                   "surface column has " << t.wcets.size() << " cells, not "
                                         << cells);
  if (cells == 0) return;
  VC2M_CHECK(cells < UINT32_MAX);
  VC2M_PROFILE_PHASE("min_budget_surface");
  Group& g = group_for(tasks, period);
  const std::size_t n = tasks.size();

  // One distinct, unmemoized cell. Its memo entry holds pending(job) until
  // the pass commits, so later duplicates alias it.
  struct Job {
    std::uint32_t cell;   ///< first cell asking this key
    std::uint32_t entry;  ///< its BudgetTable entry
    double util;
    std::int64_t value;   ///< the computed memo value
  };
  util::Arena::Scope mark(arena_);
  auto jobs = arena_.alloc_array<Job>(cells);
  auto job_of = arena_.alloc_array<std::uint32_t>(cells);
  std::uint32_t njobs = 0;
  constexpr std::uint32_t kNoJob = UINT32_MAX;

  // Serial pass 1 — memo and duplicate resolution, with counter semantics
  // identical to a serial min_budget() loop over the cells: fresh key →
  // budget_evaluations, repeated or memoized key → budget_cache_hits.
  auto* ctr = util::alloc_counters();
  auto tuple = arena_.alloc_array<std::int64_t>(n);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    for (std::size_t i = 0; i < n; ++i)
      tuple[i] = tasks[i].wcets[cell].raw_ns();
    const std::uint64_t hash = util::word_hash(tuple);
    job_of[cell] = kNoJob;
    if (const auto e = g.budgets.find(tuple.data(), hash);
        e != BudgetTable::kAbsent) {
      if (ctr) ++ctr->budget_cache_hits;
      const std::int64_t v = g.budgets.value(e);
      if (v <= pending(0))
        job_of[cell] = static_cast<std::uint32_t>(pending(0) - v);
      else
        out[cell] = SurfaceCell{decode(v), false};
      continue;
    }
    if (ctr) ++ctr->budget_evaluations;
    // Room for every cell still to come, so the table grows at most once
    // per surface, and not at all when every cell hits.
    if (njobs == 0) g.budgets.reserve(cells - cell);
    job_of[cell] = njobs;
    const std::uint32_t entry =
        g.budgets.insert(tuple.data(), hash, pending(njobs));
    std::construct_at(&jobs[njobs++],
                      Job{static_cast<std::uint32_t>(cell), entry,
                          utilization(g.periods, tuple.data()), kNoBudget});
  }
  const auto work = jobs.first(njobs);

  if (!work.empty()) {
    if (ctr) ctr->inner_tasks += work.size();
    try {
      // Serial pass 2 — the group's stream and counts. The build (and any
      // lcm-overflow / checkpoint-cap failure it raises) happens here,
      // never on a worker, and only if some job has U ≤ 1, like the
      // reference path.
      if (n > 0 && std::any_of(work.begin(), work.end(), [](const Job& j) {
            return j.util <= 1.0 + 1e-12;
          }))
        ensure_points(g);

      const std::size_t stripes =
          (inner_pool_ != nullptr && inner_jobs_ > 1)
              ? std::min<std::size_t>(static_cast<std::size_t>(inner_jobs_),
                                      work.size())
              : 1;
      if (stripes <= 1) {
        // Serial compute: counters land directly in the context scope, in
        // job order — the baseline the striped path reproduces.
        for (auto& job : work)
          job.value = compute_min_budget(g, g.budgets.key(job.entry),
                                         job.util, arena_);
      } else {
        // Striped compute: job j runs on stripe j % stripes. Each stripe
        // has its own arena (arenas are single-threaded) and each job its
        // own counter scope (null parent on a pool worker, so nothing
        // merges implicitly); the slots are merged below on the calling
        // thread. Every counter a job touches is a uint64 add, so the
        // totals are bit-identical to the serial path regardless of stripe
        // count. Workers only read the group: its stream, counts and memo
        // keys are complete, and memo values are written after the join.
        //
        // The pass waits on its own latch, not ThreadPool::wait(): pool
        // tasks must not call wait(), and the pool may be shared by
        // surface passes of concurrently running solves.
        std::vector<util::Arena> stripe_arenas(stripes);
        std::vector<util::AllocCounters> job_counters(work.size());
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = stripes;
        std::exception_ptr error;
        for (std::size_t s = 0; s < stripes; ++s) {
          inner_pool_->submit([&, s] {
            try {
              for (std::size_t j = s; j < work.size(); j += stripes) {
                util::AllocCounterScope scope;
                work[j].value =
                    compute_min_budget(g, g.budgets.key(work[j].entry),
                                       work[j].util, stripe_arenas[s]);
                job_counters[j] = scope.counters();
              }
            } catch (...) {
              const std::lock_guard<std::mutex> lk(mu);
              if (!error) error = std::current_exception();
            }
            {
              // Notify while still holding the mutex: the waiter cannot
              // return from wait() (and destroy cv/mu/the arenas) until
              // this unlock, so the notify never touches a dead condvar.
              const std::lock_guard<std::mutex> lk(mu);
              --remaining;
              cv.notify_one();
            }
          });
        }
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return remaining == 0; });
        lk.unlock();
        if (error) std::rethrow_exception(error);
        if (ctr)
          for (const auto& c : job_counters) ctr->merge(c);
      }
    } catch (...) {
      // Newest first, so each pop removes the table's newest entry.
      for (std::size_t j = work.size(); j-- > 0;) g.budgets.pop_back();
      throw;
    }
    for (const auto& job : work) g.budgets.value(job.entry) = job.value;
  }

  for (std::size_t cell = 0; cell < cells; ++cell)
    if (job_of[cell] != kNoJob)
      out[cell] = SurfaceCell{decode(work[job_of[cell]].value),
                              cell == work[job_of[cell]].cell};
}

}  // namespace vc2m::analysis

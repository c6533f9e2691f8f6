#include "analysis/context.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <exception>
#include <mutex>

#include "analysis/prm.h"
#include "obs/decision_log.h"
#include "util/phase_profiler.h"
#include "util/thread_pool.h"

namespace vc2m::analysis {

namespace {

/// Hash of a query's wcet tuple (the group fixes everything else).
std::uint64_t wcet_hash(std::span<const PTask> tasks) {
  util::WordHash h;
  for (const auto& t : tasks)
    h.add(static_cast<std::uint64_t>(t.wcet.raw_ns()));
  return h.value();
}

std::optional<util::Time> decode(std::int64_t v) {
  if (v < 0) return std::nullopt;
  return util::Time::ns(v);
}

}  // namespace

void AnalysisContext::emit_budget_search(
    std::span<const PTask> tasks, util::Time period,
    const std::optional<util::Time>& theta) {
  auto* log = obs::decision_log();
  if (!log) return;
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kBudgetSearch;
  if (theta) {
    e.accepted = true;
    e.value = theta->ratio(period);
    e.margin = 1.0 - e.value;
  } else {
    double u = 0;
    for (const auto& t : tasks) u += t.wcet.ratio(t.period);
    e.constraint = obs::DecisionConstraint::kNoFeasibleBudget;
    e.value = u;
    e.margin = std::max(0.0, u - 1.0);
  }
  log->emit(e);
}

// ---------------------------------------------------------- BudgetTable --

std::uint32_t AnalysisContext::BudgetTable::find(std::span<const PTask> tasks,
                                                 std::uint64_t hash) const {
  if (slots_.empty()) return kAbsent;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = slot_of(hash);; s = (s + 1) & mask) {
    const std::uint32_t ref = slots_[s];
    if (ref == 0) return kAbsent;
    const std::uint32_t e = ref - 1;
    if (hashes_[e] != hash) continue;
    const std::int64_t* w = wcets_.data() + e * width_;
    std::size_t i = 0;
    while (i < width_ && w[i] == tasks[i].wcet.raw_ns()) ++i;
    if (i == width_) return e;
  }
}

std::uint32_t AnalysisContext::BudgetTable::insert(
    std::span<const PTask> tasks, std::uint64_t hash, std::int64_t value) {
  if (2 * (values_.size() + 1) > slots_.size()) grow();
  const auto e = static_cast<std::uint32_t>(values_.size());
  for (const auto& t : tasks) wcets_.push_back(t.wcet.raw_ns());
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

void AnalysisContext::BudgetTable::grow() {
  const std::size_t cap = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(cap, 0);
  shift_ = 64 - std::countr_zero(cap);
  // Re-insert in entry order, so the table is as if built in that order.
  const std::size_t mask = cap - 1;
  for (std::uint32_t e = 0; e < values_.size(); ++e) {
    std::size_t s = slot_of(hashes_[e]);
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = e + 1;
  }
}

// -------------------------------------------------------------- groups ----

AnalysisContext::Group& AnalysisContext::group_for(std::span<const PTask> tasks,
                                                   util::Time period) {
  key_.clear();
  key_.push_back(period.raw_ns());
  for (const auto& t : tasks) key_.push_back(t.period.raw_ns());
  const auto it = groups_.find(key_);
  if (it != groups_.end()) return it->second;
  return groups_.emplace(key_, Group(key_)).first->second;
}

void AnalysisContext::ensure_points(Group& g, std::span<const PTask> tasks) {
  if (g.has_points) return;
  VC2M_PROFILE_PHASE("checkpoints");
  if (auto* ctr = util::alloc_counters()) ++ctr->soa_rebuilds;
  const util::Time horizon = util::lcm(hyperperiod(tasks), g.period);
  merge_checkpoints(g.periods, horizon, g.points);
  g.has_points = true;
}

std::optional<util::Time> AnalysisContext::compute_min_budget(
    std::span<const PTask> tasks, const Group& g, double total_util,
    util::Arena& scratch) {
  // Mirrors min_budget_edf's early-outs exactly; when neither fires the
  // caller has built the group's stream (over-utilized groups never build
  // one, matching the reference path's order of operations).
  if (tasks.empty()) return util::Time::zero();
  if (total_util > 1.0 + 1e-12) return std::nullopt;

  util::Arena::Scope mark(scratch);
  auto wcets = scratch.alloc_array<std::int64_t>(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    wcets[i] = tasks[i].wcet.raw_ns();
  auto demand = scratch.alloc_array<util::Time>(g.points.size());
  demand_at(g.periods, wcets, g.points, demand);
  return min_budget_on_curve(DemandCurve{g.points, demand}, total_util,
                             g.period);
}

// ------------------------------------------------------------- queries ----

std::optional<util::Time> AnalysisContext::min_budget(
    std::span<const PTask> tasks, util::Time period) {
  Group& g = group_for(tasks, period);
  const std::uint64_t hash = wcet_hash(tasks);
  if (const auto e = g.budgets.find(tasks, hash);
      e != BudgetTable::kAbsent) {
    if (auto* ctr = util::alloc_counters()) ++ctr->budget_cache_hits;
    return decode(g.budgets.value(e));
  }

  if (auto* ctr = util::alloc_counters()) ++ctr->budget_evaluations;
  VC2M_PROFILE_PHASE("min_budget");
  const double u = total_utilization(tasks);
  if (!tasks.empty() && u <= 1.0 + 1e-12) ensure_points(g, tasks);
  const auto theta = compute_min_budget(tasks, g, u, arena_);
  emit_budget_search(tasks, period, theta);
  g.budgets.insert(tasks, hash, theta ? theta->raw_ns() : kNoBudget);
  return theta;
}

std::vector<AnalysisContext::BatchResult> AnalysisContext::min_budget_batch(
    std::span<const std::span<const PTask>> queries, util::Time period) {
  std::vector<BatchResult> out(queries.size());
  if (queries.empty()) return out;
  VC2M_PROFILE_PHASE("min_budget_surface");

  // One distinct, unmemoized query. Its memo entry holds pending(job)
  // until the batch commits, so later duplicates alias it.
  struct Job {
    std::size_t first;    ///< first query index asking this key
    Group* group;
    std::uint32_t entry;  ///< its BudgetTable entry
    double util = 0;
    std::optional<util::Time> theta;
  };
  std::vector<Job> jobs;
  jobs.reserve(queries.size());
  constexpr std::size_t kNoJob = SIZE_MAX;
  std::vector<std::size_t> job_of(queries.size(), kNoJob);

  // Serial pass 1 — memo and duplicate resolution, with counter semantics
  // identical to a serial min_budget() loop over the queries: fresh key →
  // budget_evaluations, repeated or memoized key → budget_cache_hits. The
  // group is resolved once per run of equal periods.
  auto* ctr = util::alloc_counters();
  Group* g = nullptr;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto tasks = queries[q];
    if (g == nullptr ||
        !std::equal(g->periods.begin(), g->periods.end(), tasks.begin(),
                    tasks.end(), [](std::int64_t p, const PTask& t) {
                      return p == t.period.raw_ns();
                    }))
      g = &group_for(tasks, period);
    const std::uint64_t hash = wcet_hash(tasks);
    if (const auto e = g->budgets.find(tasks, hash);
        e != BudgetTable::kAbsent) {
      if (ctr) ++ctr->budget_cache_hits;
      const std::int64_t v = g->budgets.value(e);
      if (v <= pending(0))
        job_of[q] = static_cast<std::size_t>(pending(0) - v);
      else
        out[q] = BatchResult{decode(v), false};
      continue;
    }
    if (ctr) ++ctr->budget_evaluations;
    job_of[q] = jobs.size();
    const std::uint32_t entry =
        g->budgets.insert(tasks, hash, pending(jobs.size()));
    jobs.push_back(Job{q, g, entry, total_utilization(tasks), std::nullopt});
  }

  if (!jobs.empty()) {
    if (ctr) ctr->inner_tasks += jobs.size();
    try {
      // Serial pass 2 — checkpoint streams. Builds (and any lcm-overflow /
      // checkpoint-cap failure they raise) happen here in deterministic
      // batch order, never on a worker. Over-utilized groups skip the
      // build, like the reference path.
      for (auto& job : jobs)
        if (!queries[job.first].empty() && job.util <= 1.0 + 1e-12)
          ensure_points(*job.group, queries[job.first]);

      const std::size_t stripes =
          (inner_pool_ != nullptr && inner_jobs_ > 1)
              ? std::min<std::size_t>(static_cast<std::size_t>(inner_jobs_),
                                      jobs.size())
              : 1;
      if (stripes <= 1) {
        // Serial compute: counters land directly in the context scope, in
        // job order — the baseline the striped path reproduces.
        for (auto& job : jobs)
          job.theta = compute_min_budget(queries[job.first], *job.group,
                                         job.util, arena_);
      } else {
        // Striped compute: job j runs on stripe j % stripes. Each stripe
        // has its own arena (arenas are single-threaded) and each job its
        // own counter scope (null parent on a pool worker, so nothing
        // merges implicitly); the slots are merged below on the calling
        // thread. Every counter a job touches is a uint64 add, so the
        // totals are bit-identical to the serial path regardless of stripe
        // count. Workers only read the groups: streams were built above
        // and memo values are written after the join.
        //
        // The batch waits on its own latch, not ThreadPool::wait(): pool
        // tasks must not call wait(), and the pool may be shared by
        // batches of concurrently running solves.
        std::vector<util::Arena> stripe_arenas(stripes);
        std::vector<util::AllocCounters> job_counters(jobs.size());
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = stripes;
        std::exception_ptr error;
        for (std::size_t s = 0; s < stripes; ++s) {
          inner_pool_->submit([&, s] {
            try {
              for (std::size_t j = s; j < jobs.size(); j += stripes) {
                util::AllocCounterScope scope;
                jobs[j].theta =
                    compute_min_budget(queries[jobs[j].first], *jobs[j].group,
                                       jobs[j].util, stripe_arenas[s]);
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
      // Newest first, so each pop removes its table's newest entry.
      for (auto it = jobs.rbegin(); it != jobs.rend(); ++it)
        it->group->budgets.pop_back();
      throw;
    }
    for (const auto& job : jobs)
      job.group->budgets.value(job.entry) =
          job.theta ? job.theta->raw_ns() : kNoBudget;
  }

  for (std::size_t q = 0; q < queries.size(); ++q)
    if (job_of[q] != kNoJob)
      out[q] = BatchResult{jobs[job_of[q]].theta,
                           q == jobs[job_of[q]].first};
  return out;
}

}  // namespace vc2m::analysis

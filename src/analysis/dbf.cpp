#include "analysis/dbf.h"

#include <algorithm>
#include <queue>

#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::analysis {

util::Time dbf(std::span<const PTask> tasks, util::Time t) {
  if (auto* ctr = util::alloc_counters()) ++ctr->dbf_evaluations;
  util::Time demand = util::Time::zero();
  for (const auto& tk : tasks) {
    VC2M_CHECK(tk.period > util::Time::zero());
    demand += tk.wcet * (t / tk.period);
  }
  return demand;
}

double total_utilization(std::span<const PTask> tasks) {
  double u = 0;
  for (const auto& tk : tasks) u += tk.wcet.ratio(tk.period);
  return u;
}

util::Time hyperperiod(std::span<const PTask> tasks) {
  util::Time h = util::Time::ns(1);
  for (const auto& tk : tasks) h = util::lcm(h, tk.period);
  return h;
}

std::vector<util::Time> dbf_checkpoints(std::span<const PTask> tasks,
                                        util::Time horizon) {
  std::vector<std::int64_t> periods;
  periods.reserve(tasks.size());
  for (const auto& tk : tasks) {
    VC2M_CHECK(tk.period > util::Time::zero());
    periods.push_back(tk.period.raw_ns());
  }
  std::vector<util::Time> pts;
  merge_checkpoints(periods, horizon, pts);
  return pts;
}

void TaskArrays::assign(std::span<const PTask> tasks) {
  period.clear();
  wcet.clear();
  period.reserve(tasks.size());
  wcet.reserve(tasks.size());
  total_util = 0;
  for (const auto& tk : tasks) {
    VC2M_CHECK(tk.period > util::Time::zero());
    period.push_back(tk.period.raw_ns());
    wcet.push_back(tk.wcet.raw_ns());
    // Same expression as Time::ratio so the sum is bit-identical to
    // total_utilization() over the same span.
    total_util += static_cast<double>(tk.wcet.raw_ns()) /
                  static_cast<double>(tk.period.raw_ns());
  }
}

util::Time TaskArrays::hyperperiod() const {
  util::Time h = util::Time::ns(1);
  for (const std::int64_t p : period) h = util::lcm(h, util::Time::ns(p));
  return h;
}

void demand_at(std::span<const std::int64_t> periods,
               std::span<const std::int64_t> wcets,
               std::span<const util::Time> points,
               std::span<util::Time> out) {
  VC2M_CHECK(periods.size() == wcets.size());
  VC2M_CHECK(out.size() >= points.size());
  for (const std::int64_t p : periods)
    VC2M_CHECK_MSG(p > 0, "demand_at requires positive periods, got " << p);
  std::int64_t prev = 0;
  for (const util::Time t : points) {
    VC2M_CHECK_MSG(t.raw_ns() > prev,
                   "demand_at requires strictly ascending positive points, "
                   "got " << t.raw_ns() << " ns after " << prev << " ns");
    prev = t.raw_ns();
  }
  if (auto* ctr = util::alloc_counters())
    ctr->dbf_evaluations += points.size();
  std::fill_n(out.begin(), points.size(), util::Time::zero());

  // Division-free stepping. Task i's last passed multiple `last` starts at
  // 0; each time the walk passes the next one, `last` advances by p_i and
  // the task's demand by e_i, so at t the demand is ⌊t/p_i⌋·e_i. The test
  // t − last ≥ p cannot overflow (0 ≤ last ≤ t). In a merged stream every
  // multiple is a point, so the loop steps at most once per point. Tasks
  // are walked two at a time with their state in registers, and their
  // demand is added into out[]; integer sums do not depend on the order.
  const auto step = [](std::int64_t p, std::int64_t e, std::int64_t t,
                       std::int64_t& last, std::int64_t& demand) {
    while (t - last >= p) {
      last += p;
      demand += e;
    }
  };
  const std::size_t n = periods.size();
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    const std::int64_t p0 = periods[i], e0 = wcets[i];
    const std::int64_t p1 = periods[i + 1], e1 = wcets[i + 1];
    std::int64_t last0 = 0, demand0 = 0, last1 = 0, demand1 = 0;
    for (std::size_t k = 0; k < points.size(); ++k) {
      const std::int64_t t = points[k].raw_ns();
      step(p0, e0, t, last0, demand0);
      step(p1, e1, t, last1, demand1);
      out[k] += util::Time::ns(demand0 + demand1);
    }
  }
  if (i < n) {
    const std::int64_t p = periods[i], e = wcets[i];
    std::int64_t last = 0, demand = 0;
    for (std::size_t k = 0; k < points.size(); ++k) {
      step(p, e, points[k].raw_ns(), last, demand);
      out[k] += util::Time::ns(demand);
    }
  }
}

void merge_checkpoints(std::span<const std::int64_t> periods,
                       util::Time horizon, std::vector<util::Time>& out) {
  out.clear();
  const std::int64_t h = horizon.raw_ns();

  // Deduplicate the period streams (equal periods emit identical multiples)
  // and count the pre-dedup total so a pathological horizon/period ratio
  // fails with a clear message instead of attempting a gigabyte push_back
  // loop. unsigned __int128 keeps the count exact even when a single stream
  // alone would overflow 64 bits.
  std::vector<std::int64_t> uniq(periods.begin(), periods.end());
  std::sort(uniq.begin(), uniq.end());
  uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
  unsigned __int128 count = 0;
  for (const std::int64_t p : uniq) {
    VC2M_CHECK_MSG(p > 0, "checkpoint stream requires positive periods");
    count += static_cast<unsigned __int128>(h / p);
  }
  VC2M_CHECK_MSG(
      count <= static_cast<unsigned __int128>(kDbfCheckpointCap),
      "dbf checkpoint count "
          << static_cast<double>(count) << " exceeds the cap "
          << kDbfCheckpointCap
          << " (horizon/period ratios too extreme — e.g. a 1 ns period "
             "against a long horizon); refusing to materialize "
          << static_cast<double>(count) * sizeof(util::Time) * 1e-6
          << " MB of checkpoints");
  out.reserve(static_cast<std::size_t>(count));

  // K-way merge of the arithmetic streams (p, 2p, …): pop the smallest next
  // multiple, emit it once, advance every stream sitting on that value.
  // Emits sorted + deduplicated directly — no materialize-then-sort.
  using Head = std::pair<std::int64_t, std::int64_t>;  // (next, step)
  std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heap;
  for (const std::int64_t p : uniq)
    if (p <= h) heap.push({p, p});
  std::int64_t last = -1;
  while (!heap.empty()) {
    const auto [next, step] = heap.top();
    heap.pop();
    if (next != last) {
      out.push_back(util::Time::ns(next));
      last = next;
    }
    if (next <= h - step) heap.push({next + step, step});
  }
}

}  // namespace vc2m::analysis

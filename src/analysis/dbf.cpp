#include "analysis/dbf.h"

#include <algorithm>
#include <queue>

#include "util/error.h"

namespace vc2m::analysis {

double total_utilization(std::span<const PTask> tasks) {
  double u = 0;
  for (const auto& tk : tasks) u += tk.wcet.ratio(tk.period);
  return u;
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

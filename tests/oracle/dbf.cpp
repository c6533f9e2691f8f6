#include "oracle/dbf.h"

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

}  // namespace vc2m::analysis

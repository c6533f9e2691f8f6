#include "model/task.h"

namespace vc2m::model {

double total_reference_utilization(const Taskset& ts) {
  double u = 0;
  for (const auto& t : ts) u += t.reference_utilization();
  return u;
}

util::Time hyperperiod(const Taskset& ts) {
  util::Time h = util::Time::ns(1);
  for (const auto& t : ts) h = util::lcm(h, t.period);
  return h;
}

}  // namespace vc2m::model

#include "analysis/theorems.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/error.h"

namespace vc2m::analysis {

model::Vcpu regulated_vcpu(const model::Taskset& tasks,
                           std::span<const std::size_t> task_indices) {
  RegulatedBudget theta;
  theta.reset(tasks, task_indices);
  model::Vcpu v;
  v.period = theta.period();
  v.vm = tasks[task_indices.front()].vm;
  v.tasks.assign(task_indices.begin(), task_indices.end());
  v.budget = model::WcetFn(theta.grid());
  theta.fill(v.budget.flat());
  return v;
}

void RegulatedBudget::reset(const model::Taskset& tasks,
                            std::span<const std::size_t> task_indices) {
  VC2M_CHECK_MSG(!task_indices.empty(), "a VCPU must serve at least one task");

  // Π = min period; harmonicity requires Π to divide every period.
  util::Time pi = tasks[task_indices.front()].period;
  for (const std::size_t i : task_indices)
    pi = util::min(pi, tasks[i].period);
  std::int64_t den = 1;
  for (const std::size_t i : task_indices) {
    const auto& t = tasks[i];
    VC2M_CHECK_MSG(t.period % pi == util::Time::zero(),
                   "Theorem 2 requires a harmonic taskset (period "
                       << t.period << " vs Π " << pi << ")");
    den = std::lcm(den, t.period / pi);
  }

  // Grids are checked once per task; at() then walks the flat tables.
  const auto& grid = tasks[task_indices.front()].wcet.grid();
  wcets_.clear();
  weights_.clear();
  for (const std::size_t i : task_indices) {
    const auto& t = tasks[i];
    VC2M_CHECK_MSG(t.wcet.grid() == grid && t.wcet.flat().size() == grid.size(),
                   "tasks on one VCPU must share a resource grid");
    wcets_.push_back(t.wcet.flat().data());
    weights_.push_back(den / (t.period / pi));
  }
  pi_ = pi;
  grid_ = grid;
  den_ = den;
  pow2_ = (den & (den - 1)) == 0;
  shift_ = std::countr_zero(static_cast<std::uint64_t>(den));
}

void RegulatedBudget::fill(std::span<util::Time> out) const {
  VC2M_CHECK(out.size() == grid_.size());
  for (std::size_t cell = 0; cell < out.size(); ++cell) out[cell] = at(cell);
}

std::size_t harmonic_groups(const model::Taskset& tasks,
                            std::span<const std::size_t> task_indices,
                            std::vector<std::vector<std::size_t>>& groups,
                            std::vector<std::size_t>& order) {
  order.assign(task_indices.begin(), task_indices.end());
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].period < tasks[b].period;
  });

  std::size_t used = 0;
  for (const std::size_t i : order) {
    bool placed = false;
    for (std::size_t g = 0; g < used && !placed; ++g) {
      auto& group = groups[g];
      placed = std::all_of(group.begin(), group.end(), [&](std::size_t j) {
        return util::harmonic_pair(tasks[i].period, tasks[j].period);
      });
      if (placed) group.push_back(i);
    }
    if (placed) continue;
    if (groups.size() == used) groups.emplace_back();
    groups[used].assign(1, i);
    ++used;
  }
  return used;
}

}  // namespace vc2m::analysis

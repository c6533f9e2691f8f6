#include "analysis/theorems.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/error.h"

namespace vc2m::analysis {

model::Vcpu flattened_vcpu(const model::Task& task, std::size_t task_index) {
  model::Vcpu v;
  v.period = task.period;
  v.budget = task.wcet;  // Θ(c,b) = e(c,b), Theorem 1
  v.vm = task.vm;
  v.tasks = {task_index};
  return v;
}

std::vector<model::Vcpu> flatten(const model::Taskset& tasks) {
  std::vector<model::Vcpu> vcpus;
  vcpus.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    vcpus.push_back(flattened_vcpu(tasks[i], i));
  return vcpus;
}

model::Vcpu regulated_vcpu(const model::Taskset& tasks,
                           std::span<const std::size_t> task_indices) {
  VC2M_CHECK_MSG(!task_indices.empty(), "a VCPU must serve at least one task");

  // Π = min period; harmonicity requires Π to divide every period.
  util::Time pi = tasks[task_indices.front()].period;
  for (const std::size_t i : task_indices)
    pi = util::min(pi, tasks[i].period);
  std::int64_t den = 1;  // lcm of the period ratios q_i = p_i / Π
  for (const std::size_t i : task_indices) {
    const auto& t = tasks[i];
    VC2M_CHECK_MSG(t.period % pi == util::Time::zero(),
                   "Theorem 2 requires a harmonic taskset (period "
                       << t.period << " vs Π " << pi << ")");
    den = std::lcm(den, t.period / pi);
  }

  const auto& grid = tasks[task_indices.front()].wcet.grid();
  model::Vcpu v;
  v.period = pi;
  v.vm = tasks[task_indices.front()].vm;
  v.tasks.assign(task_indices.begin(), task_indices.end());
  v.budget = model::WcetFn(grid);

  // Θ(c,b) = Π · Σ e_i(c,b)/p_i = Σ e_i(c,b)/q_i, computed exactly over the
  // common denominator `den` and rounded up to the nanosecond. Grids are
  // checked once per task; the cell loop then walks the flat tables.
  std::vector<const util::Time*> wcets;
  std::vector<std::int64_t> weights;  // den / q_i
  wcets.reserve(task_indices.size());
  weights.reserve(task_indices.size());
  for (const std::size_t i : task_indices) {
    const auto& t = tasks[i];
    VC2M_CHECK_MSG(t.wcet.grid() == grid && t.wcet.flat().size() == grid.size(),
                   "tasks on one VCPU must share a resource grid");
    wcets.push_back(t.wcet.flat().data());
    weights.push_back(den / (t.period / pi));
  }
  // Harmonic period menus make den a power of two: then a shift gives the
  // same quotient as the 128-bit division for every non-negative dividend.
  const bool pow2 = (den & (den - 1)) == 0;
  const int shift = std::countr_zero(static_cast<std::uint64_t>(den));
  auto& budget = v.budget.flat();
  for (std::size_t cell = 0; cell < budget.size(); ++cell) {
    __int128 num = den - 1;
    for (std::size_t k = 0; k < wcets.size(); ++k)
      num += static_cast<__int128>(wcets[k][cell].raw_ns()) * weights[k];
    budget[cell] = util::Time::ns(static_cast<std::int64_t>(
        pow2 && num >= 0 ? num >> shift : num / den));
  }
  return v;
}

std::vector<std::vector<std::size_t>> harmonic_groups(
    const model::Taskset& tasks, std::span<const std::size_t> task_indices) {
  std::vector<std::size_t> order(task_indices.begin(), task_indices.end());
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return tasks[a].period < tasks[b].period;
  });

  std::vector<std::vector<std::size_t>> groups;
  for (const std::size_t i : order) {
    bool placed = false;
    for (auto& group : groups) {
      const bool fits = std::all_of(
          group.begin(), group.end(), [&](std::size_t j) {
            return util::harmonic_pair(tasks[i].period, tasks[j].period);
          });
      if (fits) {
        group.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }
  return groups;
}

}  // namespace vc2m::analysis

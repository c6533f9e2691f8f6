#include "core/hv_alloc.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>

#include "analysis/schedulability.h"
#include "core/core_load.h"
#include "core/kmeans.h"
#include "core/packing.h"
#include "obs/decision_log.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/phase_profiler.h"

namespace vc2m::core {

unsigned HvAllocResult::total_cache() const {
  unsigned t = 0;
  for (const unsigned c : cache) t += c;
  return t;
}

unsigned HvAllocResult::total_bw() const {
  unsigned t = 0;
  for (const unsigned b : bw) t += b;
  return t;
}

namespace {

/// The working state of the candidate search: a CoreLoad per core in use
/// (the incremental membership/Σ Θ/Π accounts), each core's partitions and
/// its grant record — the CoreLoad::Probe at its current point and
/// membership, which Phases 2 and 3 read instead of probing every core
/// again. allocate_heuristic builds one per call and resets it for every
/// candidate, so the search allocates nothing per candidate: CoreLoad::clear
/// keeps each core's buffers, and `loads` only grows with the core count.
struct CoreState {
  std::vector<CoreLoad> loads;       ///< the first size() are in use
  std::vector<model::GridPoint> at;  ///< per core in use: its (c, b)
  std::vector<CoreLoad::Probe> rec;  ///< per core in use: probe at `at`
  /// The search's utilization columns, once they pay (see
  /// allocate_heuristic).
  std::optional<UtilColumns> cols;
  // Scratch reused by every candidate.
  std::vector<double> ref_load;
  std::vector<std::size_t> unsched;

  std::size_t size() const { return at.size(); }

  /// m empty cores at (C_min, B_min).
  void reset(std::span<const model::Vcpu> vcpus,
             const model::ResourceGrid& grid, std::size_t m) {
    for (auto& load : loads) load.clear();
    while (loads.size() < m) loads.emplace_back(vcpus, grid);
    at.assign(m, grid.point(grid.c_min, grid.b_min));
    rec.resize(m);  // Phase 2 probes every core before it reads one
  }

  /// Re-probes `core` at its point, with the neighbours a grant from pools
  /// of (pool_c, pool_b) could reach. Pools only shrink while a record is
  /// kept, so a neighbour left out stays out of reach.
  void probe(std::size_t core, unsigned pool_c, unsigned pool_b,
             const model::ResourceGrid& grid) {
    const model::GridPoint p = at[core];
    rec[core] = loads[core].probe(p, pool_c > 0 && p.c < grid.c_max,
                                  pool_b > 0 && p.b < grid.b_max,
                                  cols ? &*cols : nullptr);
  }
};

double util_of(CoreState& st, std::size_t core) {
  return st.loads[core].utilization(st.at[core]);
}

bool sched_of(CoreState& st, std::size_t core) {
  return st.loads[core].schedulable(st.at[core]);
}

bool all_schedulable(CoreState& st) {
  for (std::size_t i = 0; i < st.size(); ++i)
    if (!sched_of(st, i)) return false;
  return true;
}

/// Record why a grant loop stopped: which pool (or gain) bound, and how far
/// the closest unschedulable core still was from Σ Θ/Π ≤ 1.
void log_grant_exhausted(obs::DecisionLog& log, const CoreState& st,
                         const std::vector<std::size_t>& unsched,
                         unsigned pool_c, unsigned pool_b,
                         const model::ResourceGrid& grid) {
  bool could_c = false, could_b = false;
  for (const std::size_t i : unsched) {
    could_c = could_c || (pool_c > 0 && st.at[i].c < grid.c_max);
    could_b = could_b || (pool_b > 0 && st.at[i].b < grid.b_max);
  }
  double min_excess = std::numeric_limits<double>::infinity();
  std::size_t closest = unsched.front();
  for (const std::size_t i : unsched) {
    const double excess = st.rec[i].u - 1.0;
    if (excess < min_excess) {
      min_excess = excess;
      closest = i;
    }
  }
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kGrantExhausted;
  e.constraint = (could_c || could_b)
                     ? obs::DecisionConstraint::kNoBeneficialGrant
                     : (pool_c == 0 ? obs::DecisionConstraint::kCachePoolExhausted
                                    : obs::DecisionConstraint::kBwPoolExhausted);
  e.core = static_cast<std::int32_t>(closest);
  e.cache = static_cast<std::int32_t>(pool_c);
  e.bw = static_cast<std::int32_t>(pool_b);
  e.value = st.rec[closest].u;
  e.margin = std::max(0.0, min_excess);
  log.emit(e);
}

/// Phase 1: pack clusters (in permutation order) worst-fit decreasing by
/// reference utilization onto m cores. Each cluster's members are already
/// sorted by decreasing reference utilization `ref_util`.
void phase1_pack(CoreState& st, std::span<const model::Vcpu> vcpus,
                 const Clusters& clusters, std::span<const std::size_t> perm,
                 std::span<const double> ref_util, unsigned m,
                 const model::ResourceGrid& grid) {
  st.reset(vcpus, grid, m);
  st.ref_load.assign(m, 0);
  for (const std::size_t ci : perm)
    for (const std::size_t v : clusters[ci]) {
      const std::size_t least = packing::worst_fit_bin(st.ref_load);
      st.loads[least].add(v);
      st.ref_load[least] += ref_util[v];
    }
}

/// Ablation policy: alternating cache/BW partitions to the unschedulable
/// cores in cyclic order, ignoring the utilization gain. Tries each core
/// and kind once from `rr_cursor`; false when no grant is possible.
bool round_robin_step(const CoreState& st,
                      const std::vector<std::size_t>& unsched,
                      std::size_t& rr_cursor, unsigned pool_c, unsigned pool_b,
                      const model::ResourceGrid& grid, GrantStep& step) {
  for (std::size_t attempt = 0; attempt < 2 * unsched.size(); ++attempt) {
    const std::size_t i = unsched[(rr_cursor / 2) % unsched.size()];
    const bool want_cache = rr_cursor % 2 == 0;
    ++rr_cursor;
    if (want_cache ? pool_c > 0 && st.at[i].c < grid.c_max
                   : pool_b > 0 && st.at[i].b < grid.b_max) {
      step.core = i;
      step.cache = want_cache;
      return true;
    }
  }
  return false;
}

/// Phase 2: grow per-core cache/BW from (C_min, B_min), always granting the
/// partition with the largest utilization reduction on an unschedulable
/// core (or cycling grants round-robin under the ablation policy). Every
/// core is probed once at (C_min, B_min); after that a grant re-probes
/// only the granted core. Returns true iff the system became schedulable;
/// either way st.rec then holds every core's probe at its final point.
bool phase2_resources(CoreState& st, const model::PlatformSpec& platform,
                      HvAllocConfig::Phase2Policy policy) {
  const auto& grid = platform.grid;
  const unsigned m = static_cast<unsigned>(st.size());
  st.at.assign(m, grid.point(grid.c_min, grid.b_min));
  unsigned pool_c = platform.total_cache() - m * grid.c_min;
  unsigned pool_b = platform.total_bw() - m * grid.b_min;
  for (std::size_t i = 0; i < m; ++i) st.probe(i, pool_c, pool_b, grid);

  std::uint64_t grants = 0;
  std::size_t rr_cursor = 0;  // round-robin state for the ablation policy
  auto& unsched = st.unsched;
  bool feasible = false;
  while (true) {
    unsched.clear();
    for (std::size_t i = 0; i < m; ++i)
      if (!st.rec[i].schedulable) unsched.push_back(i);
    if (unsched.empty()) {
      feasible = true;
      break;
    }

    GrantStep step;
    bool any;
    if (policy == HvAllocConfig::Phase2Policy::kRoundRobin) {
      any = round_robin_step(st, unsched, rr_cursor, pool_c, pool_b, grid,
                             step);
    } else {
      // The grant with the highest utilization reduction, over all
      // unschedulable cores and both resource kinds. A dry pool rules its
      // kind out on every core at once.
      for (const std::size_t i : unsched)
        step.offer(i, st.rec[i], pool_c > 0 && st.at[i].c < grid.c_max,
                   pool_b > 0 && st.at[i].b < grid.b_max);
      any = step.found();
    }
    if (!any) {  // pools dry, cores saturated, or no grant has an impact
      if (auto* log = obs::decision_log())
        log_grant_exhausted(*log, st, unsched, pool_c, pool_b, grid);
      break;
    }

    ++grants;
    auto& granted = st.at[step.core];
    if (step.cache) {
      granted = grid.more_cache(granted);
      --pool_c;
    } else {
      granted = grid.more_bw(granted);
      --pool_b;
    }
    st.probe(step.core, pool_c, pool_b, grid);
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kPartitionGrant;
      e.accepted = true;
      e.core = static_cast<std::int32_t>(step.core);
      e.cache = static_cast<std::int32_t>(granted.c);
      e.bw = static_cast<std::int32_t>(granted.b);
      // Max gain: the utilization reduction bought by this grant;
      // round-robin: the core's utilization after it.
      e.value = policy == HvAllocConfig::Phase2Policy::kRoundRobin
                    ? st.rec[step.core].u
                    : step.gain;
      log->emit(e);
    }
  }
  if (auto* ctr = util::alloc_counters()) ctr->partition_grants += grants;
  return feasible;
}

/// Phase 3: migrate VCPUs away from unschedulable cores. Destination is the
/// schedulable core least utilized after the move; the migrated VCPU is the
/// largest one the destination can absorb while staying schedulable, else
/// the smallest VCPU on the overloaded core. Reads the grant records Phase
/// 2 left and re-probes only the two cores a move changes. Returns true
/// iff any VCPU moved.
bool phase3_balance(std::span<const model::Vcpu> vcpus, CoreState& st,
                    const model::ResourceGrid& grid) {
  const std::size_t m = st.size();
  bool moved_any = false;

  for (std::size_t i = 0; i < m; ++i) {
    unsigned guard = 0;
    while (!st.rec[i].schedulable && !st.loads[i].empty() && guard++ < 64) {
      // Least-utilized currently-schedulable destination (≠ i).
      std::size_t dest = m;
      double dest_util = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < m; ++j) {
        if (j == i || !st.rec[j].schedulable) continue;
        const double u = st.rec[j].u;
        if (u < dest_util) {
          dest_util = u;
          dest = j;
        }
      }
      if (dest == m) {  // nowhere to migrate
        if (auto* log = obs::decision_log()) {
          obs::DecisionEvent e;
          e.kind = obs::DecisionKind::kMigration;
          e.constraint = obs::DecisionConstraint::kCoreOverUtilized;
          e.core = static_cast<std::int32_t>(i);
          e.value = st.rec[i].u;
          e.margin = std::max(0.0, e.value - 1.0);
          log->emit(e);
        }
        return moved_any;
      }

      // Largest VCPU the destination absorbs while staying schedulable.
      const CoreLoad& src = st.loads[i];
      std::size_t pick_pos = src.size();
      double pick_util = -1;
      std::size_t fallback_pos = 0;
      double fallback_util = std::numeric_limits<double>::infinity();
      for (std::size_t p = 0; p < src.size(); ++p) {
        const double uv = src.member_utilization(p, st.at[i]);
        const double uv_dest = src.member_utilization(p, st.at[dest]);
        if (dest_util + uv_dest <= 1.0 && uv > pick_util) {
          pick_util = uv;
          pick_pos = p;
        }
        if (uv < fallback_util) {
          fallback_util = uv;
          fallback_pos = p;
        }
      }
      const std::size_t pos = pick_pos < src.size() ? pick_pos : fallback_pos;
      const std::size_t moved = st.loads[i].remove_at(pos);
      st.loads[dest].add(moved);
      // Phase 2 starts over from (C_min, B_min) after this phase, so the
      // records need no grant neighbours.
      st.probe(i, 0, 0, grid);
      st.probe(dest, 0, 0, grid);
      moved_any = true;
      if (auto* ctr = util::alloc_counters()) ++ctr->vcpu_migrations;
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kMigration;
        e.accepted = true;
        e.entity = static_cast<std::int32_t>(moved);
        e.core = static_cast<std::int32_t>(dest);
        e.value = vcpus[moved].utilization(st.at[dest].c, st.at[dest].b);
        log->emit(e);
      }
    }
  }
  return moved_any;
}

HvAllocResult to_result(const CoreState& st, bool schedulable) {
  HvAllocResult res;
  res.schedulable = schedulable;
  res.cores_used = static_cast<unsigned>(st.size());
  res.vcpus_on_core.reserve(st.size());
  for (std::size_t i = 0; i < st.size(); ++i) {
    res.vcpus_on_core.push_back(st.loads[i].members());
    res.cache.push_back(st.at[i].c);
    res.bw.push_back(st.at[i].b);
  }
  return res;
}

}  // namespace

namespace {

/// RAII wall timer adding its scope's duration to an AllocCounters field.
class PhaseTimer {
 public:
  explicit PhaseTimer(double util::AllocCounters::* field)
      : field_(field), start_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    if (auto* ctr = util::alloc_counters())
      ctr->*field_ += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
  }
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double util::AllocCounters::* field_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

HvAllocResult allocate_heuristic(std::span<const model::Vcpu> vcpus,
                                 const model::PlatformSpec& platform,
                                 const HvAllocConfig& cfg, util::Rng& rng) {
  VC2M_CHECK(!vcpus.empty());
  PhaseTimer timer(&util::AllocCounters::hv_alloc_seconds);
  VC2M_PROFILE_PHASE("hv_alloc");
  const auto& grid = platform.grid;

  // Fast infeasibility screens at the full allocation (C, B).
  double best_total = 0;
  bool screened_out = false;
  for (std::size_t vi = 0; vi < vcpus.size(); ++vi) {
    const double u = vcpus[vi].utilization(grid.c_max, grid.b_max);
    if (u > 1.0) {  // one VCPU exceeds any core
      auto* log = obs::decision_log();
      if (!log) return HvAllocResult{};
      // Recording on: keep scanning so every oversized VCPU (and its VM)
      // gets a rejection event — same verdict, complete provenance.
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kVcpuScreen;
      e.constraint = obs::DecisionConstraint::kVcpuExceedsCore;
      e.vm = vcpus[vi].vm;
      e.entity = static_cast<std::int32_t>(vi);
      e.cache = static_cast<std::int32_t>(grid.c_max);
      e.bw = static_cast<std::int32_t>(grid.b_max);
      e.value = u;
      e.margin = u - 1.0;
      log->emit(e);
      screened_out = true;
    }
    best_total += u;
  }
  if (screened_out) return HvAllocResult{};
  if (best_total > static_cast<double>(platform.cores)) {
    if (auto* log = obs::decision_log()) {
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kCapacityScreen;
      e.constraint = obs::DecisionConstraint::kUtilizationExceedsCores;
      e.core = static_cast<std::int32_t>(platform.cores);
      e.value = best_total;
      e.margin = best_total - static_cast<double>(platform.cores);
      log->emit(e);
    }
    return HvAllocResult{};
  }

  // Cluster VCPUs by slowdown vector once; reused for every core count.
  // Each cluster is sorted by decreasing reference utilization here, once,
  // in the order Phase 1 packs it.
  const std::size_t k =
      cfg.cluster_vcpus ? std::min(cfg.clusters, vcpus.size()) : 1;
  FeatureMatrix points(vcpus.front().budget.grid().size());
  points.reserve_rows(vcpus.size());
  for (const auto& v : vcpus) points.add_slowdown(v.budget);
  std::vector<double> ref_util;
  ref_util.reserve(vcpus.size());
  for (const auto& v : vcpus) ref_util.push_back(v.reference_utilization());
  const auto clusters = [&] {
    VC2M_PROFILE_PHASE("cluster");
    Clusters c = cluster_members(kmeans(points, k, rng), k);
    c.sort_each([&](std::size_t a, std::size_t b) {
      return ref_util[a] > ref_util[b];
    });
    return c;
  }();

  CoreState st;  // reset for every candidate below
  for (unsigned m = 1; m <= platform.cores; ++m) {
    if (m * grid.c_min > platform.total_cache() ||
        m * grid.b_min > platform.total_bw())
      break;  // larger m cannot satisfy the per-core minimums either
    for (unsigned perm_iter = 0; perm_iter < cfg.max_permutations;
         ++perm_iter) {
      {
        VC2M_PROFILE_PHASE("phase1_pack");
        phase1_pack(st, vcpus, clusters, rng.permutation(k), ref_util, m,
                    grid);
      }
      if (auto* ctr = util::alloc_counters()) ++ctr->candidate_packings;
      if (auto* log = obs::decision_log()) {
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kPackingCandidate;
        e.accepted = true;
        e.entity = static_cast<std::int32_t>(perm_iter);
        e.core = static_cast<std::int32_t>(m);
        e.value = static_cast<double>(vcpus.size());
        log->emit(e);
      }
      for (unsigned round = 0; round < cfg.max_balance_rounds; ++round) {
        bool feasible;
        {
          VC2M_PROFILE_PHASE("phase2_resources");
          feasible = phase2_resources(st, platform, cfg.phase2);
        }
        if (feasible) return to_result(st, true);
        // A failed Phase 2 marks a search that will probe the same VCPUs
        // at the same points again (more rounds, permutations and core
        // counts), so its columns pay from here; a search that succeeds
        // at once never divides a column.
        if (!st.cols) st.cols.emplace(vcpus, grid);
        if (!cfg.load_balance) break;  // ablation: no Phase 3
        bool improved;
        {
          VC2M_PROFILE_PHASE("phase3_balance");
          improved = phase3_balance(vcpus, st, grid);
        }
        if (!improved) break;  // no benefit in balancing
      }
    }
  }
  if (auto* log = obs::decision_log()) {
    // Every candidate at every core count failed; the per-candidate
    // kGrantExhausted events above carry the specific margins.
    obs::DecisionEvent e;
    e.kind = obs::DecisionKind::kHvAttempt;
    e.constraint = obs::DecisionConstraint::kCoreLimit;
    e.core = static_cast<std::int32_t>(platform.cores);
    e.value = best_total;
    log->emit(e);
  }
  return HvAllocResult{};
}

HvAllocResult allocate_even_partition(std::span<const model::Vcpu> vcpus,
                                      const model::PlatformSpec& platform) {
  VC2M_CHECK(!vcpus.empty());
  PhaseTimer timer(&util::AllocCounters::hv_alloc_seconds);
  VC2M_PROFILE_PHASE("hv_alloc");
  VC2M_PROFILE_PHASE("even_partition");
  const auto& grid = platform.grid;
  const unsigned m = platform.cores;
  const unsigned c_even =
      std::max(grid.c_min, platform.total_cache() / m);
  const unsigned b_even = std::max(grid.b_min, platform.total_bw() / m);
  VC2M_CHECK_MSG(m * grid.c_min <= platform.total_cache() &&
                     m * grid.b_min <= platform.total_bw(),
                 "platform cannot give every core the minimum partitions");

  std::vector<double> weights;
  weights.reserve(vcpus.size());
  for (const auto& v : vcpus) weights.push_back(v.utilization(c_even, b_even));

  auto bins = packing::best_fit_decreasing(weights, 1.0, m);
  if (!bins) {
    if (auto* log = obs::decision_log()) {
      double w_max = 0;
      std::size_t worst = 0;
      for (std::size_t vi = 0; vi < weights.size(); ++vi)
        if (weights[vi] > w_max) {
          w_max = weights[vi];
          worst = vi;
        }
      obs::DecisionEvent e;
      e.kind = obs::DecisionKind::kBinPack;
      e.constraint = w_max > 1.0
                         ? obs::DecisionConstraint::kVcpuExceedsCore
                         : obs::DecisionConstraint::kCoreLimit;
      e.vm = vcpus[worst].vm;
      e.entity = static_cast<std::int32_t>(worst);
      e.core = static_cast<std::int32_t>(m);
      e.cache = static_cast<std::int32_t>(c_even);
      e.bw = static_cast<std::int32_t>(b_even);
      e.value = w_max;
      e.margin = std::max(0.0, w_max - 1.0);
      log->emit(e);
    }
    return HvAllocResult{};
  }

  CoreState st;
  st.loads.reserve(bins->size());
  for (const auto& bin : *bins) st.loads.emplace_back(vcpus, grid, bin);
  st.at.assign(st.loads.size(), grid.point(c_even, b_even));
  const bool ok = all_schedulable(st);
  if (!ok) {
    if (auto* log = obs::decision_log()) {
      for (std::size_t i = 0; i < st.size(); ++i) {
        if (sched_of(st, i)) continue;
        obs::DecisionEvent e;
        e.kind = obs::DecisionKind::kHvAttempt;
        e.constraint = obs::DecisionConstraint::kCoreOverUtilized;
        e.core = static_cast<std::int32_t>(i);
        e.cache = static_cast<std::int32_t>(c_even);
        e.bw = static_cast<std::int32_t>(b_even);
        e.value = util_of(st, i);
        e.margin = std::max(0.0, e.value - 1.0);
        // The VM of the core's heaviest VCPU: the most likely culprit.
        double u_max = -1;
        for (const std::size_t v : st.loads[i].members()) {
          const double uv = vcpus[v].utilization(c_even, b_even);
          if (uv > u_max) {
            u_max = uv;
            e.vm = vcpus[v].vm;
            e.entity = static_cast<std::int32_t>(v);
          }
        }
        log->emit(e);
      }
    }
  }
  return to_result(st, ok);
}

}  // namespace vc2m::core

// Random real-time workload generation following §5.1 of the paper.
//
// Each taskset contains implicit-deadline periodic tasks with harmonic
// periods uniformly spread over [100, 1100] ms and utilizations drawn from a
// uniform or one of three bimodal distributions. WCET surfaces come from
// randomly chosen PARSEC profiles: a task's maximum WCET is u_i · p_i, its
// reference WCET is that divided by the benchmark's maximum slowdown factor
// s_k^max, and e_i(c,b) = e*_i · s_k(c,b). Tasks are generated until the
// total reference utilization reaches the target (the last task is scaled
// to land exactly on it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "model/resource_grid.h"
#include "model/task.h"
#include "util/rng.h"
#include "workload/parsec.h"

namespace vc2m::workload {

/// Task-utilization distributions of §5.1. The bimodal variants draw from
/// U[0.1,0.4] with probability q and from U[0.5,0.9] with probability 1-q,
/// where q = 8/9 (light), 6/9 (medium), 4/9 (heavy).
enum class UtilDist { kUniform, kBimodalLight, kBimodalMedium, kBimodalHeavy };

/// Display name, e.g. "bimodal-light".
std::string to_string(UtilDist d);

/// Parse the short name the CLI and scenarios use ("uniform", "light",
/// "medium", "heavy"): true and `out` set, or false.
bool util_dist_from_string(std::string_view s, UtilDist& out);

/// Draw one task utilization from `dist`.
double draw_utilization(UtilDist dist, util::Rng& rng);

struct GeneratorConfig {
  model::ResourceGrid grid;          ///< platform resource grid
  double target_ref_utilization = 1.0;  ///< Σ e*_i/p_i to reach
  UtilDist dist = UtilDist::kUniform;
  int num_vms = 1;                   ///< tasks are assigned round-robin
  util::Time period_lo = util::Time::ms(100);
  util::Time period_hi = util::Time::ms(1100);
  /// Entries in the per-taskset harmonic period menu ({base · 2^k}).
  unsigned harmonic_levels = 4;
};

/// Generate one taskset into `out`, replacing its tasks but reusing their
/// storage (WCET tables, labels) and the vector's. Deterministic given the
/// RNG state.
void generate_taskset(const GeneratorConfig& cfg, util::Rng& rng,
                      model::Taskset& out);
/// The same taskset, returned.
model::Taskset generate_taskset(const GeneratorConfig& cfg, util::Rng& rng);

/// The per-taskset harmonic period menu {base · 2^k | k < levels}, held
/// as its base.
struct HarmonicMenu {
  util::Time base;
  unsigned levels = 0;

  std::size_t size() const { return levels; }
  util::Time operator[](std::size_t k) const {
    return base * (std::int64_t{1} << k);
  }
};

/// Draw a menu: base ~ U[lo, hi/2^(levels-1)), quantized to 1 ms. All
/// entries lie in [lo, hi].
HarmonicMenu harmonic_period_menu(const GeneratorConfig& cfg, util::Rng& rng);

}  // namespace vc2m::workload

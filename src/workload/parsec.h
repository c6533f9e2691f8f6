// Synthetic PARSEC benchmark profiles.
//
// The paper profiles the PARSEC suite (simlarge inputs) on its prototype to
// obtain, per benchmark k, the slowdown vector s_k(c,b) for c = 2..20 and
// b = 1..20, the maximum WCET (worst-case bandwidth, cache disabled), and
// the maximum slowdown factor s_k^max. We have no CAT hardware, so we
// replace measurement with a physical latency model that preserves the
// properties the evaluation depends on:
//
//   T(c,b) = T_cpu + T_mem · miss(c) · stall(c,b)
//
// where miss(c) is a working-set miss curve (exponential knee, normalized to
// miss(C) = 1) and stall(c,b) = max(1, bw_demand(c)/b) models bandwidth
// throttling below the benchmark's saturation point. The surfaces are
// monotone non-increasing in c and b, equal 1 at the reference allocation
// (C, B), and differ in character per benchmark (compute-bound vs
// cache-sensitive vs streaming) — exactly the variation §3.3 reports.
#pragma once

#include <string>
#include <vector>

#include "model/resource_grid.h"
#include "model/surface.h"

namespace vc2m::workload {

/// The working-set miss curve shared by the profile library and the
/// simulator's execution model: exponential decay from `miss_amp` at c = 1
/// to exactly 1 at c = c_max.
double miss_curve(double c, double c_max, double miss_amp, double ws_decay);

struct ParsecProfile {
  std::string name;

  /// Fraction of the reference execution time spent waiting on memory.
  double mem_frac = 0.2;
  /// miss(1)/miss(C): how much worse the miss rate gets with one partition.
  double miss_amp = 2.0;
  /// Working-set decay constant of the miss curve (partitions).
  double ws_decay = 4.0;
  /// Bandwidth partitions needed at the reference miss rate to avoid stalls.
  double bw_sat = 4.0;
  /// Extra miss amplification when the cache is disabled entirely
  /// (the "maximum WCET" configuration lies outside the CAT grid).
  double nocache_amp = 1.3;
  /// Slowdown of the *compute* portion with the cache disabled: instruction
  /// fetches and hot-loop data that normally never leave L1/L2 go to DRAM,
  /// so even compute-bound code slows several-fold in the maximum-WCET
  /// configuration. Applies only to max_slowdown().
  double nocache_cpu_penalty = 3.5;

  /// Relative miss rate at c partitions (c may be below grid.c_min when
  /// modelling the cache-disabled point); miss_rel(grid.c_max) == 1.
  double miss_rel(double c, const model::ResourceGrid& grid) const;

  /// Slowdown s(c, b) relative to the reference allocation (C, B).
  double slowdown(double c, double b, const model::ResourceGrid& grid) const;

  /// The dense slowdown surface over the grid; s(C,B) == 1.
  model::Surface surface(const model::ResourceGrid& grid) const;

  /// s^max: slowdown with the cache disabled and worst-case bandwidth,
  /// i.e. the ratio of the maximum WCET to the reference WCET (§5.1).
  double max_slowdown(const model::ResourceGrid& grid) const;
};

/// The twelve-benchmark suite used by the evaluation. Stable order.
const std::vector<ParsecProfile>& parsec_suite();

/// Lookup by name; throws util::Error if unknown.
const ParsecProfile& find_profile(const std::string& name);

/// Every suite profile evaluated on one grid: the slowdown surfaces and
/// s^max values in parsec_suite() order.
struct SurfaceTable {
  std::vector<model::Surface> surfaces;
  std::vector<double> s_max;
};

/// The suite's table for `grid`, built on the first call for that grid and
/// shared read-only afterwards (safe to call from any thread). The profiles
/// are constants, so a table never goes stale and is never rebuilt.
const SurfaceTable& surface_table(const model::ResourceGrid& grid);

}  // namespace vc2m::workload

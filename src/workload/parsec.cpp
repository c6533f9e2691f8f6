#include "workload/parsec.h"

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "util/error.h"

namespace vc2m::workload {

double miss_curve(double c, double c_max, double miss_amp, double ws_decay) {
  // Exponential working-set curve, pinned to miss_amp at c = 1 and to 1 at
  // c = c_max. Values below c = 1 model the cache-disabled point.
  const double span = c_max - 1.0;
  VC2M_CHECK(span > 0);
  const double e_c = std::exp(-(c - 1.0) / ws_decay);
  const double e_max = std::exp(-span / ws_decay);
  const double shape = (e_c - e_max) / (1.0 - e_max);
  return 1.0 + (miss_amp - 1.0) * shape;
}

double ParsecProfile::miss_rel(double c, const model::ResourceGrid& grid) const {
  return miss_curve(c, static_cast<double>(grid.c_max), miss_amp, ws_decay);
}

namespace {
/// DRAM minimum-service floor: even a stream squeezed to one bandwidth
/// partition retains a fraction of peak service (row-buffer batching,
/// prefetch trains), so the stall factor saturates. Keeps the modeled
/// maximum WCETs in the 2–6× range the paper's testbed exhibits.
constexpr double kMaxStall = 4.0;
}  // namespace

double ParsecProfile::slowdown(double c, double b,
                               const model::ResourceGrid& grid) const {
  const double miss = miss_rel(c, grid);
  // Bandwidth demand grows with the miss rate; stalls appear when the
  // allocation b cannot carry the demand, saturating at the service floor.
  const double demand = bw_sat * miss;
  const double stall = std::min(kMaxStall, std::max(1.0, demand / b));
  const double t = (1.0 - mem_frac) + mem_frac * miss * stall;
  // Normalize so that s(C, B) == 1 even if bw_sat > B on a small platform.
  const double ref_stall = std::max(1.0, bw_sat / static_cast<double>(grid.b_max));
  const double t_ref = (1.0 - mem_frac) + mem_frac * ref_stall;
  return t / t_ref;
}

model::Surface ParsecProfile::surface(const model::ResourceGrid& grid) const {
  model::Surface s(grid);
  for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b)
      s.set(c, b, slowdown(c, b, grid));
  return s;
}

double ParsecProfile::max_slowdown(const model::ResourceGrid& grid) const {
  // Cache disabled: every access misses — nocache_amp beyond the 1-partition
  // miss rate, and the compute portion pays the instruction-fetch penalty.
  // Worst-case bandwidth: b = 1 partition (stall saturates at the service
  // floor, as in slowdown()).
  const double miss = miss_rel(1.0, grid) * nocache_amp;
  const double stall = std::min(kMaxStall, std::max(1.0, bw_sat * miss));
  const double t =
      (1.0 - mem_frac) * nocache_cpu_penalty + mem_frac * miss * stall;
  const double ref_stall = std::max(1.0, bw_sat / static_cast<double>(grid.b_max));
  const double t_ref = (1.0 - mem_frac) + mem_frac * ref_stall;
  return t / t_ref;
}

const std::vector<ParsecProfile>& parsec_suite() {
  // Parameters chosen to span PARSEC's published characterization [1]:
  // compute-bound (blackscholes, swaptions), cache-sensitive with moderate
  // working sets (bodytrack, freqmine, dedup, ferret), streaming /
  // bandwidth-bound (streamcluster, canneal), and mixed (the rest).
  //                     name             mem    amp   ws    sat  nocache
  // (nocache_cpu_penalty keeps its 3.5 default everywhere)
  static const std::vector<ParsecProfile> kSuite = {
      {"blackscholes", 0.10, 1.40, 3.0, 2.0, 1.30},
      {"bodytrack", 0.36, 2.40, 5.5, 6.0, 1.30},
      {"canneal", 0.75, 1.40, 9.0, 11.0, 1.15},
      {"dedup", 0.58, 2.80, 6.5, 8.0, 1.25},
      {"facesim", 0.52, 2.20, 7.0, 7.0, 1.25},
      {"ferret", 0.62, 2.50, 6.5, 7.0, 1.20},
      {"fluidanimate", 0.46, 2.30, 5.5, 6.5, 1.30},
      {"freqmine", 0.60, 2.80, 5.0, 7.5, 1.20},
      {"streamcluster", 0.78, 1.35, 8.0, 12.0, 1.15},
      {"swaptions", 0.05, 1.25, 3.0, 1.5, 1.40},
      {"vips", 0.50, 2.00, 6.5, 8.0, 1.25},
      {"x264", 0.55, 1.80, 7.0, 8.5, 1.25},
  };
  return kSuite;
}

const ParsecProfile& find_profile(const std::string& name) {
  for (const auto& p : parsec_suite())
    if (p.name == name) return p;
  throw util::Error("unknown PARSEC profile: " + name);
}

const SurfaceTable& surface_table(const model::ResourceGrid& grid) {
  grid.validate();
  // One immutable table per distinct grid, never freed: a process sees a
  // handful of grids (the platforms), ~36 KB each on a 20×20 grid.
  static std::mutex mu;
  static std::map<std::array<unsigned, 4>, std::unique_ptr<const SurfaceTable>>
      tables;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[{grid.c_min, grid.c_max, grid.b_min, grid.b_max}];
  if (!slot) {
    auto t = std::make_unique<SurfaceTable>();
    for (const auto& p : parsec_suite()) {
      t->surfaces.push_back(p.surface(grid));
      t->s_max.push_back(p.max_slowdown(grid));
    }
    slot = std::move(t);
  }
  return *slot;
}

}  // namespace vc2m::workload

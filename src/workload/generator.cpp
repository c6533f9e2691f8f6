#include "workload/generator.h"

#include <cmath>

#include "util/error.h"
#include "util/names.h"

namespace vc2m::workload {

namespace {

/// Indexed by UtilDist: the parsed name and the display name.
struct UtilDistRow {
  const char* name;
  const char* display;
};
constexpr UtilDistRow kUtilDists[] = {{"uniform", "uniform"},
                                      {"light", "bimodal-light"},
                                      {"medium", "bimodal-medium"},
                                      {"heavy", "bimodal-heavy"}};

}  // namespace

std::string to_string(UtilDist d) {
  const auto i = static_cast<std::size_t>(d);
  return i < std::size(kUtilDists) ? kUtilDists[i].display : "?";
}

bool util_dist_from_string(std::string_view s, UtilDist& out) {
  return util::enum_from_name(kUtilDists, s, out);
}

double draw_utilization(UtilDist dist, util::Rng& rng) {
  const auto light = [&] { return rng.uniform(0.1, 0.4); };
  const auto heavy = [&] { return rng.uniform(0.5, 0.9); };
  switch (dist) {
    case UtilDist::kUniform: return light();
    case UtilDist::kBimodalLight: return rng.bernoulli(8.0 / 9.0) ? light() : heavy();
    case UtilDist::kBimodalMedium: return rng.bernoulli(6.0 / 9.0) ? light() : heavy();
    case UtilDist::kBimodalHeavy: return rng.bernoulli(4.0 / 9.0) ? light() : heavy();
  }
  VC2M_CHECK_MSG(false, "unreachable utilization distribution");
  return 0;
}

HarmonicMenu harmonic_period_menu(const GeneratorConfig& cfg,
                                  util::Rng& rng) {
  VC2M_CHECK(cfg.harmonic_levels >= 1);
  VC2M_CHECK(cfg.period_lo < cfg.period_hi);
  const std::int64_t scale = std::int64_t{1} << (cfg.harmonic_levels - 1);
  // base · 2^(levels-1) must not exceed period_hi.
  const std::int64_t base_hi = cfg.period_hi.raw_ns() / scale;
  VC2M_CHECK_MSG(base_hi > cfg.period_lo.raw_ns(),
                 "period range too narrow for the harmonic menu");
  // Quantize the base to 1 ms so hyperperiods stay human-readable; the
  // harmonic structure is exact regardless.
  const std::int64_t ms = 1'000'000;
  const std::int64_t base_ms =
      rng.uniform_int(cfg.period_lo.raw_ns() / ms, base_hi / ms);
  return {util::Time::ns(base_ms * ms), cfg.harmonic_levels};
}

model::Taskset generate_taskset(const GeneratorConfig& cfg, util::Rng& rng) {
  model::Taskset ts;
  generate_taskset(cfg, rng, ts);
  return ts;
}

void generate_taskset(const GeneratorConfig& cfg, util::Rng& rng,
                      model::Taskset& out) {
  cfg.grid.validate();
  VC2M_CHECK(cfg.target_ref_utilization > 0);
  VC2M_CHECK(cfg.num_vms >= 1);

  const auto& suite = parsec_suite();
  const HarmonicMenu menu = harmonic_period_menu(cfg, rng);
  const SurfaceTable& table = surface_table(cfg.grid);
  const auto& surfaces = table.surfaces;
  const auto& s_max = table.s_max;

  std::size_t n = 0;
  double total_ref = 0;
  while (total_ref < cfg.target_ref_utilization) {
    const std::size_t k = rng.index(suite.size());
    const double u_max = draw_utilization(cfg.dist, rng);
    const util::Time p = menu[rng.index(menu.size())];

    // e_i^max = u_i · p_i; e*_i = e_i^max / s_k^max (§5.1).
    double ref_util = u_max / s_max[k];
    double ref_wcet_ns = ref_util * static_cast<double>(p.raw_ns());

    // Scale the last task down so the taskset lands exactly on the target.
    const double remaining = cfg.target_ref_utilization - total_ref;
    if (ref_util > remaining) {
      ref_util = remaining;
      ref_wcet_ns = ref_util * static_cast<double>(p.raw_ns());
    }
    const auto ref_wcet = util::Time::ns(
        std::max<std::int64_t>(1, static_cast<std::int64_t>(ref_wcet_ns + 0.5)));

    if (n == out.size()) out.emplace_back();
    model::Task& task = out[n];
    task.period = p;
    task.wcet.assign_slowdown(ref_wcet, surfaces[k]);
    task.max_wcet = util::Time::ns(static_cast<std::int64_t>(
        static_cast<double>(ref_wcet.raw_ns()) * s_max[k] + 0.5));
    task.vm = static_cast<int>(n) % cfg.num_vms;
    task.label = suite[k].name;
    ++n;
    total_ref += ref_util;
  }
  out.resize(n);
}

}  // namespace vc2m::workload

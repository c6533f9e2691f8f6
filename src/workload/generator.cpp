#include "workload/generator.h"

#include <cmath>

#include "util/error.h"

namespace vc2m::workload {

std::string to_string(UtilDist d) {
  switch (d) {
    case UtilDist::kUniform: return "uniform";
    case UtilDist::kBimodalLight: return "bimodal-light";
    case UtilDist::kBimodalMedium: return "bimodal-medium";
    case UtilDist::kBimodalHeavy: return "bimodal-heavy";
  }
  return "?";
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

std::vector<util::Time> harmonic_period_menu(const GeneratorConfig& cfg,
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
  std::vector<util::Time> menu;
  menu.reserve(cfg.harmonic_levels);
  for (unsigned k = 0; k < cfg.harmonic_levels; ++k)
    menu.push_back(util::Time::ns(base_ms * ms * (std::int64_t{1} << k)));
  return menu;
}

model::Taskset generate_taskset(const GeneratorConfig& cfg, util::Rng& rng) {
  cfg.grid.validate();
  VC2M_CHECK(cfg.target_ref_utilization > 0);
  VC2M_CHECK(cfg.num_vms >= 1);

  const auto& suite = parsec_suite();
  const auto menu = harmonic_period_menu(cfg, rng);
  const SurfaceTable& table = surface_table(cfg.grid);
  const auto& surfaces = table.surfaces;
  const auto& s_max = table.s_max;

  model::Taskset ts;
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

    model::Task task;
    task.period = p;
    task.wcet = model::WcetFn::from_slowdown(ref_wcet, surfaces[k]);
    task.max_wcet = util::Time::ns(static_cast<std::int64_t>(
        static_cast<double>(ref_wcet.raw_ns()) * s_max[k] + 0.5));
    task.vm = static_cast<int>(ts.size()) % cfg.num_vms;
    task.label = suite[k].name;
    ts.push_back(std::move(task));
    total_ref += ref_util;
  }
  return ts;
}

}  // namespace vc2m::workload

// The generator's taskset (workload/generator.h) for one reference
// utilization, seed and VM count, on Platform A's resource grid unless a
// test names another: the input most engine and simulator tests start from.
#pragma once

#include <cstdint>

#include "model/platform.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m::tests {

inline model::Taskset generated(
    double util, std::uint64_t seed, int vms = 1,
    const model::ResourceGrid& grid = model::PlatformSpec::A().grid) {
  workload::GeneratorConfig cfg;
  cfg.grid = grid;
  cfg.target_ref_utilization = util;
  cfg.num_vms = vms;
  util::Rng rng(seed);
  return workload::generate_taskset(cfg, rng);
}

}  // namespace vc2m::tests

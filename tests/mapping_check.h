// The one validity check of a placement (core::HvAllocResult) over its
// VCPUs, for every allocator test: the HV heuristic, the exact search,
// admission states and the solve pipeline all produce one.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "analysis/schedulability.h"
#include "core/hv_alloc.h"
#include "model/platform.h"
#include "model/task.h"

namespace vc2m::tests {

/// `mapping` is a schedulable placement of exactly `vcpus` on `platform`:
/// the per-core vectors agree with cores_used, each VCPU index is in range
/// and placed exactly once, every core's partitions lie within [C_min, C]
/// and [B_min, B], the partitions sum to at most the pools, and every core
/// passes the exact Σ Θ/Π ≤ 1 test at its partitions. `label` prefixes
/// every failure.
inline void expect_valid_mapping(const core::HvAllocResult& mapping,
                                 std::span<const model::Vcpu> vcpus,
                                 const model::PlatformSpec& platform,
                                 const std::string& label = "") {
  ASSERT_TRUE(mapping.schedulable) << label;
  ASSERT_EQ(mapping.vcpus_on_core.size(), mapping.cores_used) << label;
  ASSERT_EQ(mapping.cache.size(), mapping.cores_used) << label;
  ASSERT_EQ(mapping.bw.size(), mapping.cores_used) << label;
  EXPECT_LE(mapping.cores_used, platform.cores) << label;
  EXPECT_LE(mapping.total_cache(), platform.total_cache()) << label;
  EXPECT_LE(mapping.total_bw(), platform.total_bw()) << label;
  const auto& grid = platform.grid;
  std::vector<unsigned> placed(vcpus.size(), 0);
  for (unsigned k = 0; k < mapping.cores_used; ++k) {
    const std::string core = label + " core " + std::to_string(k);
    EXPECT_GE(mapping.cache[k], grid.c_min) << core;
    EXPECT_LE(mapping.cache[k], grid.c_max) << core;
    EXPECT_GE(mapping.bw[k], grid.b_min) << core;
    EXPECT_LE(mapping.bw[k], grid.b_max) << core;
    bool in_range = true;
    for (const std::size_t v : mapping.vcpus_on_core[k]) {
      EXPECT_LT(v, vcpus.size()) << core;
      if (v < vcpus.size())
        ++placed[v];
      else
        in_range = false;
    }
    if (in_range) {
      EXPECT_TRUE(analysis::core_schedulable(vcpus, mapping.vcpus_on_core[k],
                                             mapping.cache[k], mapping.bw[k]))
          << core;
    }
  }
  for (std::size_t v = 0; v < vcpus.size(); ++v)
    EXPECT_EQ(placed[v], 1u) << label << " VCPU " << v << " placements";
}

}  // namespace vc2m::tests

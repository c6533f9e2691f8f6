// Evaluation platforms (§5.1).
//
// The paper evaluates three platform configurations modelled after the Intel
// Xeon 2618L v3 (A), Xeon D-1528 (B), and Xeon D-1518 (C). The number of
// bandwidth partitions equals the number of cache partitions on each
// platform (C = B), and C_min = 2 (the architectural minimum CBM width on
// these parts) while B_min = 1.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "model/resource_grid.h"
#include "util/names.h"

namespace vc2m::model {

struct PlatformSpec {
  std::string name;
  unsigned cores = 0;
  ResourceGrid grid;

  unsigned total_cache() const { return grid.c_max; }
  unsigned total_bw() const { return grid.b_max; }

  static ResourceGrid make_grid(unsigned partitions) {
    return ResourceGrid{/*c_min=*/2, /*c_max=*/partitions,
                        /*b_min=*/1, /*b_max=*/partitions};
  }

  /// Platform A: 4 cores, 20 cache/BW partitions (Xeon E5-2618L v3).
  static PlatformSpec A() { return {"Platform A", 4, make_grid(20)}; }
  /// Platform B: 6 cores, 20 cache/BW partitions (Xeon D-1528).
  static PlatformSpec B() { return {"Platform B", 6, make_grid(20)}; }
  /// Platform C: 4 cores, 12 cache/BW partitions (Xeon D-1518).
  static PlatformSpec C() { return {"Platform C", 4, make_grid(12)}; }
};

/// The platforms by the names the CLI, scenarios and reports spell them.
struct PlatformRow {
  const char* name;
  PlatformSpec (*make)();
};
inline constexpr PlatformRow kPlatforms[] = {
    {"A", &PlatformSpec::A}, {"B", &PlatformSpec::B}, {"C", &PlatformSpec::C}};

/// The platform named `name` ("A", "B" or "C"), or nullopt.
inline std::optional<PlatformSpec> platform_from_name(std::string_view name) {
  const PlatformRow* row = util::find_row(kPlatforms, name);
  if (!row) return std::nullopt;
  return row->make();
}

}  // namespace vc2m::model

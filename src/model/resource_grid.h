// The (cache, bandwidth) allocation domain of §4.1.
//
// A platform exposes C equal-size cache partitions and B equal-size memory
// bandwidth partitions; a core may be allocated c ∈ [C_min, C] cache
// partitions and b ∈ [B_min, B] bandwidth partitions. Every per-task WCET
// function e_i(c,b) and per-VCPU budget function Θ_j(c,b) is defined over
// this rectangular grid.
#pragma once

#include <cstddef>

#include "util/error.h"

namespace vc2m::model {

/// A grid point (c, b) together with its row-major flat index, for callers
/// that probe one point of several surfaces: the index is computed once.
struct GridPoint {
  unsigned c = 0;
  unsigned b = 0;
  std::size_t flat = 0;
};

struct ResourceGrid {
  unsigned c_min = 1;  ///< minimum cache partitions per core (C_min)
  unsigned c_max = 1;  ///< total cache partitions (C)
  unsigned b_min = 1;  ///< minimum bandwidth partitions per core (B_min)
  unsigned b_max = 1;  ///< total bandwidth partitions (B)

  constexpr unsigned cache_levels() const { return c_max - c_min + 1; }
  constexpr unsigned bw_levels() const { return b_max - b_min + 1; }
  constexpr std::size_t size() const {
    return static_cast<std::size_t>(cache_levels()) * bw_levels();
  }

  constexpr bool contains(unsigned c, unsigned b) const {
    return c >= c_min && c <= c_max && b >= b_min && b <= b_max;
  }

  /// Row-major index of (c, b) into a flattened surface.
  std::size_t index(unsigned c, unsigned b) const {
    VC2M_CHECK_MSG(contains(c, b),
                   "(" << c << "," << b << ") outside resource grid");
    return static_cast<std::size_t>(c - c_min) * bw_levels() + (b - b_min);
  }

  /// (c, b) with its checked flat index.
  GridPoint point(unsigned c, unsigned b) const { return {c, b, index(c, b)}; }
  /// The neighbours of p with one more cache / bandwidth partition. The
  /// caller has checked p.c < c_max / p.b < b_max.
  constexpr GridPoint more_cache(GridPoint p) const {
    return {p.c + 1, p.b, p.flat + bw_levels()};
  }
  constexpr GridPoint more_bw(GridPoint p) const {
    return {p.c, p.b + 1, p.flat + 1};
  }

  void validate() const {
    VC2M_CHECK(c_min >= 1 && c_min <= c_max);
    VC2M_CHECK(b_min >= 1 && b_min <= b_max);
  }

  friend constexpr bool operator==(const ResourceGrid&,
                                   const ResourceGrid&) = default;
};

}  // namespace vc2m::model

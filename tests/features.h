// k-means inputs written as rows: one core::FeatureMatrix holding them.
#pragma once

#include <vector>

#include "core/kmeans.h"

namespace vc2m::tests {

/// `rows` (all of one dimension) as a FeatureMatrix; no rows gives an
/// empty one-dimensional matrix.
inline core::FeatureMatrix features(
    const std::vector<std::vector<double>>& rows) {
  core::FeatureMatrix m(rows.empty() ? 1 : rows.front().size());
  m.reserve_rows(rows.size());
  for (const auto& r : rows) m.add_row(r);
  return m;
}

}  // namespace vc2m::tests

// k-means inputs written as rows: one core::FeatureMatrix holding them.
#pragma once

#include <algorithm>
#include <vector>

#include "core/kmeans.h"
#include "util/error.h"

namespace vc2m::tests {

/// `rows` (all of one dimension) as a FeatureMatrix; no rows gives an
/// empty one-dimensional matrix.
inline core::FeatureMatrix features(
    const std::vector<std::vector<double>>& rows) {
  core::FeatureMatrix m(rows.empty() ? 1 : rows.front().size());
  m.reserve_rows(rows.size());
  for (const auto& r : rows) {
    VC2M_CHECK(r.size() == m.dim());
    std::copy(r.begin(), r.end(), m.add_row());
  }
  return m;
}

}  // namespace vc2m::tests

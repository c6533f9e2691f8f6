// KMeans clustering over slowdown vectors.
//
// Both allocation levels group entities (tasks at VM level, VCPUs at
// hypervisor level) whose slowdown vectors are similar, so that entities
// sharing a core make similar use of the cache/BW partitions granted to it
// (§4.2, §4.3). Features are the flattened s(c,b) surfaces; distance is
// Euclidean; seeding is kmeans++ from the caller's RNG so results are
// reproducible.
//
// The points live in one contiguous row-major matrix that the callers fill
// straight from their WCET/budget tables. Every squared distance is summed
// in dimension order, one accumulator per pair, however many pairs a pass
// computes, so results do not depend on the blocking.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "model/surface.h"
#include "util/rng.h"

namespace vc2m::core {

/// Points as one contiguous row-major rows() × dim() matrix.
class FeatureMatrix {
 public:
  explicit FeatureMatrix(std::size_t dim) : dim_(dim) {}

  std::size_t rows() const { return dim_ == 0 ? 0 : values_.size() / dim_; }
  std::size_t dim() const { return dim_; }
  const double* row(std::size_t i) const { return values_.data() + i * dim_; }

  void reserve_rows(std::size_t n) { values_.reserve(n * dim_); }
  /// Appends one point of dim() coordinates.
  void add_row(std::span<const double> point);
  /// Appends f's slowdown vector e(c,b)/e(C,B): the values of
  /// WcetFn::slowdown(), without the Surface temporary.
  void add_slowdown(const model::WcetFn& f);

 private:
  std::size_t dim_;
  std::vector<double> values_;
};

struct KMeansResult {
  /// assignment[i] = cluster of point i, in [0, k).
  std::vector<std::size_t> assignment;
  std::vector<std::vector<double>> centroids;
  unsigned iterations = 0;
};

/// Lloyd's algorithm with kmeans++ seeding. Requires 1 <= k <= rows() and
/// dim() > 0. Empty clusters are repaired by stealing the point farthest
/// from its current centroid.
KMeansResult kmeans(const FeatureMatrix& points, std::size_t k,
                    util::Rng& rng, unsigned max_iters = 50);

/// Convenience overload: copies `points` (all of equal, non-zero
/// dimension) into a FeatureMatrix.
KMeansResult kmeans(const std::vector<std::vector<double>>& points,
                    std::size_t k, util::Rng& rng, unsigned max_iters = 50);

/// Invert an assignment into per-cluster member lists (clusters may be
/// empty only if kmeans() was given degenerate duplicate points).
std::vector<std::vector<std::size_t>> cluster_members(
    const KMeansResult& result, std::size_t k);

}  // namespace vc2m::core

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
// computes, so results do not depend on the blocking. Triangle-inequality
// bounds (Elkan, ICML 2003) skip every distance that is provably larger
// than one already known; what is left is computed exactly, so the result
// is the one that computing every distance gives, bit for bit.
#pragma once

#include <algorithm>
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
  /// Drops every row and sets the dimension, keeping the storage.
  void clear(std::size_t dim) {
    dim_ = dim;
    values_.clear();
  }
  /// Appends one point of dim() zeros and returns it, to be filled in
  /// place.
  double* add_row() {
    values_.resize(values_.size() + dim_);
    return values_.data() + values_.size() - dim_;
  }
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
  /// k centroids of the points' dimension, row-major.
  std::vector<double> centroids;
  unsigned iterations = 0;
  /// Point-to-centroid, pick and drift distances computed (each a
  /// dim-term sum). Computing every distance in every iteration would
  /// take k·n per iteration.
  std::size_t distance_evals = 0;
};

/// The tables kmeans() sizes per run, and its result: a caller that
/// clusters again and again keeps one and allocates nothing once the
/// buffers have grown to its largest run.
struct KMeansWorkspace {
  std::vector<double> sums;  ///< k × dim update-step sums
  /// k × dim: the update step's centroids, swapped with result.centroids.
  std::vector<double> next;
  /// k cluster sizes (the k picks while seeding), k stale flags,
  /// then up to n indices of the points whose distances a pass computes.
  std::vector<std::size_t> index;
  /// The distance bounds: n × k lower bounds, then n upper bounds, n
  /// nearest-pick distances, one n-entry seeding column and k drifts.
  std::vector<double> bounds;
  KMeansResult result;
};

/// Lloyd's algorithm with kmeans++ seeding. Requires 1 <= k <= rows() and
/// dim() > 0. Empty clusters are repaired by stealing the point farthest
/// from its current centroid. Features must be finite.
KMeansResult kmeans(const FeatureMatrix& points, std::size_t k,
                    util::Rng& rng, unsigned max_iters = 50);
/// The same run in `ws`'s buffers; returns ws.result.
const KMeansResult& kmeans(const FeatureMatrix& points, std::size_t k,
                           util::Rng& rng, KMeansWorkspace& ws,
                           unsigned max_iters = 50);

/// Cluster membership as one flat index array: cluster c's points are
/// members[offsets[c] .. offsets[c + 1]).
struct Clusters {
  std::vector<std::size_t> members;
  std::vector<std::size_t> offsets;  ///< size() + 1 entries

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const std::size_t> operator[](std::size_t c) const {
    return {members.data() + offsets[c], offsets[c + 1] - offsets[c]};
  }
  /// std::sort each cluster's members by `less`.
  template <typename Less>
  void sort_each(Less&& less) {
    for (std::size_t c = 0; c < size(); ++c)
      std::sort(members.begin() + static_cast<std::ptrdiff_t>(offsets[c]),
                members.begin() + static_cast<std::ptrdiff_t>(offsets[c + 1]),
                less);
  }
};

/// Invert an assignment into per-cluster members, each cluster in
/// increasing point order (clusters may be empty only if kmeans() was
/// given degenerate duplicate points).
Clusters cluster_members(const KMeansResult& result, std::size_t k);
/// The same into `out`, reusing its storage.
void cluster_members(const KMeansResult& result, std::size_t k, Clusters& out);

}  // namespace vc2m::core

#include "core/kmeans.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::core {

namespace {

/// Σ (a[d] − b[d])² in dimension order.
double distance(const double* a, const double* b, std::size_t dim) {
  double s = 0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

/// distance(a[j], b[j]) for four pairs in one pass. Each pair keeps its own
/// accumulator, summed in dimension order, so out[j] is bit-identical to
/// distance(a[j], b[j], dim); the four independent chains just overlap.
void distance4(const double* const a[4], const double* const b[4],
               std::size_t dim, double out[4]) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double d0 = a[0][d] - b[0][d], d1 = a[1][d] - b[1][d];
    const double d2 = a[2][d] - b[2][d], d3 = a[3][d] - b[3][d];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

/// nearest[i] = min(nearest[i], distance(point i, c)) for every point, four
/// points per pass; a short last block repeats its last point.
void lower_nearest(const FeatureMatrix& points, const double* c,
                   std::vector<double>& nearest) {
  const std::size_t n = points.rows(), dim = points.dim();
  const double* const cs[4] = {c, c, c, c};
  for (std::size_t i = 0; i < n; i += 4) {
    const double* ps[4];
    for (std::size_t j = 0; j < 4; ++j)
      ps[j] = points.row(std::min(i + j, n - 1));
    double d[4];
    distance4(ps, cs, dim, d);
    for (std::size_t j = 0; j < 4 && i + j < n; ++j)
      nearest[i + j] = std::min(nearest[i + j], d[j]);
  }
}

/// kmeans++: first centroid uniform, then proportional to squared distance
/// from the nearest chosen centroid. `centroids` (k × dim, row-major)
/// receives the picks. Each point's distance to its nearest pick is kept
/// running and lowered against each new pick only.
void seed_centroids(const FeatureMatrix& points, std::size_t k,
                    util::Rng& rng, std::vector<double>& centroids) {
  const std::size_t n = points.rows(), dim = points.dim();
  const auto pick_row = [&](std::size_t c, std::size_t i) {
    std::copy_n(points.row(i), dim, centroids.begin() + c * dim);
  };
  pick_row(0, rng.index(n));
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  for (std::size_t chosen = 1; chosen < k; ++chosen) {
    lower_nearest(points, centroids.data() + (chosen - 1) * dim, nearest);
    double total = 0;
    for (const double d2 : nearest) total += d2;
    std::size_t pick;
    if (total <= 0) {
      // All points coincide with existing centroids; any choice works.
      pick = rng.index(n);
    } else {
      double r = rng.uniform01() * total;
      pick = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        r -= nearest[i];
        if (r <= 0) {
          pick = i;
          break;
        }
      }
    }
    pick_row(chosen, pick);
  }
}

/// Index of the centroid nearest to p (lowest index on ties), four
/// centroids per pass; a short last block repeats its last centroid.
std::size_t nearest_centroid(const double* p, const std::vector<double>& cent,
                             std::size_t k, std::size_t dim) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  const double* const ps[4] = {p, p, p, p};
  for (std::size_t c = 0; c < k; c += 4) {
    const double* cs[4];
    for (std::size_t j = 0; j < 4; ++j)
      cs[j] = &cent[std::min(c + j, k - 1) * dim];
    double d[4];
    distance4(ps, cs, dim, d);
    for (std::size_t j = 0; j < 4 && c + j < k; ++j)
      if (d[j] < best_d) {
        best_d = d[j];
        best = c + j;
      }
  }
  return best;
}

}  // namespace

void FeatureMatrix::add_slowdown(const model::WcetFn& f) {
  const auto& values = f.flat();
  VC2M_CHECK_MSG(values.size() == dim_,
                 "slowdown table has " << values.size()
                                       << " cells, features have " << dim_);
  const double ref = static_cast<double>(f.reference().raw_ns());
  VC2M_CHECK_MSG(ref > 0, "reference WCET must be positive");
  for (const util::Time e : values)
    values_.push_back(static_cast<double>(e.raw_ns()) / ref);
}

void FeatureMatrix::add_row(std::span<const double> point) {
  VC2M_CHECK(point.size() == dim_);
  values_.insert(values_.end(), point.begin(), point.end());
}

KMeansResult kmeans(const FeatureMatrix& points, std::size_t k,
                    util::Rng& rng, unsigned max_iters) {
  const std::size_t n = points.rows(), dim = points.dim();
  VC2M_CHECK_MSG(k >= 1 && k <= n,
                 "k=" << k << " incompatible with " << n << " points");
  VC2M_CHECK(dim > 0);

  // Centroids and the update step's sums/counts: one buffer each, reused
  // by every iteration.
  std::vector<double> cent(k * dim);
  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  std::vector<std::uint8_t> stale(k);
  seed_centroids(points, k, rng, cent);

  KMeansResult res;
  res.assignment.assign(n, 0);
  auto& assign = res.assignment;

  double last_shift = 0;  // see AllocCounters::kmeans_final_shift
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    res.iterations = iter + 1;
    // Assignment step.
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t best = nearest_centroid(points.row(i), cent, k, dim);
      if (assign[i] != best) {
        assign[i] = best;
        changed = true;
      }
    }
    if (!changed && iter > 0) break;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      double* s = &sums[assign[i] * dim];
      const double* p = points.row(i);
      for (std::size_t d = 0; d < dim; ++d) s[d] += p[d];
    }
    std::fill(stale.begin(), stale.end(), 0);
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Repair an empty cluster: steal the point farthest from its
        // centroid so every cluster stays populated. Centroids below c are
        // already this step's; one whose cluster loses a point here goes
        // stale (off its members' mean).
        std::size_t worst = 0;
        double worst_d = -1;
        for (std::size_t i = 0; i < n; ++i) {
          if (counts[assign[i]] <= 1) continue;
          const double d =
              distance(points.row(i), &cent[assign[i] * dim], dim);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        if (assign[worst] < c) stale[assign[worst]] = 1;
        --counts[assign[worst]];
        double* from = &sums[assign[worst] * dim];
        const double* p = points.row(worst);
        for (std::size_t d = 0; d < dim; ++d) from[d] -= p[d];
        assign[worst] = c;
        counts[c] = 1;
        std::copy_n(p, dim, &sums[c * dim]);
      }
      const double count = static_cast<double>(counts[c]);
      for (std::size_t d = 0; d < dim; ++d)
        cent[c * dim + d] = sums[c * dim + d] / count;
    }
    // Σ_c ‖centroid_c − sums_c/count_c‖². For finite features a centroid
    // computed from its final sums contributes exactly +0.0, which leaves
    // the sum unchanged, so only stale centroids are measured.
    last_shift = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (!stale[c]) continue;
      const double count = static_cast<double>(counts[c]);
      double shift = 0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff = cent[c * dim + d] - sums[c * dim + d] / count;
        shift += diff * diff;
      }
      last_shift += shift;
    }
  }
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->kmeans_runs;
    ctr->kmeans_iterations += res.iterations;
    ctr->kmeans_final_shift += last_shift;
  }
  res.centroids.reserve(k);
  for (std::size_t c = 0; c < k; ++c)
    res.centroids.emplace_back(cent.data() + c * dim,
                               cent.data() + (c + 1) * dim);
  return res;
}

KMeansResult kmeans(const std::vector<std::vector<double>>& points,
                    std::size_t k, util::Rng& rng, unsigned max_iters) {
  VC2M_CHECK_MSG(!points.empty(),
                 "k=" << k << " incompatible with 0 points");
  FeatureMatrix m(points.front().size());
  m.reserve_rows(points.size());
  for (const auto& p : points) m.add_row(p);
  return kmeans(m, k, rng, max_iters);
}

std::vector<std::vector<std::size_t>> cluster_members(
    const KMeansResult& result, std::size_t k) {
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < result.assignment.size(); ++i) {
    VC2M_CHECK(result.assignment[i] < k);
    members[result.assignment[i]].push_back(i);
  }
  return members;
}

}  // namespace vc2m::core

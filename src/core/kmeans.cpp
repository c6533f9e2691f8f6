#include "core/kmeans.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

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

/// Two doubles in one vector register. Arithmetic on a Pair is lane-wise
/// IEEE arithmetic, so each lane computes bit for bit what the scalar
/// expression computes. The code below uses Pairs for two independent
/// operations per instruction, never to reorder the terms of one sum.
using Pair = double __attribute__((vector_size(16)));

Pair load2(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, Pair v) { std::memcpy(p, &v, sizeof v); }

/// distance(a[j], b) for L points in one pass: L/2 two-lane accumulators,
/// lane j summing a[j]'s terms in dimension order, so out[j] is
/// bit-identical to distance(a[j], b, dim). As a − b is exactly −(b − a),
/// out[j] is also bit-identical to distance(b, a[j], dim).
template <std::size_t L>
void distances(const double* const a[L], const double* b, std::size_t dim,
               double out[L]) {
  static_assert(L % 2 == 0);
  Pair s[L / 2] = {};
  for (std::size_t d = 0; d < dim; ++d) {
    const Pair bb{b[d], b[d]};
    // Unrolled, so the accumulators stay in registers.
#pragma GCC unroll 4
    for (std::size_t j = 0; j < L / 2; ++j) {
      const Pair x = Pair{a[2 * j][d], a[2 * j + 1][d]} - bb;
      s[j] += x * x;
    }
  }
  for (std::size_t j = 0; j < L / 2; ++j) store2(out + 2 * j, s[j]);
}

/// distances<L> over rows(first + j) of an m-row matrix, j < L; a short
/// block repeats the last row. Writes the min(L, m − first) real values.
template <std::size_t L, typename Row>
void distances_block(Row row, std::size_t first, std::size_t m,
                     const double* b, std::size_t dim, double* out) {
  const double* rows[L];
  for (std::size_t j = 0; j < L; ++j) rows[j] = row(std::min(first + j, m - 1));
  double d[L];
  distances<L>(rows, b, dim, d);
  for (std::size_t j = 0; j < L && first + j < m; ++j) out[j] = d[j];
}

/// s[d] += p[d] for every d < dim, two lanes per add.
void accumulate(double* s, const double* p, std::size_t dim) {
  std::size_t d = 0;
  for (; d + 1 < dim; d += 2) store2(s + d, load2(s + d) + load2(p + d));
  if (d < dim) s[d] += p[d];
}

/// out[d] = in[d] / count for every d < dim. A power-of-two count has an
/// exact reciprocal, and x · 2^-j is the same correctly rounded value as
/// x / 2^j, so those counts (1 included) multiply instead of dividing.
void divide(double* out, const double* in, std::size_t count,
            std::size_t dim) {
  const bool pow2 = (count & (count - 1)) == 0;
  const double by = static_cast<double>(count);
  const Pair b{by, by}, inv{1 / by, 1 / by};
  std::size_t d = 0;
  if (pow2)
    for (; d + 1 < dim; d += 2) store2(out + d, load2(in + d) * inv);
  else
    for (; d + 1 < dim; d += 2) store2(out + d, load2(in + d) / b);
  if (d < dim) out[d] = pow2 ? in[d] * inv[0] : in[d] / by;
}

/// col[i] = distance(point i, c) for every point: eight points per pass
/// while more than four remain, then one pass of four.
void distance_column(const FeatureMatrix& points, const double* c,
                     double* col) {
  const std::size_t n = points.rows(), dim = points.dim();
  const auto row = [&](std::size_t i) { return points.row(i); };
  std::size_t i = 0;
  for (; i + 4 < n; i += 8) distances_block<8>(row, i, n, c, dim, col + i);
  if (i < n) distances_block<4>(row, i, n, c, dim, col + i);
}

/// kmeans++: first centroid uniform, then proportional to squared distance
/// from the nearest chosen centroid. `centroids` (k × dim, row-major)
/// receives the picks. `dist` is n × k, column-major: column c receives
/// every point's distance to pick c for c < k − 1, which is each pick but
/// the last (no draw follows it). Each point's distance to its nearest
/// pick is kept running in column k − 1, which is free until then, and
/// lowered against each new column only.
void seed_centroids(const FeatureMatrix& points, std::size_t k,
                    util::Rng& rng, std::vector<double>& centroids,
                    std::vector<double>& dist) {
  const std::size_t n = points.rows(), dim = points.dim();
  const auto pick_row = [&](std::size_t c, std::size_t i) {
    std::copy_n(points.row(i), dim, centroids.begin() + c * dim);
  };
  pick_row(0, rng.index(n));
  double* nearest = dist.data() + (k - 1) * n;
  std::fill_n(nearest, n, std::numeric_limits<double>::infinity());
  for (std::size_t chosen = 1; chosen < k; ++chosen) {
    double* col = dist.data() + (chosen - 1) * n;
    distance_column(points, centroids.data() + (chosen - 1) * dim, col);
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i], col[i]);
      total += nearest[i];
    }
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

/// Iteration 0's assignment step, the centroids still being the picks:
/// completes `dist` (from seed_centroids) with the last pick's column and
/// sets assign[i] to the first index of the smallest of point i's k
/// distances, as nearest_centroid would. With k = 1 every point stays at 0.
void assign_seeded(const FeatureMatrix& points,
                   const std::vector<double>& cent, std::size_t k,
                   std::vector<double>& dist,
                   std::vector<std::size_t>& assign) {
  if (k == 1) return;
  const std::size_t n = points.rows(), dim = points.dim();
  distance_column(points, &cent[(k - 1) * dim], dist.data() + (k - 1) * n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < k; ++c)
      if (dist[c * n + i] < best_d) {
        best_d = dist[c * n + i];
        best = c;
      }
    assign[i] = best;
  }
}

/// Index of the centroid nearest to p (lowest index on ties), four
/// centroids per pass; a short last block repeats its last centroid.
std::size_t nearest_centroid(const double* p, const std::vector<double>& cent,
                             std::size_t k, std::size_t dim) {
  const auto row = [&](std::size_t c) { return &cent[c * dim]; };
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < k; c += 4) {
    double d[4];
    distances_block<4>(row, c, k, p, dim, d);
    for (std::size_t j = 0; j < 4 && c + j < k; ++j)
      if (d[j] < best_d) {
        best_d = d[j];
        best = c + j;
      }
  }
  return best;
}

/// First index of the smallest of d[0..k) (lowest index on ties), as
/// nearest_centroid picks within one block.
std::size_t first_min(const double* d, std::size_t k) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < k; ++j)
    if (d[j] < best_d) {
      best_d = d[j];
      best = j;
    }
  return best;
}

/// distance(p0, c[j]) and distance(p1, c[j]) for four centroids in one
/// pass: eight independent chains, each summed in dimension order, so
/// out[i][j] is bit-identical to distance(p_i, c[j], dim).
void distance2x4(const double* p0, const double* p1, const double* const c[4],
                 std::size_t dim, double out[2][4]) {
  Pair s0a{0, 0}, s0b{0, 0}, s1a{0, 0}, s1b{0, 0};
  for (std::size_t d = 0; d < dim; ++d) {
    const Pair c01{c[0][d], c[1][d]}, c23{c[2][d], c[3][d]};
    const Pair a{p0[d], p0[d]}, b{p1[d], p1[d]};
    const Pair x0 = a - c01, x1 = a - c23, y0 = b - c01, y1 = b - c23;
    s0a += x0 * x0;
    s0b += x1 * x1;
    s1a += y0 * y0;
    s1b += y1 * y1;
  }
  out[0][0] = s0a[0];
  out[0][1] = s0a[1];
  out[0][2] = s0b[0];
  out[0][3] = s0b[1];
  out[1][0] = s1a[0];
  out[1][1] = s1a[1];
  out[1][2] = s1b[0];
  out[1][3] = s1b[1];
}

/// The assignment step: assign[i] = nearest_centroid(point i). With at
/// most four centroids, two points share each pass (distance2x4; a short
/// block repeats the last centroid) and an odd last point takes
/// nearest_centroid; with more, every point takes nearest_centroid.
/// Returns whether any assignment changed.
bool assign_nearest(const FeatureMatrix& points,
                    const std::vector<double>& cent, std::size_t k,
                    std::vector<std::size_t>& assign) {
  const std::size_t n = points.rows(), dim = points.dim();
  bool changed = false;
  const auto set = [&](std::size_t i, std::size_t best) {
    if (assign[i] != best) {
      assign[i] = best;
      changed = true;
    }
  };
  std::size_t i = 0;
  if (k <= 4) {
    const double* cs[4];
    for (std::size_t j = 0; j < 4; ++j) cs[j] = &cent[std::min(j, k - 1) * dim];
    for (; i + 1 < n; i += 2) {
      double d[2][4];
      distance2x4(points.row(i), points.row(i + 1), cs, dim, d);
      set(i, first_min(d[0], k));
      set(i + 1, first_min(d[1], k));
    }
  }
  for (; i < n; ++i) set(i, nearest_centroid(points.row(i), cent, k, dim));
  return changed;
}

}  // namespace

void FeatureMatrix::add_slowdown(const model::WcetFn& f) {
  const auto& values = f.flat();
  VC2M_CHECK_MSG(values.size() == dim_,
                 "slowdown table has " << values.size()
                                       << " cells, features have " << dim_);
  const double ref = static_cast<double>(f.reference().raw_ns());
  VC2M_CHECK_MSG(ref > 0, "reference WCET must be positive");
  const std::size_t at = values_.size();
  values_.resize(at + dim_);
  double* out = values_.data() + at;
  // Two cells per division; each lane is the scalar e / ref.
  const Pair r{ref, ref};
  std::size_t d = 0;
  for (; d + 1 < dim_; d += 2)
    store2(out + d, Pair{static_cast<double>(values[d].raw_ns()),
                         static_cast<double>(values[d + 1].raw_ns())} /
                        r);
  if (d < dim_) out[d] = static_cast<double>(values[d].raw_ns()) / ref;
}

void FeatureMatrix::add_row(std::span<const double> point) {
  VC2M_CHECK(point.size() == dim_);
  values_.insert(values_.end(), point.begin(), point.end());
}

KMeansResult kmeans(const FeatureMatrix& points, std::size_t k,
                    util::Rng& rng, unsigned max_iters) {
  KMeansWorkspace ws;
  kmeans(points, k, rng, ws, max_iters);
  return std::move(ws.result);
}

const KMeansResult& kmeans(const FeatureMatrix& points, std::size_t k,
                           util::Rng& rng, KMeansWorkspace& ws,
                           unsigned max_iters) {
  const std::size_t n = points.rows(), dim = points.dim();
  VC2M_CHECK_MSG(k >= 1 && k <= n,
                 "k=" << k << " incompatible with " << n << " points");
  VC2M_CHECK(dim > 0);

  // Centroids and the update step's sums/counts: one buffer each, reused
  // by every iteration.
  KMeansResult& res = ws.result;
  auto& cent = res.centroids;
  auto& sums = ws.sums;
  auto& counts = ws.counts;
  auto& stale = ws.stale;
  cent.assign(k * dim, 0.0);
  sums.assign(k * dim, 0.0);
  counts.assign(k, 0);
  stale.assign(k, 0);
  // Point-to-pick distances, shared by the seeding and iteration 0.
  auto& dist = ws.dist;
  dist.assign(n * k, 0.0);
  seed_centroids(points, k, rng, cent, dist);

  res.iterations = 0;
  res.assignment.assign(n, 0);
  auto& assign = res.assignment;

  double last_shift = 0;  // see AllocCounters::kmeans_final_shift
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    res.iterations = iter + 1;
    if (iter == 0)
      assign_seeded(points, cent, k, dist, assign);
    else if (!assign_nearest(points, cent, k, assign))
      break;

    // Update step.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      accumulate(&sums[assign[i] * dim], points.row(i), dim);
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
      divide(&cent[c * dim], &sums[c * dim], counts[c], dim);
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

Clusters cluster_members(const KMeansResult& result, std::size_t k) {
  Clusters out;
  cluster_members(result, k, out);
  return out;
}

void cluster_members(const KMeansResult& result, std::size_t k,
                     Clusters& out) {
  // Counted one slot to the right, offsets[c + 1] starts as cluster c's
  // first position; placing each member advances it, so it ends as
  // cluster c's end, which is the offsets[c + 1] to return. The extra
  // last slot goes.
  out.offsets.assign(k + 2, 0);
  for (const std::size_t a : result.assignment) {
    VC2M_CHECK(a < k);
    ++out.offsets[a + 2];
  }
  for (std::size_t c = 1; c <= k; ++c) out.offsets[c + 1] += out.offsets[c];
  out.members.resize(result.assignment.size());
  for (std::size_t i = 0; i < result.assignment.size(); ++i)
    out.members[out.offsets[result.assignment[i] + 1]++] = i;
  out.offsets.pop_back();
}

}  // namespace vc2m::core

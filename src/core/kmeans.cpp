#include "core/kmeans.h"

#include <algorithm>
#include <cmath>
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

/// First index of the smallest of d[0..k) (lowest index on ties), the
/// centroid a full assignment step picks.
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

/// distance(a[j], b[j]) for four pairs in one pass: four chains, each
/// summed in dimension order.
void pair_distances4(const double* const a[4], const double* const b[4],
                     std::size_t dim, double out[4]) {
  Pair s01{0, 0}, s23{0, 0};
  for (std::size_t d = 0; d < dim; ++d) {
    const Pair x01 = Pair{a[0][d], a[1][d]} - Pair{b[0][d], b[1][d]};
    const Pair x23 = Pair{a[2][d], a[3][d]} - Pair{b[2][d], b[3][d]};
    s01 += x01 * x01;
    s23 += x23 * x23;
  }
  store2(out, s01);
  store2(out + 2, s23);
}

/// out[j] = distance(point idx[j], c) for j < m: eight points per pass
/// while more than four remain, then one pass of four.
void distance_list(const FeatureMatrix& points, const std::size_t* idx,
                   std::size_t m, const double* c, double* out) {
  const std::size_t dim = points.dim();
  const auto row = [&](std::size_t j) { return points.row(idx[j]); };
  std::size_t j = 0;
  for (; j + 4 < m; j += 8) distances_block<8>(row, j, m, c, dim, out + j);
  if (j < m) distances_block<4>(row, j, m, c, dim, out + j);
}

// --- Distance bounds --------------------------------------------------------
//
// On the square-root scale, for the centroids of the current step:
// lo[i·k + c] ≤ d(i, c) for every point and centroid, and up[i] ≥
// d(i, assign[i]). Each bound holds for the real distance and for √ of the
// computed squared distance alike, so `up[i] < lo[i·k + c]` proves that the
// computed distance to c is strictly the larger, and skipping it cannot
// change an argmin or its lowest-index tie-break. Every bound is widened
// by kSlack times the magnitudes it combines, which covers a dim-term
// sum's rounding (about 4e-14 relative for 380 cells) and the cancellation
// in l − δ, plus kTiny for squares that underflow. docs/performance.md
// ("Pruned k-means") gives the argument.

constexpr double kSlack = 1e-9;
constexpr double kTiny = 1e-150;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bounds below and above √sq, sq a computed squared distance.
double lower_of(double sq) {
  const double r = std::sqrt(sq);
  return r - (kSlack * r + kTiny);
}
double upper_of(double sq) {
  const double r = std::sqrt(sq);
  return r + (kSlack * r + kTiny);
}
/// d(x, z) ≥ d(y, z) − d(x, y) ≥ l − δ, given l ≤ d(y, z), δ ≥ d(x, y).
double lower_minus(double l, double delta) {
  return l - delta - (kSlack * (l + delta) + kTiny);
}
/// d(x, z) ≤ d(x, y) + d(y, z) ≤ u + δ, given u ≥ d(x, y), δ ≥ d(y, z).
double upper_plus(double u, double delta) {
  return u + delta + (kSlack * (u + delta) + kTiny);
}

/// The tables of KMeansWorkspace::bounds.
struct Bounds {
  double* lo;       ///< n × k, row-major
  double* up;       ///< n
  double* nearest;  ///< n: squared distance to the nearest pick (seeding)
  double* col;      ///< n: one seeding column's computed distances
  double* drift;    ///< k: d(centroid before, centroid after) per cluster

  Bounds(std::vector<double>& t, std::size_t n, std::size_t k) {
    t.resize(n * (k + 3) + k);
    lo = t.data();
    up = lo + n * k;
    nearest = up + n;
    col = nearest + n;
    drift = col + n;
  }
};

/// kmeans++ seeding fused with iteration 0's assignment step. The first
/// pick is uniform, each later one drawn in proportion to the squared
/// distance from the nearest pick so far; `cent` (k × dim) and `picks`
/// receive them. When it returns, assign[i] is point i's nearest pick, the
/// first on ties, and `b` holds lo for every pick and up for that one.
///
/// Pick q is data point j = picks[q]. With a = assign[i] and u = up[i],
/// d(i, j) ≥ lo[j·k + a] − u; where that bound exceeds u the distance is
/// strictly larger than nearest[i] and is skipped. A skipped distance
/// cannot lower nearest[i], so the totals, the draws and the RNG stream
/// are those of computing every column. The rest are computed together.
/// Returns the distances computed.
std::size_t seed_centroids(const FeatureMatrix& points, std::size_t k,
                           util::Rng& rng, double* cent, std::size_t* picks,
                           std::size_t* todo, const Bounds& b,
                           std::vector<std::size_t>& assign) {
  const std::size_t n = points.rows(), dim = points.dim();
  const auto pick_row = [&](std::size_t q, std::size_t i) {
    picks[q] = i;
    std::copy_n(points.row(i), dim, cent + q * dim);
  };
  pick_row(0, rng.index(n));
  if (k == 1) return 0;
  std::fill_n(b.nearest, n, kInf);
  std::size_t evals = 0;
  for (std::size_t q = 0;; ++q) {
    const double* pick_lo = b.lo + picks[q] * k;
    std::size_t m = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (i == picks[q]) continue;
      if (q > 0) {
        const double bound = lower_minus(pick_lo[assign[i]], b.up[i]);
        if (bound > b.up[i]) {
          b.lo[i * k + q] = bound;
          continue;
        }
      }
      todo[m++] = i;
    }
    distance_list(points, todo, m, cent + q * dim, b.col);
    evals += m;
    // The pick itself is at distance +0.0 from its copy (finite features).
    todo[m] = picks[q];
    b.col[m] = 0;
    for (std::size_t j = 0; j <= m; ++j) {
      const std::size_t i = todo[j];
      b.lo[i * k + q] = lower_of(b.col[j]);
      if (b.col[j] < b.nearest[i]) {
        b.nearest[i] = b.col[j];
        b.up[i] = upper_of(b.col[j]);
        assign[i] = q;
      }
    }
    if (q + 1 == k) return evals;  // no draw follows the last pick

    double total = 0;
    for (std::size_t i = 0; i < n; ++i) total += b.nearest[i];
    std::size_t pick;
    if (total <= 0) {
      // All points coincide with existing centroids; any choice works.
      pick = rng.index(n);
    } else {
      double r = rng.uniform01() * total;
      pick = n - 1;
      for (std::size_t i = 0; i < n; ++i) {
        r -= b.nearest[i];
        if (r <= 0) {
          pick = i;
          break;
        }
      }
    }
    pick_row(q + 1, pick);
  }
}

/// The assignment step of a later iteration; `prev` holds the centroids
/// the bounds refer to, `cent` the update step's. Each centroid's drift
/// moves the bounds: up[i] += drift[assign[i]], lo[i·k + c] −= drift[c].
/// A point with up[i] < lo[i·k + c] for every other c keeps its centroid;
/// every other point computes all k distances, two points per pass, and
/// takes the first nearest. Adds the distances computed to `evals` and
/// returns whether any assignment changed.
bool assign_pruned(const FeatureMatrix& points, const double* cent,
                   const double* prev, std::size_t k, std::size_t* todo,
                   const Bounds& b, std::vector<std::size_t>& assign,
                   std::size_t& evals) {
  if (k == 1) return false;  // every point stays in the one cluster
  const std::size_t n = points.rows(), dim = points.dim();
  const auto clamp = [&](std::size_t c) { return std::min(c, k - 1); };
  for (std::size_t c = 0; c < k; c += 4) {
    const double* from[4];
    const double* to[4];
    for (std::size_t j = 0; j < 4; ++j) {
      from[j] = prev + clamp(c + j) * dim;
      to[j] = cent + clamp(c + j) * dim;
    }
    double d[4];
    pair_distances4(from, to, dim, d);
    for (std::size_t j = 0; j < 4 && c + j < k; ++j)
      b.drift[c + j] = std::sqrt(d[j]);
  }
  evals += k;

  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = assign[i];
    double* lo = b.lo + i * k;
    const double up = b.up[i] = upper_plus(b.up[i], b.drift[a]);
    bool keep = true;
    for (std::size_t c = 0; c < k; ++c) {
      lo[c] = lower_minus(lo[c], b.drift[c]);
      keep &= c == a || up < lo[c];
    }
    if (!keep) todo[m++] = i;
  }

  // The computed points' squared distances go into their lo rows first.
  std::size_t j = 0;
  for (; j + 1 < m; j += 2) {
    double* r0 = b.lo + todo[j] * k;
    double* r1 = b.lo + todo[j + 1] * k;
    for (std::size_t c = 0; c < k; c += 4) {
      const double* cs[4];
      for (std::size_t t = 0; t < 4; ++t) cs[t] = cent + clamp(c + t) * dim;
      double d[2][4];
      distance2x4(points.row(todo[j]), points.row(todo[j + 1]), cs, dim, d);
      for (std::size_t t = 0; t < 4 && c + t < k; ++t) {
        r0[c + t] = d[0][t];
        r1[c + t] = d[1][t];
      }
    }
  }
  if (j < m) {
    const auto row = [&](std::size_t c) { return cent + c * dim; };
    for (std::size_t c = 0; c < k; c += 4)
      distances_block<4>(row, c, k, points.row(todo[j]), dim,
                         b.lo + todo[j] * k + c);
  }
  evals += m * k;

  bool changed = false;
  for (j = 0; j < m; ++j) {
    const std::size_t i = todo[j];
    double* lo = b.lo + i * k;
    const std::size_t best = first_min(lo, k);
    b.up[i] = upper_of(lo[best]);
    for (std::size_t c = 0; c < k; ++c) lo[c] = lower_of(lo[c]);
    if (assign[i] != best) {
      assign[i] = best;
      changed = true;
    }
  }
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
  double* out = add_row();
  // Two cells per division; each lane is the scalar e / ref.
  const Pair r{ref, ref};
  std::size_t d = 0;
  for (; d + 1 < dim_; d += 2)
    store2(out + d, Pair{static_cast<double>(values[d].raw_ns()),
                         static_cast<double>(values[d + 1].raw_ns())} /
                        r);
  if (d < dim_) out[d] = static_cast<double>(values[d].raw_ns()) / ref;
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

  // Every table lives in `ws` and is reused by every iteration: the
  // centroids double-buffered with `next`, the update step's sums and
  // counts, and the bounds.
  KMeansResult& res = ws.result;
  auto& cent = res.centroids;
  auto& next = ws.next;
  auto& sums = ws.sums;
  cent.resize(k * dim);
  next.resize(k * dim);
  sums.resize(k * dim);
  ws.index.resize(2 * k + n);
  std::size_t* counts = ws.index.data();
  std::size_t* stale = counts + k;
  std::size_t* todo = stale + k;
  const Bounds b(ws.bounds, n, k);

  res.iterations = 0;
  res.assignment.assign(n, 0);
  auto& assign = res.assignment;
  res.distance_evals =
      seed_centroids(points, k, rng, cent.data(), counts, todo, b, assign);

  double last_shift = 0;  // see AllocCounters::kmeans_final_shift
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    res.iterations = iter + 1;
    // Iteration 0's assignment is the seeding's.
    if (iter > 0 && !assign_pruned(points, cent.data(), next.data(), k, todo,
                                   b, assign, res.distance_evals))
      break;

    // Update step, into `next`.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill_n(counts, k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      accumulate(&sums[assign[i] * dim], points.row(i), dim);
    }
    std::fill_n(stale, k, 0);
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
          const double* at = (assign[i] < c ? next : cent).data();
          const double d =
              distance(points.row(i), at + assign[i] * dim, dim);
          ++res.distance_evals;
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
        b.up[worst] = kInf;  // no bound on its distance to c is known
        counts[c] = 1;
        std::copy_n(p, dim, &sums[c * dim]);
      }
      divide(&next[c * dim], &sums[c * dim], counts[c], dim);
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
        const double diff = next[c * dim + d] - sums[c * dim + d] / count;
        shift += diff * diff;
      }
      last_shift += shift;
    }
    std::swap(cent, next);
  }
  if (auto* ctr = util::alloc_counters()) {
    ++ctr->kmeans_runs;
    ctr->kmeans_iterations += res.iterations;
    ctr->kmeans_final_shift += last_shift;
  }
  return res;
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

// Pins and oracles for the admission hot-path kernels.
//
// The k-means pins freeze the exact assignment, centroid bit patterns,
// iteration counts and kmeans_final_shift of the clustering on Platform-A
// slowdown features, including inputs whose empty-cluster repair steals
// from an already-computed centroid. The oracle tests hold the grid
// kernels (WcetFn::from_slowdown / slowdown, regulated_vcpu, CoreLoad) to
// plain at()-based reference loops kept here, on the grids of Platforms A,
// B and C. The admission pin freezes a whole admit/resize/remove churn:
// every decision event and every resulting state.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/admission.h"
#include "core/core_load.h"
#include "core/kmeans.h"
#include "features.h"
#include "generated.h"
#include "model/platform.h"
#include "obs/decision_log.h"
#include "util/hash.h"
#include "util/instrument.h"
#include "util/rng.h"
#include "workload/parsec.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::ResourceGrid;
using model::Taskset;
using model::Vcpu;
using model::WcetFn;
using tests::features;
using util::Rng;
using util::Time;

/// FNV-1a over 64-bit words: a compact pin for long exact sequences.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = util::fnv1a_word(h_, v); }
  void add_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::string hex() const { return util::hex16(h_); }

 private:
  std::uint64_t h_ = util::kFnvOffsetBasis;
};

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

const std::vector<PlatformSpec>& platforms() {
  static const std::vector<PlatformSpec> kAll = {
      PlatformSpec::A(), PlatformSpec::B(), PlatformSpec::C()};
  return kAll;
}

// ---------------------------------------------------------- k-means pins --

/// Platform-A slowdown features: the twelve PARSEC surfaces, then the
/// slowdown vectors of a 4.0-utilization generated taskset.
std::vector<std::vector<double>> feature_pool() {
  const auto grid = PlatformSpec::A().grid;
  std::vector<std::vector<double>> pool;
  for (const auto& p : workload::parsec_suite())
    pool.push_back(p.surface(grid).flat());
  for (const auto& t : tests::generated(4.0, 5, 1, grid))
    pool.push_back(t.slowdown().flat());
  return pool;
}

struct KMeansPin {
  unsigned iterations;
  std::uint64_t shift_bits;
  std::string digest;  ///< assignment + centroid bit patterns
};

KMeansPin run_pinned(const std::vector<std::vector<double>>& pts,
                     std::size_t k, std::uint64_t seed) {
  util::AllocCounterScope scope;
  Rng rng(seed);
  const auto res = kmeans(features(pts), k, rng);
  Digest d;
  for (const std::size_t a : res.assignment) d.add(a);
  for (const double v : res.centroids) d.add_double(v);
  d.add(rng());  // the RNG stream position after seeding
  EXPECT_EQ(scope.counters().kmeans_runs, 1u);
  EXPECT_EQ(scope.counters().kmeans_iterations, res.iterations);
  return {res.iterations, bits_of(scope.counters().kmeans_final_shift),
          d.hex()};
}

void expect_pin(const KMeansPin& got, const KMeansPin& want,
                const std::string& label) {
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(got.shift_bits, want.shift_bits) << label;
  EXPECT_EQ(got.digest, want.digest) << label;
}

TEST(KMeansPinTest, PlatformAFeaturesKOneToFive) {
  const auto pool = feature_pool();
  ASSERT_GE(pool.size(), 72u);
  // The generated tasks' features: near-duplicates per benchmark, the shape
  // the VM-level clustering sees.
  const std::vector<std::vector<double>> pts(pool.begin() + 12,
                                             pool.begin() + 72);
  const KMeansPin want[] = {
      {2, 0, "8c0681adf43b945e"}, {6, 0, "e3dd68970862fcc7"},
      {3, 0, "18bb0a4eb7d08166"}, {2, 0, "24568c837efff9ad"},
      {2, 0, "792a1cdf54ae2f22"},
  };
  for (std::size_t k = 1; k <= 5; ++k) {
    const auto got = run_pinned(pts, k, 100 + k);
    expect_pin(got, want[k - 1], "k=" + std::to_string(k));
  }
}

TEST(KMeansPinTest, EmptyClusterRepairStealsFromComputedCentroid) {
  // Seven features whose second update step empties a cluster; the repair
  // steals from a cluster whose centroid was already computed, which is
  // exactly when kmeans_final_shift is nonzero.
  const auto pool = feature_pool();
  std::vector<std::vector<double>> pts;
  for (const std::size_t id : {96, 16, 57, 73, 31, 1, 12})
    pts.push_back(pool[id]);
  const auto got = run_pinned(pts, 3, 107835);
  EXPECT_GT(std::bit_cast<double>(got.shift_bits), 0.0);
  expect_pin(got, {3, 0x400d3b7d1db6b319ull, "cff1029e3331b7ca"}, "repair");
}

TEST(KMeansPinTest, DuplicateFeaturesRepairUntilIterationCap) {
  // Three identical features among five points with k = 5: seeding must
  // pick a duplicate centroid, and the repairs keep trading points until
  // the iteration cap.
  const auto pool = feature_pool();
  std::vector<std::vector<double>> pts;
  for (const std::size_t id : {13, 13, 13, 97, 8}) pts.push_back(pool[id]);
  const auto got = run_pinned(pts, 5, 637);
  EXPECT_GT(std::bit_cast<double>(got.shift_bits), 0.0);
  expect_pin(got, {50, 0x39f4e00000000000ull, "139f24a18698bdfd"},
             "duplicates");
}

TEST(KMeansPinTest, OddCountLeavesATailPoint) {
  // 61 points: the assignment step's last block is one point short.
  const auto pool = feature_pool();
  const std::vector<std::vector<double>> pts(pool.begin() + 12,
                                             pool.begin() + 73);
  const KMeansPin want[] = {
      {2, 0, "69d0c3af35b73ef8"}, {4, 0, "0a634e94b81770d8"},
      {3, 0, "f7050e21a749f7aa"}, {2, 0, "a77db1d04a712b21"},
      {2, 0, "062d2edc9b7aba8f"},
  };
  for (std::size_t k = 1; k <= 5; ++k) {
    const auto got = run_pinned(pts, k, 100 + k);
    expect_pin(got, want[k - 1], "k=" + std::to_string(k));
  }
}

TEST(KMeansPinTest, FewerPointsThanOneBlock) {
  // One, two and three points: every block is short.
  const auto pool = feature_pool();
  const std::size_t ids[] = {3, 40, 77};
  const KMeansPin want[] = {
      {2, 0, "0af213bfa9459d77"}, {2, 0, "de1c898babbc0e4c"},
      {2, 0, "46846cd9e0bc921a"}, {2, 0, "5a6a7a5515bc4a31"},
      {2, 0, "4a215da9c20d69c5"}, {2, 0, "e29069a5f278968b"},
  };
  std::size_t w = 0;
  for (std::size_t n = 1; n <= 3; ++n) {
    std::vector<std::vector<double>> pts;
    for (std::size_t i = 0; i < n; ++i) pts.push_back(pool[ids[i]]);
    for (std::size_t k = 1; k <= n; ++k, ++w)
      expect_pin(run_pinned(pts, k, 500 + 10 * n + k), want[w],
                 "n=" + std::to_string(n) + " k=" + std::to_string(k));
  }
}

TEST(KMeansPinTest, DuplicatePointsOddCountFiveClusters) {
  // Nine points with two duplicate pairs and k = 5: more centroids than one
  // block, a tail point, and seeding that may pick a duplicate.
  const auto pool = feature_pool();
  std::vector<std::vector<double>> pts;
  for (const std::size_t id : {20, 20, 5, 61, 61, 33, 90, 2, 48})
    pts.push_back(pool[id]);
  expect_pin(run_pinned(pts, 5, 4242), {2, 0, "7f2c16c2b9d4e014"},
             "duplicates k=5");
}

TEST(KMeansPinTest, PrunedDistanceEvaluationsOnPlatformA) {
  // The triangle-inequality bounds skip distances; these counts pin how
  // many are still computed, so that a change that silently stops pruning
  // fails here even though every result above stays the same. Computing
  // every distance costs k·n per iteration (iteration 0 included, the
  // seeding's columns being reused by it), drift and repairs aside.
  const auto pool = feature_pool();
  const std::vector<std::vector<double>> pts(pool.begin() + 12,
                                             pool.begin() + 72);
  const FeatureMatrix m = features(pts);
  const std::size_t want[] = {0, 385, 260, 194, 232};
  for (std::size_t k = 1; k <= 5; ++k) {
    Rng rng(100 + k);
    const auto res = kmeans(m, k, rng);
    const std::size_t full = k * pts.size() * res.iterations;
    EXPECT_EQ(res.distance_evals, want[k - 1]) << "k=" << k;
    if (k > 1) {
      EXPECT_LT(res.distance_evals, full) << "k=" << k;
    }
  }
  // One serve-sized VM: the tasks of a 0.25-utilization request, k = 4.
  FeatureMatrix vm(PlatformSpec::A().grid.size());
  const auto tasks = tests::generated(0.25, 7);
  for (const auto& t : tasks) vm.add_slowdown(t.wcet);
  Rng rng(7);
  const auto res = kmeans(vm, 4, rng);
  ASSERT_EQ(tasks.size(), 7u);
  EXPECT_EQ(res.iterations, 2u);
  EXPECT_EQ(res.distance_evals, 21u);  // 56 without the bounds
}

// ------------------------------------------------------- k-means oracle --

/// The k-means algorithm as it was before the seeding distances were
/// reused: kmeans++ seeding that keeps only each point's nearest distance,
/// then Lloyd iterations that compute every point-to-centroid distance in
/// every iteration, iteration 0 included. Plain scalar loops throughout;
/// the engine must match it bit for bit.
struct ReferenceKMeans {
  std::vector<std::size_t> assignment;
  std::vector<double> centroids;
  unsigned iterations = 0;
  double final_shift = 0;
  std::size_t ties = 0;  ///< assignments with an exact distance tie
  /// Assignments whose runner-up is one ulp above the nearest distance.
  std::size_t near_ties = 0;
};

double ref_distance(const std::vector<double>& a, const double* b) {
  double s = 0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double diff = a[d] - b[d];
    s += diff * diff;
  }
  return s;
}

ReferenceKMeans reference_kmeans(const std::vector<std::vector<double>>& pts,
                                 std::size_t k, Rng& rng,
                                 unsigned max_iters = 50) {
  const std::size_t n = pts.size(), dim = pts[0].size();
  ReferenceKMeans r;
  auto& cent = r.centroids;
  cent.assign(k * dim, 0);
  const auto pick = [&](std::size_t c, std::size_t i) {
    std::copy(pts[i].begin(), pts[i].end(), cent.begin() + c * dim);
  };
  pick(0, rng.index(n));
  std::vector<double> nearest(n, std::numeric_limits<double>::infinity());
  for (std::size_t chosen = 1; chosen < k; ++chosen) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      nearest[i] = std::min(nearest[i],
                            ref_distance(pts[i], &cent[(chosen - 1) * dim]));
      total += nearest[i];
    }
    std::size_t next = n - 1;
    if (total <= 0) {
      next = rng.index(n);
    } else {
      double u = rng.uniform01() * total;
      for (std::size_t i = 0; i < n; ++i) {
        u -= nearest[i];
        if (u <= 0) {
          next = i;
          break;
        }
      }
    }
    pick(chosen, next);
  }

  auto& assign = r.assignment;
  assign.assign(n, 0);
  std::vector<double> sums(k * dim);
  std::vector<std::size_t> counts(k);
  std::vector<bool> stale(k);
  for (unsigned iter = 0; iter < max_iters; ++iter) {
    r.iterations = iter + 1;
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = ref_distance(pts[i], &cent[c * dim]);
        if (d == best_d) ++r.ties;
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      const double one_ulp =
          std::nextafter(best_d, std::numeric_limits<double>::infinity());
      for (std::size_t c = 0; c < k; ++c)
        if (ref_distance(pts[i], &cent[c * dim]) == one_ulp) {
          ++r.near_ties;
          break;
        }
      if (assign[i] != best) changed = true;
      assign[i] = best;
    }
    if (!changed && iter > 0) break;

    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      ++counts[assign[i]];
      for (std::size_t d = 0; d < dim; ++d)
        sums[assign[i] * dim + d] += pts[i][d];
    }
    std::fill(stale.begin(), stale.end(), false);
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        std::size_t worst = 0;
        double worst_d = -1;
        for (std::size_t i = 0; i < n; ++i) {
          if (counts[assign[i]] <= 1) continue;
          const double d = ref_distance(pts[i], &cent[assign[i] * dim]);
          if (d > worst_d) {
            worst_d = d;
            worst = i;
          }
        }
        if (assign[worst] < c) stale[assign[worst]] = true;
        --counts[assign[worst]];
        for (std::size_t d = 0; d < dim; ++d) {
          sums[assign[worst] * dim + d] -= pts[worst][d];
          sums[c * dim + d] = pts[worst][d];
        }
        assign[worst] = c;
        counts[c] = 1;
      }
      for (std::size_t d = 0; d < dim; ++d)
        cent[c * dim + d] =
            sums[c * dim + d] / static_cast<double>(counts[c]);
    }
    r.final_shift = 0;
    for (std::size_t c = 0; c < k; ++c) {
      if (!stale[c]) continue;
      double shift = 0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double diff =
            cent[c * dim + d] -
            sums[c * dim + d] / static_cast<double>(counts[c]);
        shift += diff * diff;
      }
      r.final_shift += shift;
    }
  }
  return r;
}

/// Runs kmeans() and reference_kmeans() on `pts` and asserts the same
/// assignment, iterations, centroid bits, final shift and RNG position.
ReferenceKMeans expect_matches_reference(
    const std::vector<std::vector<double>>& pts, std::size_t k,
    std::uint64_t seed, unsigned max_iters, const std::string& label) {
  Rng ref_rng(seed);
  auto want = reference_kmeans(pts, k, ref_rng, max_iters);
  util::AllocCounterScope scope;
  Rng rng(seed);
  const auto got = kmeans(features(pts), k, rng, max_iters);
  EXPECT_EQ(got.assignment, want.assignment) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(got.centroids.size(), want.centroids.size()) << label;
  for (std::size_t j = 0;
       j < std::min(got.centroids.size(), want.centroids.size()); ++j)
    if (bits_of(got.centroids[j]) != bits_of(want.centroids[j])) {
      ADD_FAILURE() << label << " centroid value " << j;
      break;
    }
  EXPECT_EQ(bits_of(scope.counters().kmeans_final_shift),
            bits_of(want.final_shift))
      << label;
  EXPECT_EQ(rng(), ref_rng()) << label << " (RNG position)";
  return want;
}

TEST(KMeansOracle, MatchesFullDistanceReferenceOnRandomMatrices) {
  // 2 400 random matrices: n in 1..24, every k in 1..min(n, 6) in turn,
  // dimensions from 1 (all ties on a line) to a Platform-A-sized 380.
  // Coordinates are either small integers, so exact distance ties and
  // duplicate rows are common, or arbitrary doubles; some rows are
  // copies of earlier ones.
  Rng gen(20261017);
  constexpr std::size_t kDims[] = {1, 2, 3, 5, 8, 17, 380};
  // Cases reaching an exact tie, and a repair that leaves a stale centroid.
  std::size_t cases = 0, ties = 0, repairs = 0;
  for (int t = 0; t < 2400; ++t) {
    const std::size_t n = 1 + gen.index(24);
    const std::size_t k =
        1 + static_cast<std::size_t>(t) % std::min<std::size_t>(n, 6);
    const std::size_t dim = kDims[gen.index(std::size(kDims))];
    const bool integral = gen.bernoulli(0.5);
    std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && gen.bernoulli(0.25)) {
        pts[i] = pts[gen.index(i)];
        continue;
      }
      for (double& v : pts[i])
        v = integral ? static_cast<double>(gen.index(4))
                     : gen.uniform(-3.0, 3.0);
    }
    const std::uint64_t seed = gen();
    const unsigned max_iters = gen.bernoulli(0.1) ? 1 + gen.index(3) : 50;
    const auto want = expect_matches_reference(
        pts, k, seed, max_iters,
        "case " + std::to_string(t) + " n=" + std::to_string(n) +
            " k=" + std::to_string(k) + " dim=" + std::to_string(dim));
    if (HasFailure()) return;
    ++cases;
    if (want.final_shift != 0) ++repairs;
    if (want.ties > 0) ++ties;
  }
  EXPECT_EQ(cases, 2400u);
  // The corpus must reach the paths it exists for.
  EXPECT_GE(repairs, 5u);
  EXPECT_GE(ties, 200u);

  // Real slowdown rows, the input both allocation levels cluster: the
  // twelve PARSEC surfaces and the tasks of generated tasksets. A task's
  // row is its profile's surface plus the rounding of e*·s(c,b) to whole
  // nanoseconds, at most 0.5/e* per cell, so tasks of one profile are
  // near-duplicates of each other and of the surface.
  const auto grid = PlatformSpec::A().grid;
  std::vector<std::vector<double>> surfaces;
  for (const auto& p : workload::parsec_suite())
    surfaces.push_back(p.surface(grid).flat());
  std::size_t slowdown_cases = 0;
  for (int t = 0; t < 300; ++t) {
    std::vector<std::vector<double>> pts;
    for (const auto& task : tests::generated(0.1 + gen.uniform(0.0, 1.4),
                                             gen(), 1, grid))
      pts.push_back(task.slowdown().flat());
    const std::size_t surfaces_in = gen.index(4);
    for (std::size_t j = 0; j < surfaces_in; ++j)
      pts.push_back(surfaces[gen.index(surfaces.size())]);
    const std::size_t n = pts.size();
    const std::size_t k =
        1 + static_cast<std::size_t>(t) % std::min<std::size_t>(n, 6);
    expect_matches_reference(pts, k, gen(), 50,
                             "slowdown case " + std::to_string(t) +
                                 " n=" + std::to_string(n) +
                                 " k=" + std::to_string(k));
    if (HasFailure()) return;
    ++slowdown_cases;
  }
  EXPECT_EQ(slowdown_cases, 300u);

  // A point m whose squared distances to two others, a and b, are one
  // ulp apart: m starts at the midpoint of a and b, steps toward the
  // farther one an ulp at a time until the two are equal or one ulp apart,
  // then tries a few nudges of a few ulps in one coordinate that leave
  // them exactly one ulp apart. With a, b and copies of them as the
  // centroids, m's assignment turns on that last ulp. Other random points
  // ride along.
  const auto one_ulp_apart = [](double x, double y) {
    const double inf = std::numeric_limits<double>::infinity();
    return std::nextafter(x, inf) == y || std::nextafter(y, inf) == x;
  };
  std::size_t near_tie_cases = 0;
  for (int t = 0; t < 600; ++t) {
    const std::size_t dim = kDims[gen.index(std::size(kDims))];
    std::vector<double> a(dim), b(dim), m(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      a[d] = gen.uniform(-3.0, 3.0);
      b[d] = gen.uniform(-3.0, 3.0);
      m[d] = (a[d] + b[d]) / 2;
    }
    const auto gap_of = [&](const std::vector<double>& p) {
      return std::pair{ref_distance(p, a.data()), ref_distance(p, b.data())};
    };
    const std::size_t j = gen.index(dim);
    for (int step = 0; step < 4096; ++step) {
      const auto [da, db] = gap_of(m);
      if (da == db || one_ulp_apart(da, db)) break;
      m[j] = std::nextafter(m[j], da > db ? a[j] : b[j]);
    }
    for (int trial = 0; trial < 256; ++trial) {
      if (const auto [da, db] = gap_of(m); one_ulp_apart(da, db)) break;
      std::vector<double> nudged = m;
      double& v = nudged[gen.index(dim)];
      const double toward = gen.bernoulli(0.5) ? 10.0 : -10.0;
      for (std::size_t ulps = 1 + gen.index(4); ulps > 0; --ulps)
        v = std::nextafter(v, toward);
      if (const auto [da, db] = gap_of(nudged); one_ulp_apart(da, db))
        m = nudged;
    }
    std::vector<std::vector<double>> pts{a, b, m};
    for (std::size_t extra = gen.index(5); extra > 0; --extra) {
      if (gen.bernoulli(0.5)) {
        pts.push_back(gen.bernoulli(0.5) ? a : b);
      } else {
        std::vector<double> r(dim);
        for (double& v : r) v = gen.uniform(-3.0, 3.0);
        pts.push_back(r);
      }
    }
    std::swap(pts[2], pts[gen.index(pts.size())]);
    const std::size_t n = pts.size();
    const std::size_t k = 2 + gen.index(std::min<std::size_t>(n, 4) - 1);
    const auto want = expect_matches_reference(
        pts, k, gen(), 50,
        "near-tie case " + std::to_string(t) + " n=" + std::to_string(n) +
            " k=" + std::to_string(k) + " dim=" + std::to_string(dim));
    if (HasFailure()) return;
    if (want.near_ties > 0) ++near_tie_cases;
  }
  // The constructed rows must actually decide assignments by one ulp.
  EXPECT_GE(near_tie_cases, 100u);

  // Rows whose computed distances break the triangle inequality by more
  // than a tight bound slack: a point p, a row x and a row y = 2x + w, so
  // that d(x, y) ≈ d(x, p) and d(y, p) ≈ 2·d(x, p) — the seeding bound
  // d(x, y) ≥ d(y, p) − d(x, p) is as tight as it gets. Every row is zero
  // but for coordinate 0 and 379 equal small coordinates, so each of the
  // three 380-term sums rounds its small terms the same way 379 times:
  // d(x, p) and d(x, y) lose up to 2e-14 of their value while d(y, p)
  // gains, a triangle gap at the 1e-14 scale. Unit-scale cases (scaled by
  // powers of two, which keep every rounding) need kSlack above 1e-15;
  // cases near 1e-159, whose squares are subnormal, need the absolute
  // floor. Copies of the three rows and the row order vary which rows
  // kmeans++ picks first.
  struct Gap {
    bool unit_scale;
    double x0, small, y0, y_small;
  };
  const double unit = std::ldexp(1.0, -52), sub = std::ldexp(1.0, -537);
  const Gap gaps[] = {
      {true, 1, std::sqrt(0.3 * unit), 2 - 7e-14, 2 * std::sqrt(0.8 * unit)},
      {true, 1, std::sqrt(0.4 * unit), 2 - 3e-14, 2 * std::sqrt(0.5 * unit)},
      {true, 1, std::sqrt(0.4 * unit), 2 - 7e-14, 2 * std::sqrt(0.8 * unit)},
      {false, 1e3 * sub, 0.7 * sub, (2 - 1e-5) * 1e3 * sub, 1.4 * sub},
      {false, std::sqrt(1e5) * sub, 0.7 * sub,
       (2 - 3e-5) * std::sqrt(1e5) * sub, 1.4 * sub},
      {false, std::sqrt(1e7) * sub, 0.7 * sub,
       (2 - 1e-6) * std::sqrt(1e7) * sub, 1.4 * sub},
  };
  std::size_t gap_cases = 0;
  for (int t = 0; t < 600; ++t) {
    const Gap& g = gaps[static_cast<std::size_t>(t) % std::size(gaps)];
    // Powers of two rescale the unit-scale rows without moving a rounding.
    const double scale =
        g.unit_scale
            ? std::ldexp(1.0, static_cast<int>(gen.uniform_int(-8, 8)))
            : 1.0;
    std::vector<double> p(380, 0.0), x(380, g.small * scale),
        y(380, g.y_small * scale);
    x[0] = g.x0 * scale;
    y[0] = g.y0 * scale;
    std::vector<std::vector<double>> pts{p, x, y};
    for (std::size_t extra = gen.index(4); extra > 0; --extra)
      pts.push_back(pts[gen.index(3)]);
    for (std::size_t i = pts.size(); i > 1; --i)
      std::swap(pts[i - 1], pts[gen.index(i)]);
    const std::size_t k = 2 + gen.index(2);
    expect_matches_reference(pts, k, gen(), 50,
                             "triangle-gap case " + std::to_string(t) +
                                 " n=" + std::to_string(pts.size()) +
                                 " k=" + std::to_string(k));
    if (HasFailure()) return;
    ++gap_cases;
  }
  EXPECT_EQ(gap_cases, 600u);
}

// ------------------------------------------------------ grid kernel oracles --

TEST(GridKernelOracle, FromSlowdownAndSlowdownMatchAtLoops) {
  for (const auto& platform : platforms()) {
    const auto& g = platform.grid;
    for (const auto& p : workload::parsec_suite()) {
      const auto s = p.surface(g);
      for (const std::int64_t ref_ns : {1LL, 7LL, 999'983LL, 123'456'789LL}) {
        const auto f = WcetFn::from_slowdown(Time::ns(ref_ns), s);
        ASSERT_EQ(f.grid(), g);
        for (unsigned c = g.c_min; c <= g.c_max; ++c)
          for (unsigned b = g.b_min; b <= g.b_max; ++b) {
            const double ns = static_cast<double>(ref_ns) * s.at(c, b);
            ASSERT_EQ(f.at(c, b).raw_ns(), static_cast<std::int64_t>(ns + 0.5))
                << platform.name << " " << p.name << " (" << c << "," << b
                << ")";
          }
        const auto back = f.slowdown();
        ASSERT_EQ(back.grid(), g);
        const double r = static_cast<double>(f.reference().raw_ns());
        for (unsigned c = g.c_min; c <= g.c_max; ++c)
          for (unsigned b = g.b_min; b <= g.b_max; ++b)
            ASSERT_EQ(bits_of(back.at(c, b)),
                      bits_of(static_cast<double>(f.at(c, b).raw_ns()) / r))
                << platform.name << " " << p.name << " (" << c << "," << b
                << ")";
      }
    }
  }
}

/// Theorem 2 budget at every cell, straight from the definition.
WcetFn regulated_reference(const Taskset& ts,
                           const std::vector<std::size_t>& idx) {
  Time pi = ts[idx.front()].period;
  for (const std::size_t i : idx) pi = util::min(pi, ts[i].period);
  std::int64_t den = 1;
  for (const std::size_t i : idx) den = std::lcm(den, ts[i].period / pi);
  const auto& g = ts[idx.front()].wcet.grid();
  WcetFn out(g);
  for (unsigned c = g.c_min; c <= g.c_max; ++c)
    for (unsigned b = g.b_min; b <= g.b_max; ++b) {
      __int128 num = 0;
      for (const std::size_t i : idx)
        num += static_cast<__int128>(ts[i].wcet.at(c, b).raw_ns()) *
               (den / (ts[i].period / pi));
      out.set(c, b, Time::ns(static_cast<std::int64_t>((num + den - 1) / den)));
    }
  return out;
}

void expect_regulated_matches(const Taskset& ts,
                              const std::vector<std::size_t>& idx,
                              const std::string& label) {
  const auto v = analysis::regulated_vcpu(ts, idx);
  const auto want = regulated_reference(ts, idx);
  const auto& g = want.grid();
  for (unsigned c = g.c_min; c <= g.c_max; ++c)
    for (unsigned b = g.b_min; b <= g.b_max; ++b)
      ASSERT_EQ(v.budget.at(c, b), want.at(c, b))
          << label << " (" << c << "," << b << ")";
}

TEST(GridKernelOracle, RegulatedVcpuMatchesAtLoop) {
  for (const auto& platform : platforms()) {
    const auto& g = platform.grid;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto ts =
          tests::generated(0.5 + 0.4 * static_cast<double>(seed), seed, 1, g);
      std::vector<std::size_t> all(ts.size());
      std::iota(all.begin(), all.end(), 0);
      // Every prefix exercises a different period mix and denominator.
      for (std::size_t n = 1; n <= all.size(); ++n)
        expect_regulated_matches(
            ts, std::vector<std::size_t>(all.begin(), all.begin() + n),
            platform.name + " seed " + std::to_string(seed) + " n " +
                std::to_string(n));
    }
    // Generated period menus are powers of two apart; periods 3x and 6x
    // apart make a denominator (6) that is not a power of two.
    auto mixed = tests::generated(2.0, 99, 1, g);
    ASSERT_GE(mixed.size(), 3u);
    mixed.resize(3);
    mixed[0].period = Time::ms(100);
    mixed[1].period = Time::ms(300);
    mixed[2].period = Time::ms(600);
    expect_regulated_matches(mixed, {0, 1, 2}, platform.name + " den 6");
  }
}

double utilization_reference(const std::vector<Vcpu>& vcpus,
                             const std::vector<std::size_t>& members,
                             unsigned c, unsigned b) {
  double u = 0;
  for (const std::size_t j : members)
    u += vcpus[j].budget.at(c, b).ratio(vcpus[j].period);
  return u;
}

bool schedulable_reference(const std::vector<Vcpu>& vcpus,
                           const std::vector<std::size_t>& members,
                           unsigned c, unsigned b) {
  std::int64_t l = 1;
  for (const std::size_t j : members) {
    const std::int64_t p = vcpus[j].period.raw_ns();
    const std::int64_t g = std::gcd(l, p);
    if (l / g > analysis::kPeriodLcmCap / p) {
      long double u = 0;
      for (const std::size_t m : members)
        u += static_cast<long double>(vcpus[m].budget.at(c, b).raw_ns()) /
             static_cast<long double>(vcpus[m].period.raw_ns());
      return u <= 1.0L;
    }
    l = l / g * p;
  }
  __int128 demand = 0;
  for (const std::size_t j : members)
    demand += static_cast<__int128>(vcpus[j].budget.at(c, b).raw_ns()) *
              (l / vcpus[j].period.raw_ns());
  return demand <= static_cast<__int128>(l);
}

/// Regulated VCPUs of a generated taskset, one per harmonic group of tasks.
std::vector<Vcpu> vcpus_on(const ResourceGrid& g, std::uint64_t seed) {
  std::vector<Vcpu> out;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const auto ts = tests::generated(0.8, seed * 10 + s, 1, g);
    for (std::size_t i = 0; i < ts.size(); ++i)
      out.push_back(analysis::regulated_vcpu(ts, std::vector<std::size_t>{i}));
  }
  return out;
}

/// Drives a CoreLoad through random adds, removes and probes, checking every
/// probe against the reference loops over the same membership.
void drive_core_load(const std::vector<Vcpu>& vcpus, const ResourceGrid& g,
                     std::uint64_t seed, const std::string& label) {
  CoreLoad cl(vcpus, g);
  std::vector<std::size_t> members;
  Rng rng(seed);
  for (int step = 0; step < 200; ++step) {
    const double r = rng.uniform01();
    if (r < 0.3 && members.size() < vcpus.size()) {
      const std::size_t v = rng.index(vcpus.size());
      cl.add(v);
      members.push_back(v);
    } else if (r < 0.4 && !members.empty()) {
      const std::size_t pos = rng.index(members.size());
      EXPECT_EQ(cl.remove_at(pos), members[pos]) << label;
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
    } else {
      const unsigned c =
          g.c_min + static_cast<unsigned>(rng.index(g.cache_levels()));
      const unsigned b =
          g.b_min + static_cast<unsigned>(rng.index(g.bw_levels()));
      ASSERT_EQ(cl.members(), members) << label;
      ASSERT_EQ(bits_of(cl.utilization(c, b)),
                bits_of(utilization_reference(vcpus, members, c, b)))
          << label << " step " << step << " (" << c << "," << b << ")";
      ASSERT_EQ(cl.schedulable(c, b),
                schedulable_reference(vcpus, members, c, b))
          << label << " step " << step << " (" << c << "," << b << ")";
    }
  }
}

TEST(GridKernelOracle, CoreLoadAccountingMatchesAtLoops) {
  for (const auto& platform : platforms())
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      drive_core_load(vcpus_on(platform.grid, seed), platform.grid, seed,
                      platform.name + " seed " + std::to_string(seed));
}

/// VCPUs with prime periods (ns): any two push the common multiple past
/// kPeriodLcmCap, so a core holding them falls back to the
/// non-incremental test.
std::vector<Vcpu> prime_period_vcpus(const ResourceGrid& g) {
  const std::int64_t primes[] = {999'983, 999'979, 999'961, 999'959,
                                 999'953, 999'931};
  std::vector<Vcpu> vcpus;
  Rng rng(7);
  for (const std::int64_t p : primes) {
    Vcpu v;
    v.period = Time::ns(p);
    v.budget = WcetFn(g);
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        v.budget.set(c, b,
                     Time::ns(static_cast<std::int64_t>(
                         static_cast<double>(p) * 0.1 *
                         (1.0 + rng.uniform01() *
                                    static_cast<double>(g.c_max - c + 1)))));
    vcpus.push_back(v);
  }
  return vcpus;
}

TEST(GridKernelOracle, CoreLoadFallbackModeMatchesAtLoops) {
  // The core falls back to the non-incremental test part way through.
  for (const auto& platform : platforms())
    drive_core_load(prime_period_vcpus(platform.grid), platform.grid, 11,
                    platform.name + " fallback");
}

/// The (admission tests, cache hits) one probe counts.
template <typename Probe>
std::pair<std::uint64_t, std::uint64_t> counted(Probe&& probe) {
  util::AllocCounterScope scope;
  probe();
  return {scope.counters().admission_tests, scope.counters().load_cache_hits};
}

/// Probes `reused` and `fresh` (same membership) at (c, b): both must
/// match the reference loops and count the same tests and cache hits.
void expect_same_answers(CoreLoad& reused, CoreLoad& fresh,
                         const std::vector<Vcpu>& vcpus,
                         const std::vector<std::size_t>& members, unsigned c,
                         unsigned b, const std::string& label) {
  ASSERT_EQ(reused.members(), members) << label;
  ASSERT_EQ(fresh.members(), members) << label;
  double u_reused = 0, u_fresh = 0;
  EXPECT_EQ(counted([&] { u_reused = reused.utilization(c, b); }),
            counted([&] { u_fresh = fresh.utilization(c, b); }))
      << label << " utilization counts at (" << c << "," << b << ")";
  EXPECT_EQ(bits_of(u_reused), bits_of(u_fresh)) << label;
  EXPECT_EQ(bits_of(u_reused),
            bits_of(utilization_reference(vcpus, members, c, b)))
      << label;
  bool s_reused = false, s_fresh = false;
  EXPECT_EQ(counted([&] { s_reused = reused.schedulable(c, b); }),
            counted([&] { s_fresh = fresh.schedulable(c, b); }))
      << label << " schedulable counts at (" << c << "," << b << ")";
  EXPECT_EQ(s_reused, s_fresh) << label;
  EXPECT_EQ(s_reused, schedulable_reference(vcpus, members, c, b)) << label;
}

TEST(GridKernelOracle, CoreLoadReuseMatchesFreshLoad) {
  // One CoreLoad is cleared and refilled over and over, as the HV search
  // reuses one per core. After every clear() a freshly constructed
  // CoreLoad receives the same edits; every probe must get the same answer
  // and count the same admission tests and cache hits from both, so no
  // cached sum, demand, verdict or mode survives a clear(). Every other
  // clear is a reset() to the same VCPUs instead, and one default-
  // constructed CoreLoad serves every platform, smallest grid first,
  // re-targeted by reset(), so nothing survives a reset() either and its
  // tables grow with the grid. The pool mixes exact-mode VCPUs, prime
  // periods that force the fallback test, and one VCPU whose budget table
  // lives on a larger grid.
  CoreLoad reused;
  for (const auto& platform : {PlatformSpec::C(), PlatformSpec::A()}) {
    const auto& g = platform.grid;
    std::vector<Vcpu> vcpus = vcpus_on(g, 3);
    vcpus.resize(std::min<std::size_t>(vcpus.size(), 10));
    for (const auto& v : prime_period_vcpus(g)) vcpus.push_back(v);
    const std::size_t first_prime = vcpus.size() - 6;
    ResourceGrid wide = g;
    ++wide.c_max;
    ++wide.b_max;
    Vcpu off_grid = vcpus.front();
    off_grid.budget = WcetFn(wide, off_grid.period);
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        off_grid.budget.set(c, b, vcpus.front().budget.at(c, b));
    vcpus.push_back(off_grid);
    const std::size_t off_grid_index = vcpus.size() - 1;

    reused.reset(vcpus, {}, g);
    auto fresh = std::make_unique<CoreLoad>(vcpus, g);
    std::vector<std::size_t> members;
    int clears = 0;
    const auto clear = [&] {
      if (++clears % 2 == 0)
        reused.reset(vcpus, {}, g);
      else
        reused.clear();
      fresh = std::make_unique<CoreLoad>(vcpus, g);
      members.clear();
    };
    const auto add = [&](std::size_t v) {
      reused.add(v);
      fresh->add(v);
      members.push_back(v);
    };
    const auto probe = [&](unsigned c, unsigned b, const std::string& label) {
      expect_same_answers(reused, *fresh, vcpus, members, c, b,
                          platform.name + " " + label);
    };

    // Scripted: fallback, then clear() and exact mode again. A probe, an
    // edit and the same probe: exact mode serves the second schedulable
    // probe from the shifted demand, fallback mode re-tests.
    add(first_prime);
    add(first_prime + 1);
    probe(g.c_min, g.b_min, "fallback");
    clear();
    add(0);
    probe(g.c_max, g.b_max, "exact after fallback");
    add(1);
    probe(g.c_max, g.b_max, "exact after fallback, edited");
    // An off-grid member, cleared away: probes index by flat point again.
    add(off_grid_index);
    probe(g.c_min + 1, g.b_min, "off-grid member");
    clear();
    add(2);
    probe(g.c_min + 1, g.b_min, "on-grid after off-grid");
    // More demand edits than grid points since the last probe: the edit
    // log is folded into every materialized point on the way. The members
    // are chosen so that the last one flips some verdict: a demand that
    // missed an edit shows.
    clear();
    std::vector<std::size_t> heavy;
    while (heavy.size() < first_prime &&
           schedulable_reference(vcpus, heavy, g.c_min, g.b_min))
      heavy.push_back(heavy.size());
    std::vector<std::size_t> lighter(heavy.begin(), heavy.end() - 1);
    bool flips = false;
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        flips = flips || schedulable_reference(vcpus, heavy, c, b) !=
                             schedulable_reference(vcpus, lighter, c, b);
    ASSERT_TRUE(flips) << platform.name;
    for (const std::size_t v : lighter) add(v);
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        probe(c, b, "before the folded log");
    add(heavy.back());
    const std::size_t toggled = first_prime - 1;
    for (std::size_t e = 0; e < g.size() + 2; ++e)
      if (e % 2 == 0) {
        add(toggled);
      } else {
        reused.remove_at(reused.size() - 1);
        fresh->remove_at(fresh->size() - 1);
        members.pop_back();
      }
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        probe(c, b, "folded log");
    if (HasFailure()) return;

    // Random drive over the whole pool.
    Rng rng(31);
    for (int step = 0; step < 600; ++step) {
      const double r = rng.uniform01();
      const std::string label = "step " + std::to_string(step);
      if (r < 0.05) {
        clear();
      } else if (r < 0.35 && members.size() < 8) {
        add(rng.index(vcpus.size()));
      } else if (r < 0.45 && !members.empty()) {
        const std::size_t pos = rng.index(members.size());
        EXPECT_EQ(reused.remove_at(pos), members[pos]) << label;
        fresh->remove_at(pos);
        members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
      } else {
        // A few points only, so probes repeat and hit the caches.
        const unsigned c = g.c_min + static_cast<unsigned>(rng.index(3));
        const unsigned b = g.b_max - static_cast<unsigned>(rng.index(3));
        probe(c, b, label);
      }
      if (HasFatalFailure()) return;
    }
  }
}

// ------------------------------------------------------------ admission pin --

void add_state(const AdmissionState& st, Digest& d) {
  for (const auto& v : st.vcpus) {
    d.add(static_cast<std::uint64_t>(v.vm));
    d.add(static_cast<std::uint64_t>(v.period.raw_ns()));
    for (const std::size_t t : v.tasks) d.add(t);
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        d.add(static_cast<std::uint64_t>(v.budget.at(c, b).raw_ns()));
  }
  const auto& m = st.mapping;
  d.add(m.schedulable);
  d.add(m.cores_used);
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    d.add(m.cache[k]);
    d.add(m.bw[k]);
    for (const std::size_t vi : m.vcpus_on_core[k]) d.add(vi);
  }
}

void add_events(const obs::DecisionLog& log, Digest& d) {
  for (const auto& e : log.events()) {
    d.add(static_cast<std::uint64_t>(e.kind));
    d.add(e.accepted);
    d.add(static_cast<std::uint64_t>(e.constraint));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.vm)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.entity)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.core)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.cache)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.bw)));
    d.add_double(e.value);
    d.add_double(e.margin);
  }
}

TEST(AdmissionPinTest, ChurnDecisionsEventsAndStates) {
  // A saturating admit/resize/remove churn on Platform A: the outcome
  // sequence, every decision event (placement probes, verdicts, with
  // their VCPU ids) and every committed state are pinned by digest.
  const auto platform = PlatformSpec::A();
  AdmissionState state;
  std::vector<int> live;
  Rng rng(2024);
  Digest events, states;
  std::string outcomes;
  util::AllocCounterScope counters;
  int next_vm = 0;
  for (int step = 0; step < 120; ++step) {
    const double r = rng.uniform01();
    obs::DecisionLog log;
    obs::DecisionLogScope scope(log);
    if (r < 0.25 && !live.empty()) {
      const std::size_t i = rng.index(live.size());
      state = remove_vm(state, live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      outcomes += 'd';
    } else {
      const bool resize = r < 0.4 && !live.empty();
      const int id = resize ? live[rng.index(live.size())] : next_vm++;
      auto tasks = tests::generated(0.1 + 0.3 * rng.uniform01(),
                                    5000 + static_cast<std::uint64_t>(step),
                                    1, platform.grid);
      for (auto& t : tasks) t.vm = id;
      VmAllocConfig vm;
      vm.request_id = step;
      Rng decision(900 + static_cast<std::uint64_t>(step));
      const auto res =
          resize ? resize_vm(state, tasks, id, platform, vm, decision)
                 : admit_vm(state, tasks, id, platform, vm, decision);
      EXPECT_EQ(res.request_id, step);
      if (res.admitted) {
        state = res.state;
        if (!resize) live.push_back(id);
      } else {
        EXPECT_TRUE(res.state.vcpus.empty());
      }
      outcomes +=
          resize ? (res.admitted ? 'R' : 'r') : (res.admitted ? 'A' : 'a');
    }
    add_events(log, events);
    add_state(state, states);
  }
  EXPECT_EQ(outcomes,
            "AdAAdAARRAAAdAAaadARAAaaddAAdRAadRAadAdAaAddAaAaadAaaaadRAadaddd"
            "RARAAdAraadAaRRaaardAaaaaaaraAdaaadaAadraaAaaaaaraaaddAr");
  EXPECT_EQ(events.hex(), "8319967a3685fb55");
  EXPECT_EQ(states.hex(), "b8bd249c657fce9f");
  EXPECT_EQ(counters.counters().admission_tests, 1426u);
  EXPECT_EQ(counters.counters().admission_passed, 540u);
  EXPECT_EQ(counters.counters().load_cache_hits, 1426u);
}

}  // namespace
}  // namespace vc2m::core

// Bounded-memory log-bucketed histogram (HDR style).
//
// SampleStats keeps every sample, which is right for the overhead tables
// but wrong where sample counts explode (per-job latencies over a big
// sweep, per-solve wall times, pool queue/steal telemetry). LogHistogram
// buckets positive values geometrically — `sub_per_octave` buckets per
// power of two — so memory is a fixed ~16 KB regardless of sample count
// and any quantile estimate is within one bucket ratio (2^(1/sub)) of a
// true sample. Histograms with identical configs merge by adding bucket
// counts, which is associative and commutative, so per-worker histograms
// reduce to one deterministic aggregate in any order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace vc2m::util {

class LogHistogram {
 public:
  /// Bucket layout: `sub_bits` gives 2^sub_bits buckets per octave
  /// (powers of two); values outside [2^min_exp2, 2^max_exp2) clamp into
  /// the edge buckets, values <= 0 (and non-finite) land in a dedicated
  /// bucket reported as the observed minimum.
  struct Config {
    int sub_bits = 5;    ///< 32 buckets/octave → ~2.2% bucket ratio
    int min_exp2 = -30;  ///< ~1e-9: below any second-scale measurement
    int max_exp2 = 34;   ///< ~1.7e10: above any plausible sample

    bool operator==(const Config& o) const {
      return sub_bits == o.sub_bits && min_exp2 == o.min_exp2 &&
             max_exp2 == o.max_exp2;
    }
  };

  // Two constructors instead of `Config cfg = {}`: GCC cannot use a nested
  // class's default member initializers in a default argument of the
  // enclosing class (PR 88165).
  LogHistogram() : LogHistogram(Config{}) {}
  explicit LogHistogram(Config cfg) : cfg_(cfg) {
    VC2M_CHECK_MSG(cfg_.sub_bits >= 0 && cfg_.sub_bits <= 10,
                   "LogHistogram sub_bits out of range");
    VC2M_CHECK_MSG(cfg_.min_exp2 < cfg_.max_exp2,
                   "LogHistogram needs min_exp2 < max_exp2");
    counts_.assign(static_cast<std::size_t>(cfg_.max_exp2 - cfg_.min_exp2)
                       << cfg_.sub_bits,
                   0);
  }

  void add(double x, std::uint64_t weight = 1) {
    if (weight == 0) return;
    if (count_ == 0) {
      min_ = max_ = x;
    } else {
      min_ = std::min(min_, x);
      max_ = std::max(max_, x);
    }
    count_ += weight;
    sum_ += x * static_cast<double>(weight);
    if (!(x > 0) || !std::isfinite(x)) {
      nonpositive_ += weight;
      return;
    }
    counts_[bucket_index(x)] += weight;
  }

  /// Add every bucket of `o` into this histogram; configs must match.
  void merge(const LogHistogram& o) {
    VC2M_CHECK_MSG(cfg_ == o.cfg_,
                   "merging LogHistograms with different bucket layouts");
    if (o.count_ == 0) return;
    if (count_ == 0) {
      min_ = o.min_;
      max_ = o.max_;
    } else {
      min_ = std::min(min_, o.min_);
      max_ = std::max(max_, o.max_);
    }
    count_ += o.count_;
    sum_ += o.sum_;
    nonpositive_ += o.nonpositive_;
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
  }

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0;
  }
  double min() const {
    VC2M_CHECK(!empty());
    return min_;
  }
  double max() const {
    VC2M_CHECK(!empty());
    return max_;
  }

  /// Nearest-rank quantile estimate, q in [0, 1]: the geometric midpoint
  /// of the bucket holding the q-quantile sample, clamped into the
  /// observed [min, max]. Within a factor 2^(1/(2*sub_per_octave)) of a
  /// true sample at that rank.
  double quantile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t cum = nonpositive_;
    if (cum >= rank) return min_;  // rank falls among the <= 0 samples
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      cum += counts_[i];
      if (cum >= rank)
        return std::clamp(bucket_midpoint(i), min_, max_);
    }
    return max_;
  }
  /// Shorthand mirroring SampleStats::p().
  double p(double q) const { return quantile(q); }

  /// Multiplicative width of one bucket: consecutive edges differ by this
  /// factor (the quantile error bound is its square root).
  double bucket_ratio() const {
    return std::exp2(1.0 / static_cast<double>(std::size_t{1} << cfg_.sub_bits));
  }

  const Config& config() const { return cfg_; }
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t nonpositive_count() const { return nonpositive_; }

  /// The exact internal state as text, for durable checkpoints (the
  /// service snapshot and the metrics timeline restore their latency
  /// histograms exactly — re-adding bucket midpoints would round-trip
  /// through log2/exp2 and could land one bucket off):
  /// "<count> <nonpositive> <sum_bits> <min_bits> <max_bits> <npairs>
  /// i:c..." with doubles as 16-hex-digit bit patterns and only the
  /// non-zero buckets, in ascending index order.
  std::string text() const;
  /// The strict inverse of text() under the default Config; throws
  /// util::Error on anything text() does not write.
  static LogHistogram parse(std::string_view text);

 private:
  std::size_t bucket_index(double x) const {
    const double sub = static_cast<double>(std::size_t{1} << cfg_.sub_bits);
    const auto idx = static_cast<std::int64_t>(
        std::floor(std::log2(x) * sub) -
        static_cast<std::int64_t>(cfg_.min_exp2) * static_cast<std::int64_t>(sub));
    return static_cast<std::size_t>(std::clamp<std::int64_t>(
        idx, 0, static_cast<std::int64_t>(counts_.size()) - 1));
  }

  double bucket_midpoint(std::size_t i) const {
    const double sub = static_cast<double>(std::size_t{1} << cfg_.sub_bits);
    return std::exp2((static_cast<double>(i) + 0.5) / sub +
                     static_cast<double>(cfg_.min_exp2));
  }

  Config cfg_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t nonpositive_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace vc2m::util

// Metrics registry: counters, gauges and fixed-bucket histograms.
//
// The registry is the one sink every measurement in vC2M reports through —
// simulator statistics, per-job response-time ratios, regulator activity,
// allocator search effort. Metrics are created on first use and addressed
// by name. Not thread-safe: the simulator and allocators are
// single-threaded, and a registry belongs to one run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/error.h"

namespace vc2m::obs {

class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// finite buckets; one overflow bucket catches everything above the last
/// edge. Tracks count/sum/min/max alongside the bucket counts.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void add(double x);

  std::size_t num_buckets() const { return counts_.size(); }
  /// Count in bucket i; bucket i covers (bounds[i-1], bounds[i]], the last
  /// bucket is the overflow (> bounds.back()).
  std::uint64_t bucket_count(std::size_t i) const { return counts_.at(i); }
  const std::vector<double>& bounds() const { return bounds_; }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0; }
  double min() const { return count_ ? min_ : 0; }
  double max() const { return count_ ? max_ : 0; }

  /// Nearest-rank quantile estimate from the bucket counts (upper edge of
  /// the bucket holding the q-quantile sample); q in [0, 1].
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

class MetricsRegistry {
 public:
  /// Get-or-create. A name identifies exactly one metric kind; reusing a
  /// name with a different kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  void check_unique(const std::string& name, int self) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace vc2m::obs

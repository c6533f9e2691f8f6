#include "obs/metrics.h"

#include <algorithm>

namespace vc2m::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  VC2M_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket edge");
  VC2M_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bucket edges must be ascending");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::add(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Nearest-rank over the cumulative bucket counts.
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    cum += counts_[i];
    if (cum >= rank)
      return i < bounds_.size() ? bounds_[i] : max_;  // overflow: observed max
  }
  return max_;
}

void MetricsRegistry::check_unique(const std::string& name, int self) const {
  VC2M_CHECK_MSG((self == 0 || counters_.find(name) == counters_.end()) &&
                     (self == 1 || gauges_.find(name) == gauges_.end()) &&
                     (self == 2 || histograms_.find(name) == histograms_.end()),
                 "metric '" << name << "' already registered as another kind");
}

Counter& MetricsRegistry::counter(const std::string& name) {
  check_unique(name, 0);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  check_unique(name, 1);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  check_unique(name, 2);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, Histogram(std::move(bounds))).first->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

}  // namespace vc2m::obs

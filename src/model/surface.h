// Dense functions over the (cache, bandwidth) grid.
//
// `Surface` holds a real-valued function over a ResourceGrid (slowdown
// vectors s(c,b)); `WcetFn` holds an integer-time-valued one (WCETs e(c,b)
// and VCPU budgets Θ(c,b)). Both are the currency passed between the
// workload generator, the analyses, and the allocators.
#pragma once

#include <vector>

#include "model/resource_grid.h"
#include "util/time.h"

namespace vc2m::model {

/// Real-valued function over a resource grid (e.g. a slowdown vector).
class Surface {
 public:
  Surface() = default;
  explicit Surface(const ResourceGrid& grid, double fill = 0.0)
      : grid_(grid), values_(grid.size(), fill) {
    grid_.validate();
  }

  const ResourceGrid& grid() const { return grid_; }
  bool empty() const { return values_.empty(); }

  double at(unsigned c, unsigned b) const { return values_[grid_.index(c, b)]; }
  void set(unsigned c, unsigned b, double v) { values_[grid_.index(c, b)] = v; }

  /// Value at the full allocation (C, B) — the reference point.
  double reference() const { return at(grid_.c_max, grid_.b_max); }

  /// Largest value on the grid (for slowdown vectors: at (C_min, B_min)).
  double max_value() const {
    double m = values_.empty() ? 0.0 : values_.front();
    for (const double v : values_) m = v > m ? v : m;
    return m;
  }

  /// True iff the function never increases when either resource grows —
  /// the physical property every WCET/slowdown surface must satisfy.
  bool monotone_nonincreasing() const {
    for (unsigned c = grid_.c_min; c <= grid_.c_max; ++c)
      for (unsigned b = grid_.b_min; b <= grid_.b_max; ++b) {
        if (c + 1 <= grid_.c_max && at(c + 1, b) > at(c, b) + 1e-12) return false;
        if (b + 1 <= grid_.b_max && at(c, b + 1) > at(c, b) + 1e-12) return false;
      }
    return true;
  }

  /// Flat view in row-major (cache-major) order; the KMeans feature vector.
  const std::vector<double>& flat() const { return values_; }
  std::vector<double>& flat() { return values_; }

 private:
  ResourceGrid grid_;
  std::vector<double> values_;
};

/// Integer-time-valued function over a resource grid: task WCETs e(c,b) or
/// VCPU budgets Θ(c,b).
class WcetFn {
 public:
  WcetFn() = default;
  explicit WcetFn(const ResourceGrid& grid,
                  util::Time fill = util::Time::zero())
      : grid_(grid), values_(grid.size(), fill) {
    grid_.validate();
  }

  /// e(c,b) = round(reference * s(c,b)); s must have s(C,B) == 1.
  static WcetFn from_slowdown(util::Time reference, const Surface& s) {
    WcetFn f(s.grid());
    const auto& in = s.flat();
    VC2M_CHECK(in.size() == f.values_.size());
    const double ref = static_cast<double>(reference.raw_ns());
    for (std::size_t i = 0; i < in.size(); ++i)
      f.values_[i] =
          util::Time::ns(static_cast<std::int64_t>(ref * in[i] + 0.5));
    return f;
  }

  const ResourceGrid& grid() const { return grid_; }
  bool empty() const { return values_.empty(); }

  util::Time at(unsigned c, unsigned b) const {
    return values_[grid_.index(c, b)];
  }
  void set(unsigned c, unsigned b, util::Time v) {
    values_[grid_.index(c, b)] = v;
  }

  /// Reference value e* = e(C, B).
  util::Time reference() const { return at(grid_.c_max, grid_.b_max); }

  /// Flat view in row-major (cache-major) order, grid().size() entries:
  /// what hot loops iterate once the caller has checked the grid.
  const std::vector<util::Time>& flat() const { return values_; }
  std::vector<util::Time>& flat() { return values_; }

  /// Slowdown vector s(c,b) = e(c,b)/e(C,B).
  Surface slowdown() const {
    Surface s(grid_);
    const double ref = static_cast<double>(reference().raw_ns());
    VC2M_CHECK_MSG(ref > 0, "reference WCET must be positive");
    auto& out = s.flat();
    VC2M_CHECK(out.size() == values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i)
      out[i] = static_cast<double>(values_[i].raw_ns()) / ref;
    return s;
  }

  bool monotone_nonincreasing() const {
    for (unsigned c = grid_.c_min; c <= grid_.c_max; ++c)
      for (unsigned b = grid_.b_min; b <= grid_.b_max; ++b) {
        if (c + 1 <= grid_.c_max && at(c + 1, b) > at(c, b)) return false;
        if (b + 1 <= grid_.b_max && at(c, b + 1) > at(c, b)) return false;
      }
    return true;
  }

  /// Pointwise sum (used when aggregating task demand onto a VCPU).
  WcetFn& operator+=(const WcetFn& o) {
    VC2M_CHECK(grid_ == o.grid_);
    for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += o.values_[i];
    return *this;
  }

 private:
  ResourceGrid grid_;
  std::vector<util::Time> values_;
};

}  // namespace vc2m::model

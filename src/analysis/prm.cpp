#include "analysis/prm.h"

#include <algorithm>
#include <limits>

#include "util/error.h"

namespace vc2m::analysis {

namespace {

/// sbf of (Π, Θ) at t = qΠ + r (0 ≤ r < Π) in raw ns, unchecked: with
/// gap = Π − Θ and k = ⌊(t − gap)/Π⌋ whole periods before the last ramp,
///   sbf(t) = kΘ + min(max(0, t − 2·gap − kΠ), Θ)   for t > gap.
/// t − gap = (q − 1)Π + r + Θ with 0 ≤ r + Θ < 2Π, so k = q − 1, plus one
/// when r ≥ gap: no division. Every intermediate stays within [−Π, t], so
/// no input overflows.
std::int64_t supply(std::int64_t pi, std::int64_t theta, std::int64_t t,
                    std::int64_t q, std::int64_t r) {
  const std::int64_t gap = pi - theta;
  if (t <= gap) return 0;
  const std::int64_t k = r < gap ? q - 1 : q;
  const std::int64_t partial =
      std::max<std::int64_t>(0, t - gap - gap - pi * k);
  // The partial chunk can never exceed one budget.
  return theta * k + std::min(partial, theta);
}

/// ⌈a / b⌉ for b > 0 (C++ division truncates toward zero, which is
/// already the ceiling for negative a).
template <class I>
I ceil_div(I a, I b) {
  return a / b + (a % b > 0 ? 1 : 0);
}

/// The least Θ in [0, Π] with sbf_(Π,Θ)(t) ≥ d, in integer type I. With
/// s = t − 2(Π−Θ) and j = ⌊s/Π⌋, the supply is sbf = jΘ + min(s − jΠ, Θ)
/// for s ≥ 0. As Θ runs over [0, Π], s runs over [t − 2Π, t], so j takes
/// at most three values; on piece j both branches are linear in Θ and
///   sbf ≥ d  ⇔  (j+2)Θ ≥ d + base  and  (j+1)Θ ≥ d,
/// where base = (j+2)Π − t and the piece is base ≤ 2Θ < base + Π. The
/// pieces are visited in increasing Θ; sbf is monotone in Θ, so the first
/// piece holding a solution holds the least one. q = ⌊t/Π⌋, r = t mod Π.
template <class I>
I invert_sbf(I pi, I d, I q, I r) {
  for (I j = q >= 2 ? q - 2 : 0; j <= q; ++j) {
    const I base = (j - q + 2) * pi - r;  // (j+2)Π − t, free of overflow
    const I lo = std::max<I>(0, ceil_div<I>(base, 2));
    const I hi = std::min<I>(pi, ceil_div<I>(base + pi, 2) - 1);
    const I theta = std::max({lo, ceil_div<I>(d + base, j + 2),
                              ceil_div<I>(d, j + 1)});
    if (theta <= hi) return theta;
  }
  // Θ = Π lies on piece q and supplies t ≥ d, so the loop returns.
  VC2M_CHECK_MSG(false, "sbf inversion found no budget (d > t?)");
  return pi;
}

/// invert_sbf at t = qΠ + r, unchecked: requires Π > 0 and 0 ≤ d ≤ t.
std::int64_t point_budget(std::int64_t pi, std::int64_t t, std::int64_t d,
                          std::int64_t q, std::int64_t r) {
  if (d == 0) return 0;
  // Intermediates stay within t + 3Π; use 128 bits only near the int64 edge.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (pi <= kMax / 4 && t <= kMax - 3 * pi)
    return invert_sbf<std::int64_t>(pi, d, q, r);
  return static_cast<std::int64_t>(invert_sbf<__int128>(pi, d, q, r));
}

}  // namespace

std::optional<util::Time> min_budget_on_curve(const DemandCurve& curve,
                                              double total_util,
                                              util::Time period) {
  VC2M_CHECK(period > util::Time::zero());
  VC2M_CHECK(curve.points.size() == curve.demand.size());
  if (curve.points.empty() && total_util == 0.0) return util::Time::zero();
  if (total_util > 1.0 + 1e-12) return std::nullopt;

  // The bisection's lower end ⌊U·Π⌋; when it reaches Π the search returns
  // Π without probing.
  const std::int64_t pi = period.raw_ns();
  std::int64_t theta = std::min(
      pi, static_cast<std::int64_t>(total_util * static_cast<double>(pi)));

  // Raise it to the least budget passing the rate test (the same double
  // expression Θ/Π = Time::ratio and epsilon as the reference
  // edf_schedulable_on_prm) by bisecting (⌊U·Π⌋, Π]; Θ = Π passes, since
  // U ≤ 1 + 1e-12. ⌊U·Π⌋ is at most two short when U·Π is exact to the
  // nanosecond, so the first two probes step by one.
  const auto rate_ok = [&](std::int64_t b) {
    return !(total_util > util::Time::ns(b).ratio(period) + 1e-12);
  };
  if (!rate_ok(theta)) {
    std::int64_t bad = theta, good = pi;
    while (good - bad > 1) {
      const std::int64_t mid =
          bad - theta < 2 ? bad + 1 : bad + (good - bad) / 2;
      (rate_ok(mid) ? good : bad) = mid;
    }
    theta = good;
  }

  // One walk: raise Θ to each checkpoint's own minimum where it falls
  // short. Supply is monotone in Θ, so checkpoints already passed stay
  // covered. Demand above t fails even on a dedicated core.
  VC2M_CHECK(curve.quot.size() == curve.points.size() &&
             curve.rem.size() == curve.points.size());
  for (std::size_t k = 0; k < curve.points.size(); ++k) {
    const std::int64_t t = curve.points[k].raw_ns();
    const std::int64_t d = curve.demand[k].raw_ns();
    if (d > t) return std::nullopt;
    const std::int64_t q = curve.quot[k], r = curve.rem[k];
    if (supply(pi, theta, t, q, r) < d) theta = point_budget(pi, t, d, q, r);
  }
  return util::Time::ns(theta);
}

}  // namespace vc2m::analysis

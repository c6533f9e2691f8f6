#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "analysis/dbf.h"
#include "analysis/prm.h"
#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "model/task.h"
#include "oracle/dbf.h"
#include "oracle/prm.h"
#include "oracle/regulated.h"
#include "oracle/schedulability.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace vc2m::analysis {
namespace {

using model::ResourceGrid;
using model::Surface;
using model::Task;
using model::Taskset;
using model::WcetFn;
using util::Time;

ResourceGrid grid() { return ResourceGrid{2, 4, 1, 3}; }

Surface flat_slowdown(double worst = 2.0) {
  Surface s(grid());
  for (unsigned c = 2; c <= 4; ++c)
    for (unsigned b = 1; b <= 3; ++b) {
      const double frac =
          (static_cast<double>(4 - c) / 2.0 + static_cast<double>(3 - b) / 2.0) / 2.0;
      s.set(c, b, 1.0 + (worst - 1.0) * frac);
    }
  return s;
}

Task make_task(Time period, Time ref_wcet, int vm = 0) {
  Task t;
  t.period = period;
  t.wcet = WcetFn::from_slowdown(ref_wcet, flat_slowdown());
  t.max_wcet = ref_wcet * 2;
  t.vm = vm;
  return t;
}

// ----------------------------------------------------------------- dbf ----

TEST(Dbf, ImplicitDeadlineDemand) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(20), Time::ms(5)}};
  EXPECT_EQ(dbf(ts, Time::ms(5)), Time::zero());
  EXPECT_EQ(dbf(ts, Time::ms(10)), Time::ms(2));
  EXPECT_EQ(dbf(ts, Time::ms(20)), Time::ms(2 * 2 + 5));
  EXPECT_EQ(dbf(ts, Time::ms(40)), Time::ms(4 * 2 + 2 * 5));
}

TEST(Dbf, TotalUtilization) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(20), Time::ms(5)}};
  EXPECT_DOUBLE_EQ(total_utilization(ts), 0.45);
}

TEST(Dbf, CheckpointsAreDeadlinesUpToHorizon) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)},
                              {Time::ms(25), Time::ms(1)}};
  const auto pts = dbf_checkpoints(ts, Time::ms(50));
  const std::vector<Time> expected{Time::ms(10), Time::ms(20), Time::ms(25),
                                   Time::ms(30), Time::ms(40), Time::ms(50)};
  EXPECT_EQ(pts, expected);
}

TEST(Dbf, HyperperiodLcm) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)},
                              {Time::ms(25), Time::ms(1)}};
  EXPECT_EQ(hyperperiod(ts), Time::ms(50));
}

TEST(Dbf, CheckpointCapRejectsPathologicalPeriodHorizonRatios) {
  // A 1 ns period against a 100 ms horizon means 10⁸ pre-dedup points
  // (~800 MB of Time values). The cap must refuse before allocating, for
  // both the reference enumerator and the SoA k-way merge.
  const std::vector<PTask> ts{{Time::ns(1), Time::ns(1)},
                              {Time::ms(10), Time::ms(1)}};
  EXPECT_THROW(dbf_checkpoints(ts, Time::ms(100)), util::Error);

  const std::vector<std::int64_t> periods{1, Time::ms(10).raw_ns()};
  std::vector<Time> out;
  EXPECT_THROW(merge_checkpoints(periods, Time::ms(100), out), util::Error);

  // Just under the cap still works: a single 1 us period over 1 s is 10⁶
  // points, well inside 2²².
  const std::vector<PTask> ok{{Time::us(1), Time::ns(10)}};
  EXPECT_EQ(dbf_checkpoints(ok, Time::sec(1)).size(), 1'000'000u);
}

TEST(Dbf, SoaKernelsMatchReferenceKernels) {
  // merge_checkpoints over a bare period column must reproduce
  // dbf_checkpoints exactly: on an awkward period mix (duplicates, coprime
  // pairs, a task whose period exceeds the horizon) at several horizons,
  // and with multiples up to INT64_MAX, where stepping a stream past its
  // last multiple would overflow.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(10), Time::ms(1)},
                              {Time::ms(15), Time::ms(4)},
                              {Time::ms(7), Time::us(1500)},
                              {Time::sec(2), Time::ms(100)}};
  std::vector<std::int64_t> periods;
  for (const auto& tk : ts) periods.push_back(tk.period.raw_ns());
  std::vector<Time> points;
  for (const Time horizon : {Time::ms(1), Time::ms(7), Time::ms(420),
                             Time::sec(2), hyperperiod(ts)}) {
    merge_checkpoints(periods, horizon, points);
    EXPECT_EQ(points, dbf_checkpoints(ts, horizon)) << "horizon " << horizon;
  }

  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<PTask> huge{{Time::ns(kMax / 3 + 1), Time::ns(1)},
                                {Time::ns(kMax / 2), Time::ns(2)},
                                {Time::ns(kMax), Time::ns(5)}};
  const std::vector<std::int64_t> huge_periods{kMax / 3 + 1, kMax / 2, kMax};
  merge_checkpoints(huge_periods, Time::ns(kMax), points);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_EQ(points, dbf_checkpoints(huge, Time::ns(kMax)));
  EXPECT_EQ(dbf(huge, Time::ns(kMax)), Time::ns(2 * 1 + 2 * 2 + 5));
}

// ----------------------------------------------------------------- PRM ----

TEST(Prm, SbfOfFullProcessorIsIdentity) {
  const Prm prm{Time::ms(10), Time::ms(10)};
  for (int t = 0; t <= 40; t += 3)
    EXPECT_EQ(prm.sbf(Time::ms(t)), Time::ms(t));
}

TEST(Prm, SbfWorstCaseDelayAndRamps) {
  // Π = 10, Θ = 4: no supply before 2(Π−Θ) = 12, then ramps of length Θ.
  const Prm prm{Time::ms(10), Time::ms(4)};
  EXPECT_EQ(prm.sbf(Time::ms(6)), Time::zero());
  EXPECT_EQ(prm.sbf(Time::ms(12)), Time::zero());
  EXPECT_EQ(prm.sbf(Time::ms(14)), Time::ms(2));
  EXPECT_EQ(prm.sbf(Time::ms(16)), Time::ms(4));  // one full chunk
  EXPECT_EQ(prm.sbf(Time::ms(22)), Time::ms(4));  // plateau
  EXPECT_EQ(prm.sbf(Time::ms(26)), Time::ms(8));
}

TEST(Prm, SbfIsMonotoneAndDominatesLsbf) {
  const Prm prm{Time::ms(10), Time::ms(55) - Time::ms(49)};  // Θ = 6ms
  Time prev = Time::zero();
  for (int t = 0; t <= 100; ++t) {
    const Time s = prm.sbf(Time::ms(t));
    EXPECT_GE(s, prev);
    EXPECT_GE(static_cast<double>(s.raw_ns()) + 1e-6, prm.lsbf(Time::ms(t)));
    prev = s;
  }
}

TEST(Prm, PaperExampleTask10_1NeedsBudget5_5) {
  // The motivating example of §1: a single task (p=10, e=1) requires a
  // minimum PRM budget of 5.5 at Π = 10 — 55× the task's utilization.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(*theta, Time::us(5'500));
}

TEST(Prm, MinBudgetIsTightAtTheSchedulabilityBoundary) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(20), Time::ms(4)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_TRUE(edf_schedulable_on_prm(ts, {Time::ms(10), *theta}));
  EXPECT_FALSE(edf_schedulable_on_prm(
      ts, {Time::ms(10), *theta - Time::ns(1)}));
}

TEST(Prm, MinBudgetAtLeastUtilizationShare) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(3)},
                              {Time::ms(40), Time::ms(8)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_GE(theta->ratio(Time::ms(10)), total_utilization(ts) - 1e-12);
}

TEST(Prm, OverloadedTasksetHasNoBudget) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(8)},
                              {Time::ms(10), Time::ms(8)}};
  EXPECT_FALSE(min_budget_edf(ts, Time::ms(10)).has_value());
}

TEST(Prm, EmptyTasksetNeedsNothing) {
  const std::vector<PTask> ts;
  EXPECT_EQ(min_budget_edf(ts, Time::ms(10)), Time::zero());
  EXPECT_TRUE(edf_schedulable_on_prm(ts, {Time::ms(10), Time::zero()}));
}

TEST(Prm, FullBandwidthTasksetNeedsFullProcessor) {
  // U = 1 requires Θ = Π (any supply gap breaks it).
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(10)}};
  const auto theta = min_budget_edf(ts, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(*theta, Time::ms(10));
}

TEST(Prm, SbfMatchesShinLeeDefinition) {
  // sbf finds its whole periods without dividing by Π for the split
  // t = qΠ + r it is given; hold it to the definition with the division,
  // evaluated in 128 bits: k = ⌊(t − (Π−Θ))/Π⌋ + 1 and
  // sbf = (k−1)Θ + max(0, t − 2(Π−Θ) − (k−1)Π) for t > Π−Θ, else 0.
  const auto reference = [](std::int64_t pi, std::int64_t theta,
                            std::int64_t t) {
    const __int128 gap = pi - theta;
    if (t <= gap) return std::int64_t{0};
    const __int128 k = (t - gap) / pi + 1;
    const __int128 ramp = t - 2 * gap - (k - 1) * pi;
    return static_cast<std::int64_t>((k - 1) * theta + (ramp > 0 ? ramp : 0));
  };
  for (std::int64_t pi = 1; pi <= 24; ++pi)
    for (std::int64_t b = 0; b <= pi; ++b)
      for (std::int64_t t = 0; t <= 6 * pi; ++t)
        ASSERT_EQ((Prm{Time::ns(pi), Time::ns(b)}.sbf(Time::ns(t))),
                  Time::ns(reference(pi, b, t)))
            << "Π " << pi << " Θ " << b << " t " << t;
  util::Rng rng(2024);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t pi =
        rng.uniform_int(1, i % 2 ? std::int64_t{1'000'000'000} : kMax);
    const std::int64_t b = rng.uniform_int(0, pi);
    // t around the blackout's end, a ramp's ends, or anywhere.
    const std::int64_t gap = pi - b;
    std::int64_t t = rng.uniform_int(0, kMax);
    if (i % 3 == 0 && gap <= kMax / 2 - 2)
      t = 2 * gap + rng.uniform_int(-2, 2);
    if (t < 0) t = 0;
    ASSERT_EQ((Prm{Time::ns(pi), Time::ns(b)}.sbf(Time::ns(t))),
              Time::ns(reference(pi, b, t)))
        << "Π " << pi << " Θ " << b << " t " << t;
  }
}

TEST(Prm, SbfIsMonotoneInBudget) {
  // The exact minimum budget rests on this: raising Θ never lowers the
  // supply at any t. Exhaustive on small periods, sampled on large ones.
  for (std::int64_t pi = 1; pi <= 24; ++pi)
    for (std::int64_t t = 0; t <= 6 * pi; ++t) {
      Time prev = Time::zero();
      for (std::int64_t b = 0; b <= pi; ++b) {
        const Time s = Prm{Time::ns(pi), Time::ns(b)}.sbf(Time::ns(t));
        ASSERT_GE(s, prev) << "Π " << pi << " t " << t << " Θ " << b;
        prev = s;
      }
    }
  util::Rng rng(4242);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t pi =
        rng.uniform_int(1, i % 2 ? std::int64_t{1'000'000'000} : kMax);
    const std::int64_t t = rng.uniform_int(0, kMax);
    const std::int64_t b = rng.uniform_int(0, pi - 1);
    const Time lo = Prm{Time::ns(pi), Time::ns(b)}.sbf(Time::ns(t));
    const Time hi = Prm{Time::ns(pi), Time::ns(b + 1)}.sbf(Time::ns(t));
    ASSERT_LE(lo, hi) << "Π " << pi << " t " << t << " Θ " << b;
  }
}

/// The least Θ in [0, Π] with sbf_(Π,Θ)(t) ≥ d, by bisection over
/// single-point sbf — the brute-force oracle for one_point_budget.
Time bisect_point_budget(std::int64_t pi, std::int64_t t, std::int64_t d) {
  std::int64_t lo = 0, hi = pi;
  while (lo < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (Prm{Time::ns(pi), Time::ns(mid)}.sbf(Time::ns(t)) >= Time::ns(d))
      hi = mid;
    else
      lo = mid + 1;
  }
  return Time::ns(hi);
}

/// min_budget_on_curve over the one-point curve {(t, d)} with no rate
/// term (U = 0): the least Θ whose supply covers d at t.
std::optional<Time> one_point_budget(std::int64_t pi, std::int64_t t,
                                     std::int64_t d) {
  const Time point = Time::ns(t), demand = Time::ns(d);
  const std::int64_t q = t / pi, r = t % pi;
  return min_budget_on_curve(
      DemandCurve{{&point, 1}, {&demand, 1}, {&q, 1}, {&r, 1}}, 0.0,
      Time::ns(pi));
}

TEST(Prm, MinBudgetForPointMatchesBisectionOfSbf) {
  // Periods from 1 ns to INT64_MAX; t inside the supply blackout, over a
  // few periods, anywhere, and within 3Π of INT64_MAX; d at 0, t and in
  // between. The last two t ranges drive the 128-bit arithmetic.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  util::Rng rng(20261017);
  for (int i = 0; i < 120000; ++i) {
    std::int64_t pi = 1;
    switch (i % 6) {
      case 0: pi = 1; break;
      case 1: pi = rng.uniform_int(1, 16); break;
      case 2: pi = rng.uniform_int(1, 1'000'000'000); break;
      case 3: pi = rng.uniform_int(1, kMax / 4); break;
      case 4: pi = rng.uniform_int(kMax / 4, kMax); break;
      default: pi = Time::ms(rng.uniform_int(1, 100)).raw_ns(); break;
    }
    std::int64_t t = 0;
    switch ((i / 6) % 4) {
      case 0: t = rng.uniform_int(0, 2 * std::min(pi, kMax / 2)); break;
      case 1: t = rng.uniform_int(0, pi <= kMax / 8 ? 8 * pi : kMax); break;
      case 2: t = rng.uniform_int(0, kMax); break;
      default:
        t = kMax - rng.uniform_int(0, pi <= kMax / 3 ? 3 * pi : kMax);
        break;
    }
    std::int64_t d = 0;
    switch ((i / 24) % 5) {
      case 0: d = 0; break;
      case 1: d = t; break;
      case 2: d = rng.uniform_int(0, std::min<std::int64_t>(t, 3)); break;
      case 3: d = t - rng.uniform_int(0, std::min<std::int64_t>(t, 3)); break;
      default: d = rng.uniform_int(0, t); break;
    }
    ASSERT_EQ(one_point_budget(pi, t, d), bisect_point_budget(pi, t, d))
        << "Π " << pi << " t " << t << " d " << d;
  }
}

TEST(Prm, MinBudgetForPointRejectsDemandAboveSupplyRange) {
  // Even Θ = Π supplies only t by t: demand above it has no budget.
  EXPECT_EQ(one_point_budget(10, 5, 6), std::nullopt);
  EXPECT_EQ(one_point_budget(10, 5, 5), Time::ns(10));
}

/// The curve's points split by Π, as DemandCurve's quot/rem.
std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>> split_by(
    const std::vector<Time>& points, Time pi) {
  std::vector<std::int64_t> quot, rem;
  for (const Time t : points) {
    quot.push_back(t / pi);
    rem.push_back((t % pi).raw_ns());
  }
  return {quot, rem};
}

/// min_budget_on_curve over a freshly built curve for `ts`.
std::optional<Time> budget_on_curve(const std::vector<PTask>& ts, Time pi) {
  if (ts.empty()) return min_budget_on_curve(DemandCurve{}, 0.0, pi);
  const double total_util = total_utilization(ts);
  std::vector<Time> points;
  if (total_util <= 1.0 + 1e-12)
    points = dbf_checkpoints(ts, util::lcm(hyperperiod(ts), pi));
  std::vector<Time> demand;
  for (const Time t : points) demand.push_back(dbf(ts, t));
  const auto [quot, rem] = split_by(points, pi);
  return min_budget_on_curve(DemandCurve{points, demand, quot, rem},
                             total_util, pi);
}

/// A random taskset for the curve oracle. Periods come from a harmonic
/// (base·2^k) or a non-harmonic menu with small hyperperiods, at a time
/// unit from 1 ns to 10^15 ns; `kind` picks the utilization regime.
std::vector<PTask> random_taskset(util::Rng& rng, int kind, Time& pi) {
  static constexpr std::int64_t kUnits[] = {1, 1'000, 1'000'000,
                                            1'000'000'000'000,
                                            1'000'000'000'000'000};
  static constexpr std::int64_t kMenu[] = {2, 3, 4, 5, 6, 8, 10, 12, 15, 20,
                                           30};
  const std::int64_t unit = kUnits[rng.index(std::size(kUnits))];
  const bool harmonic = rng.bernoulli(0.5);
  const std::int64_t base = rng.uniform_int(1, 6);
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 5));
  std::vector<PTask> ts;
  std::int64_t p_min = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t m = harmonic ? base << rng.uniform_int(0, 3)
                                    : kMenu[rng.index(std::size(kMenu))];
    const std::int64_t p = m * unit;
    p_min = p_min == 0 ? p : std::min(p_min, p);
    const double share = rng.uniform(0.0, 1.3 / static_cast<double>(n));
    ts.push_back({Time::ns(p), Time::ns(static_cast<std::int64_t>(
                                   share * static_cast<double>(p)))});
  }
  pi = rng.bernoulli(0.5) ? Time::ns(p_min)
                          : Time::ns(rng.uniform_int(1, 12) * unit);
  switch (kind) {
    case 0: break;  // free: some sets overload
    case 1: {       // fill to U ≈ 1 with the last task
      double u = 0;
      for (std::size_t i = 0; i + 1 < ts.size(); ++i)
        u += ts[i].wcet.ratio(ts[i].period);
      const double rest = std::max(0.0, 1.0 - u);
      ts.back().wcet = Time::ns(static_cast<std::int64_t>(
          rest * static_cast<double>(ts.back().period.raw_ns())));
      break;
    }
    case 2: {  // U = 1 exactly: wcets split one period
      const Time p = ts.front().period;
      const std::int64_t cut = rng.uniform_int(0, p.raw_ns());
      ts = {{p, Time::ns(cut)}, {p, p - Time::ns(cut)}};
      pi = p;
      break;
    }
    case 3: {  // |U − 1| ≤ 1e-12: one huge period, e = p ± small
      const Time p = Time::ns(2 * rng.uniform_int(500'000'000'000'000,
                                                  2'000'000'000'000'000));
      ts = {{p, p + Time::ns(rng.uniform_int(-3, 3))}};
      pi = rng.bernoulli(0.5) ? p : Time::ns(p.raw_ns() / 2);
      break;
    }
    case 4: ts.clear(); break;
    default:
      for (auto& t : ts) t.wcet = Time::zero();
      break;
  }
  return ts;
}

TEST(Prm, MinBudgetOnCurveMatchesReferenceSearchEverywhere) {
  // The engine path (precomputed checkpoints + demand, then one walk with
  // sbf inversion) must return the reference bisection's minimum
  // bit-for-bit — directly and through the AnalysisContext memo.
  const Time ms10 = Time::ms(10);
  std::vector<std::pair<std::vector<PTask>, Time>> cases;
  cases.push_back({{}, ms10});                             // empty set
  cases.push_back({{{Time::ms(10), Time::ms(10)}}, ms10});  // U = 1 exactly
  cases.push_back({{{Time::ms(10), Time::ms(11)}}, ms10});  // infeasible
  cases.push_back({{{Time::ms(100), Time::us(137)}}, ms10});
  cases.push_back({{{Time::ms(10), Time::ms(2)},
                    {Time::ms(15), Time::ms(3)},
                    {Time::ms(35), Time::us(4200)}},
                   ms10});
  cases.push_back({{{Time::ms(7), Time::us(900)},
                    {Time::ms(21), Time::ms(5)},
                    {Time::ms(12), Time::us(3100)},
                    {Time::ms(12), Time::us(250)}},
                   ms10});
  util::Rng rng(77);
  for (int i = 0; i < 12000; ++i) {
    Time pi;
    auto ts = random_taskset(rng, i % 6, pi);
    cases.push_back({std::move(ts), pi});
  }

  AnalysisContext ctx;
  std::size_t feasible = 0, infeasible = 0, near_one = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [ts, pi] = cases[i];
    const auto ref = min_budget_edf(ts, pi);
    ASSERT_EQ(budget_on_curve(ts, pi), ref)
        << "case " << i << " Π " << pi << " tasks " << ts.size();
    ASSERT_EQ(ctx.min_budget(ts, pi), ref) << "case " << i;
    (ref ? feasible : infeasible)++;
    if (std::abs(total_utilization(ts) - 1.0) <= 1e-12) ++near_one;
  }
  // Every regime is represented, so no branch passes vacuously.
  EXPECT_GT(feasible, 3000u);
  EXPECT_GT(infeasible, 1000u);
  EXPECT_GT(near_one, 1000u);
}

/// The bisection min_budget_edf runs, over a given curve: the oracle for
/// curves that are not a taskset's full checkpoint set, where the rate test
/// alone can bind.
std::optional<Time> bisect_curve_budget(const DemandCurve& curve, double u,
                                        Time pi) {
  const auto feasible = [&](Time b) {
    if (u > Prm{pi, b}.bandwidth() + 1e-12) return false;
    for (std::size_t k = 0; k < curve.points.size(); ++k)
      if (curve.demand[k] > Prm{pi, b}.sbf(curve.points[k])) return false;
    return true;
  };
  if (u > 1.0 + 1e-12 || !feasible(pi)) return std::nullopt;
  Time lo = Time::ns(
      static_cast<std::int64_t>(u * static_cast<double>(pi.raw_ns())));
  Time hi = pi;
  while (lo < hi) {
    const Time mid = Time::ns(lo.raw_ns() + (hi.raw_ns() - lo.raw_ns()) / 2);
    if (feasible(mid))
      hi = mid;
    else
      lo = mid + Time::ns(1);
  }
  return hi;
}

TEST(Prm, MinBudgetOnCurveMatchesBisectionOnArbitraryCurves) {
  // Sparse curves with utilizations the points do not imply, at periods
  // from 1 ns to 2^62 ns: here ⌊U·Π⌋ can miss the rate test by many
  // nanoseconds, so the rate fix-up, not a checkpoint, sets Θ.
  util::Rng rng(9001);
  std::size_t rate_bound = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t pi_ns =
        i % 3 == 0 ? rng.uniform_int(1, 1'000)
                   : rng.uniform_int(1, std::int64_t{1} << (i % 3 == 1 ? 40
                                                                       : 62));
    const Time pi = Time::ns(pi_ns);
    std::vector<Time> points, demand;
    std::int64_t t = 0;
    for (int k = rng.uniform_int(0, 4); k > 0; --k) {
      t += rng.uniform_int(1, 4 * std::min<std::int64_t>(pi_ns, 1ll << 58));
      points.push_back(Time::ns(t));
      demand.push_back(Time::ns(rng.uniform_int(0, t / 2)));
    }
    const double u = i % 7 == 0 ? 1.0 + rng.uniform(0.0, 2e-12)
                                : rng.uniform(0.0, 1.0);
    const auto [quot, rem] = split_by(points, pi);
    const DemandCurve curve{points, demand, quot, rem};
    const auto want = bisect_curve_budget(curve, u, pi);
    ASSERT_EQ(min_budget_on_curve(curve, u, pi), want)
        << "case " << i << " Π " << pi << " U " << u;
    if (want && *want > Time::ns(static_cast<std::int64_t>(
                            u * static_cast<double>(pi_ns))))
      ++rate_bound;
  }
  EXPECT_GT(rate_bound, 100u);
}

// A parameterized sweep: the abstraction overhead (Θ/Π vs utilization) of a
// single task (p, e) grows as utilization shrinks — the phenomenon vC2M
// eliminates.
class AbstractionOverheadTest : public ::testing::TestWithParam<int> {};

TEST_P(AbstractionOverheadTest, BudgetExceedsUtilizationShare) {
  const Time p = Time::ms(10);
  const Time e = Time::us(GetParam());
  const std::vector<PTask> ts{{p, e}};
  const auto theta = min_budget_edf(ts, p);
  ASSERT_TRUE(theta.has_value());
  const double bandwidth = theta->ratio(p);
  const double util = e.ratio(p);
  EXPECT_GE(bandwidth, util);
  // (Π + e)/2 is the analytic minimum for a single task with Π = p:
  // sbf(p) = 2Θ − (Π − ... ) ⇒ Θ = (p + e)/2.
  EXPECT_EQ(*theta, Time::ns((p.raw_ns() + e.raw_ns()) / 2));
}

INSTANTIATE_TEST_SUITE_P(Utilizations, AbstractionOverheadTest,
                         ::testing::Values(100, 500, 1000, 2000, 5000, 9000));

// ---------------------------------------------------- regulated supply ----

TEST(RegulatedSupply, SbfExposesOneGapOnly) {
  // Π = 10, Θ = 4: within one period the worst window loses Π−Θ = 6.
  const RegulatedSupply wr{Time::ms(10), Time::ms(4)};
  EXPECT_EQ(wr.sbf(Time::ms(6)), Time::zero());
  EXPECT_EQ(wr.sbf(Time::ms(8)), Time::ms(2));
  EXPECT_EQ(wr.sbf(Time::ms(10)), Time::ms(4));  // full period: exactly Θ
  EXPECT_EQ(wr.sbf(Time::ms(20)), Time::ms(8));
  EXPECT_EQ(wr.sbf(Time::ms(26)), Time::ms(8));  // gap inside period 3
  EXPECT_EQ(wr.sbf(Time::ms(28)), Time::ms(10));
}

TEST(RegulatedSupply, DominatesPrmSupplyEverywhere) {
  for (int theta_ms = 1; theta_ms <= 10; ++theta_ms) {
    const RegulatedSupply wr{Time::ms(10), Time::ms(theta_ms)};
    const Prm prm{Time::ms(10), Time::ms(theta_ms)};
    for (int t = 0; t <= 100; ++t)
      EXPECT_GE(wr.sbf(Time::ms(t)), prm.sbf(Time::ms(t)))
          << "theta " << theta_ms << " t " << t;
  }
}

TEST(RegulatedSupply, SbfIsMonotone) {
  const RegulatedSupply wr{Time::ms(7), Time::ms(3)};
  Time prev = Time::zero();
  for (int t = 0; t < 70; ++t) {
    const Time s = wr.sbf(Time::us(t * 500));
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(RegulatedSupply, HarmonicAlignedNeedsOnlyUtilizationBandwidth) {
  // Theorem 2's interface passes the general regulated test: a harmonic
  // taskset with Π = min period and Θ = Π·U is schedulable.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)},
                              {Time::ms(20), Time::ms(3)},
                              {Time::ms(40), Time::ms(4)}};
  const Time theta = Time::us(3'500);  // 10ms · 0.35
  EXPECT_TRUE(edf_schedulable_on_regulated(ts, {Time::ms(10), theta}));
  // And it is tight: one nanosecond less fails at the hyperperiod.
  EXPECT_FALSE(edf_schedulable_on_regulated(
      ts, {Time::ms(10), theta - Time::ns(1)}));
}

TEST(RegulatedSupply, MinBudgetNeverExceedsPrmMinBudget) {
  const std::vector<std::vector<PTask>> cases = {
      {{Time::ms(10), Time::ms(1)}},
      {{Time::ms(10), Time::ms(2)}, {Time::ms(20), Time::ms(4)}},
      {{Time::ms(15), Time::ms(3)}, {Time::ms(10), Time::ms(1)}},
  };
  for (const auto& ts : cases) {
    const auto wr = min_budget_regulated(ts, Time::ms(10));
    const auto prm = min_budget_edf(ts, Time::ms(10));
    ASSERT_TRUE(wr.has_value());
    ASSERT_TRUE(prm.has_value());
    EXPECT_LE(*wr, *prm);
  }
}

TEST(RegulatedSupply, MotivatingExampleNeedsLessThanPrm) {
  // (p=10, e=1): PRM needs Θ = 5.5; a well-regulated VCPU needs only
  // Θ with sbf(10) = Θ − ... : 10 − (10−Θ) ≥ 1 → Θ ≥ 1... but dbf at
  // 10 requires sbf(10) = Θ ≥ 1, so Θ = 1: fully overhead-free.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(1)}};
  const auto wr = min_budget_regulated(ts, Time::ms(10));
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(*wr, Time::ms(1));
}

TEST(RegulatedSupply, NonHarmonicTasksStillBenefit) {
  // Periods 10 and 15 are not harmonic, so Theorem 2 does not apply, but
  // the regulated supply still beats the PRM abstraction.
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(2)},
                              {Time::ms(15), Time::ms(3)}};
  const auto wr = min_budget_regulated(ts, Time::ms(5));
  const auto prm = min_budget_edf(ts, Time::ms(5));
  ASSERT_TRUE(wr.has_value());
  ASSERT_TRUE(prm.has_value());
  EXPECT_LT(*wr, *prm);
}

TEST(RegulatedSupply, OverloadRejected) {
  const std::vector<PTask> ts{{Time::ms(10), Time::ms(6)},
                              {Time::ms(10), Time::ms(6)}};
  EXPECT_FALSE(min_budget_regulated(ts, Time::ms(10)).has_value());
}

// --------------------------------------------------- AnalysisContext ----
//
// Pins of the min-budget memo: the returned minima and the exact
// budget_evaluations / budget_cache_hits / soa_rebuilds / inner_tasks of
// every call pattern the engine uses. A query that misses the memo counts
// one evaluation; a memo hit or a repeat inside one surface counts one hit;
// each (Π, periods) group that builds a checkpoint stream counts one
// rebuild; each distinct fresh cell of a surface counts one inner task.

using Query = std::vector<PTask>;
const Time kPi = Time::ms(10);

struct Effort {
  std::uint64_t evals, hits, rebuilds, inner;
};

Effort effort_of(const AnalysisContext& ctx) {
  const auto& c = ctx.counters();
  return {c.budget_evaluations, c.budget_cache_hits, c.soa_rebuilds,
          c.inner_tasks};
}

void expect_effort(const AnalysisContext& ctx, Effort want) {
  const Effort got = effort_of(ctx);
  EXPECT_EQ(got.evals, want.evals) << "budget_evaluations";
  EXPECT_EQ(got.hits, want.hits) << "budget_cache_hits";
  EXPECT_EQ(got.rebuilds, want.rebuilds) << "soa_rebuilds";
  EXPECT_EQ(got.inner, want.inner) << "inner_tasks";
}

using Cells = std::vector<AnalysisContext::SurfaceCell>;

/// Answer `qs` as one surface at Π = `pi`: cell q is query q. All queries
/// have the same periods (one group).
Cells run_surface(AnalysisContext& ctx, const std::vector<Query>& qs,
                  Time pi = kPi) {
  const std::size_t n = qs.empty() ? 0 : qs.front().size();
  std::vector<std::vector<Time>> columns(n);
  for (const auto& q : qs) {
    EXPECT_EQ(q.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(q[i].period, qs.front()[i].period) << "mixed groups";
      columns[i].push_back(q[i].wcet);
    }
  }
  std::vector<AnalysisContext::SurfaceTask> tasks;
  for (std::size_t i = 0; i < n; ++i)
    tasks.push_back({qs.front()[i].period, columns[i]});
  Cells out(qs.size());
  ctx.min_budget_surface(tasks, pi, out);
  return out;
}

void expect_reference_minima(const std::vector<Query>& qs, const Cells& res,
                             Time pi = kPi) {
  ASSERT_EQ(res.size(), qs.size());
  for (std::size_t q = 0; q < qs.size(); ++q)
    EXPECT_EQ(res[q].theta, min_budget_edf(qs[q], pi)) << "query " << q;
}

// Three wcet surfaces over periods {10, 20} ms, two over {15, 30} ms.
const Query kA{{Time::ms(10), Time::ms(1)}, {Time::ms(20), Time::ms(3)}};
const Query kB{{Time::ms(10), Time::ms(2)}, {Time::ms(20), Time::ms(3)}};
const Query kC{{Time::ms(10), Time::ms(1)}, {Time::ms(20), Time::ms(5)}};
const Query kD{{Time::ms(15), Time::ms(2)}, {Time::ms(30), Time::ms(4)}};
const Query kE{{Time::ms(15), Time::ms(1)}, {Time::ms(30), Time::ms(4)}};
const Query kOver{{Time::ms(10), Time::ms(8)}, {Time::ms(20), Time::ms(8)}};

TEST(AnalysisContextMemo, BatchCoalescesDuplicateQueries) {
  AnalysisContext ctx;
  const std::vector<Query> qs{kA, kB, kA, kC, kB};
  const auto res = run_surface(ctx, qs);
  expect_reference_minima(qs, res);
  const std::vector<bool> searched{true, true, false, true, false};
  for (std::size_t q = 0; q < qs.size(); ++q)
    EXPECT_EQ(res[q].searched, searched[q]) << "query " << q;
  expect_effort(ctx, {3, 2, 1, 3});

  // A second pass is all memo hits and computes nothing.
  const auto again = run_surface(ctx, qs);
  expect_reference_minima(qs, again);
  for (const auto& r : again) EXPECT_FALSE(r.searched);
  expect_effort(ctx, {3, 7, 1, 3});
}

TEST(AnalysisContextMemo, BudgetTableFindsEveryKeyAmongNearTwins) {
  // Memo keys that differ from each other in one word or in one bit, more
  // than 10^5 of them in one (Π, periods) group, so its table grows from
  // 16 slots past 2^18. Every inserted key must be found again (a cache
  // hit), and no absent key may be found (each is a fresh evaluation).
  const std::int64_t periods[] = {1000, 1000, 2000, 4000};
  using Key = std::array<std::int64_t, 4>;
  std::vector<Key> keys;
  std::set<Key> seen;
  const auto add = [&](const Key& k) {
    if (seen.insert(k).second) keys.push_back(k);
  };
  // Tuples that differ from {1, 2, 3, 4} and from each other in one word.
  for (std::size_t j = 0; j < 4; ++j)
    for (std::int64_t v = 5; v < 25'005; ++v) {
      Key k{1, 2, 3, 4};
      k[j] = v;
      add(k);
    }
  // Single-bit flips (bits 0..62, so wcets stay non-negative) of random
  // small tuples.
  util::Rng rng(77);
  for (int b = 0; b < 120; ++b) {
    Key base;
    for (auto& w : base) w = rng.uniform_int(0, 300);
    add(base);
    for (std::size_t j = 0; j < 4; ++j)
      for (int bit = 0; bit < 63; ++bit) {
        Key k = base;
        k[j] ^= std::int64_t{1} << bit;
        add(k);
      }
  }
  ASSERT_GE(keys.size(), 100'000u);

  AnalysisContext ctx;
  std::vector<PTask> q(4);
  const auto query = [&](const Key& k) {
    for (std::size_t i = 0; i < 4; ++i)
      q[i] = {Time::ns(periods[i]), Time::ns(k[i])};
    return ctx.min_budget(q, Time::ns(1000));
  };
  std::vector<std::optional<Time>> first;
  first.reserve(keys.size());
  for (const auto& k : keys) first.push_back(query(k));
  EXPECT_EQ(ctx.counters().budget_evaluations, keys.size());
  EXPECT_EQ(ctx.counters().budget_cache_hits, 0u);

  for (std::size_t e = 0; e < keys.size(); ++e)
    ASSERT_EQ(query(keys[e]), first[e]) << "key " << e;
  EXPECT_EQ(ctx.counters().budget_evaluations, keys.size());
  EXPECT_EQ(ctx.counters().budget_cache_hits, keys.size());

  // Absent keys: one more bit flipped in an inserted key.
  std::size_t absent = 0;
  for (std::size_t e = 0; e < keys.size(); e += 7) {
    Key k = keys[e];
    k[e % 4] ^= std::int64_t{1} << (e % 61);
    if (!seen.insert(k).second) continue;
    query(k);
    ++absent;
    ASSERT_EQ(ctx.counters().budget_cache_hits, keys.size()) << "key " << e;
  }
  EXPECT_GT(absent, 10'000u);
  EXPECT_EQ(ctx.counters().budget_evaluations, keys.size() + absent);
}

TEST(AnalysisContextMemo, BatchHitsEntriesMemoizedByMinBudget) {
  AnalysisContext ctx;
  EXPECT_EQ(ctx.min_budget(kA, kPi), min_budget_edf(kA, kPi));
  expect_effort(ctx, {1, 0, 1, 0});

  const std::vector<Query> qs{kB, kA, kC};
  const auto res = run_surface(ctx, qs);
  expect_reference_minima(qs, res);
  EXPECT_TRUE(res[0].searched);
  EXPECT_FALSE(res[1].searched);
  EXPECT_TRUE(res[2].searched);
  // Same periods as kA: the stream min_budget() built is reused.
  expect_effort(ctx, {3, 1, 1, 2});

  // And min_budget() hits what the surface memoized.
  EXPECT_EQ(ctx.min_budget(kC, kPi), min_budget_edf(kC, kPi));
  expect_effort(ctx, {3, 2, 1, 2});
}

TEST(AnalysisContextMemo, BatchWithMixedPeriodsBuildsOneStreamPerGroup) {
  // A surface holds one group; queries of two groups take one surface per
  // group, and each group builds its own stream.
  AnalysisContext ctx;
  const std::vector<Query> ab{kA, kB, kA}, de{kD, kE, kD};
  expect_reference_minima(ab, run_surface(ctx, ab));
  expect_reference_minima(de, run_surface(ctx, de));
  expect_effort(ctx, {4, 2, 2, 4});

  // The same wcets under other periods are other keys.
  const Query a_as_d{{Time::ms(15), Time::ms(1)}, {Time::ms(30), Time::ms(3)}};
  expect_reference_minima({a_as_d}, run_surface(ctx, {a_as_d}));
  expect_reference_minima({kC}, run_surface(ctx, {kC}));
  expect_effort(ctx, {6, 2, 2, 6});

  // The same periods under another Π are another group.
  const Time pi2 = Time::ms(5);
  expect_reference_minima({kA}, run_surface(ctx, {kA}, pi2), pi2);
  expect_effort(ctx, {7, 2, 3, 7});
}

TEST(AnalysisContextMemo, OverUtilizedGroupBuildsNoCheckpoints) {
  AnalysisContext ctx;
  const std::vector<Query> qs{kOver, kOver};
  const auto res = run_surface(ctx, qs);
  EXPECT_FALSE(res[0].theta.has_value());
  EXPECT_FALSE(res[1].theta.has_value());
  expect_effort(ctx, {1, 1, 0, 1});

  const Query over2{{Time::ms(10), Time::ms(9)}, {Time::ms(20), Time::ms(9)}};
  EXPECT_FALSE(ctx.min_budget(over2, kPi).has_value());
  EXPECT_EQ(ctx.min_budget({}, kPi), Time::zero());
  expect_effort(ctx, {3, 1, 0, 1});

  // A feasible query on the same periods is the first to build the stream.
  EXPECT_EQ(ctx.min_budget(kA, kPi), min_budget_edf(kA, kPi));
  expect_effort(ctx, {4, 1, 1, 1});

  // A surface of no tasks: every cell is the empty taskset, Θ = 0.
  Cells empty(3);
  ctx.min_budget_surface({}, kPi, empty);
  for (const auto& c : empty) EXPECT_EQ(c.theta, Time::zero());
  EXPECT_FALSE(empty[0].searched);  // min_budget({}) memoized it above
  expect_effort(ctx, {4, 4, 1, 1});
}

TEST(AnalysisContextMemo, InnerJobsOnSharedPoolMatchSerialExactly) {
  // 60 queries over two period groups with repeats: distinct wcets come
  // from a small deterministic lattice, so some keys recur. One surface
  // per group, in query order.
  std::vector<Query> g1, g2;
  for (int i = 0; i < 60; ++i) {
    const int a = (i * 7) % 9, b = (i * 5) % 11;
    if (i % 3 == 2)
      g2.push_back({{Time::ms(15), Time::us(300 + 250 * a)},
                    {Time::ms(30), Time::us(500 + 400 * b)}});
    else
      g1.push_back({{Time::ms(10), Time::us(200 + 300 * a)},
                    {Time::ms(20), Time::us(400 + 500 * b)}});
  }
  g1.push_back(kOver);

  const auto run = [&](AnalysisContext& ctx) {
    return std::pair{run_surface(ctx, g1), run_surface(ctx, g2)};
  };
  Cells want1, want2;
  Effort want_effort{};
  std::uint64_t want_dbf = 0;
  {
    AnalysisContext serial;
    std::tie(want1, want2) = run(serial);
    want_effort = effort_of(serial);
    want_dbf = serial.counters().dbf_evaluations;
  }
  expect_reference_minima(g1, want1);
  expect_reference_minima(g2, want2);
  EXPECT_EQ(want_effort.evals + want_effort.hits, g1.size() + g2.size());
  EXPECT_EQ(want_effort.inner, want_effort.evals);
  EXPECT_EQ(want_effort.rebuilds, 2u);

  util::ThreadPool pool(4);
  for (const int jobs : {1, 2, 8}) {
    SCOPED_TRACE("inner jobs " + std::to_string(jobs));
    AnalysisContext ctx;
    ctx.set_inner_parallelism(&pool, jobs);
    const auto [got1, got2] = run(ctx);
    for (const auto& [got, want] : {std::pair{&got1, &want1},
                                    std::pair{&got2, &want2}}) {
      ASSERT_EQ(got->size(), want->size());
      for (std::size_t q = 0; q < got->size(); ++q) {
        EXPECT_EQ((*got)[q].theta, (*want)[q].theta) << "query " << q;
        EXPECT_EQ((*got)[q].searched, (*want)[q].searched) << "query " << q;
      }
    }
    expect_effort(ctx, want_effort);
    EXPECT_EQ(ctx.counters().dbf_evaluations, want_dbf);
  }
}

TEST(AnalysisContextMemo, FailedBatchLeavesNoMemoEntries) {
  // The cap group pairs a 1 ns period with Π = 10 ms: 10⁷ checkpoints,
  // over kDbfCheckpointCap, so a surface of it throws once one of its
  // cells needs the stream. Its over-utilized cell needs none and is
  // computed first; the rollback must drop it all the same.
  const Query kCapOver{{Time::ns(1), Time::zero()},
                       {Time::ms(10), Time::ms(11)}};
  const Query kCap{{Time::ns(1), Time::zero()}, {Time::ms(10), Time::ms(1)}};
  AnalysisContext ctx;
  expect_reference_minima({kA, kB}, run_surface(ctx, {kA, kB}));
  expect_effort(ctx, {2, 0, 1, 2});
  EXPECT_THROW(run_surface(ctx, {kCapOver, kCap, kCapOver}), util::Error);
  expect_effort(ctx, {4, 1, 2, 4});

  // Nothing of the failed surface was memoized: its first cell is fresh.
  // It needs no stream, so it now succeeds.
  EXPECT_FALSE(ctx.min_budget(kCapOver, kPi).has_value());
  expect_effort(ctx, {5, 1, 2, 4});
  const auto res = run_surface(ctx, {kCapOver});
  EXPECT_FALSE(res[0].searched);
  EXPECT_FALSE(res[0].theta.has_value());
  expect_effort(ctx, {5, 2, 2, 4});

  // The successful surface before it stays memoized.
  EXPECT_EQ(ctx.min_budget(kB, kPi), min_budget_edf(kB, kPi));
  expect_effort(ctx, {5, 3, 2, 4});

  // The failing query fails again, and again counts as an evaluation.
  EXPECT_THROW(ctx.min_budget(kCap, kPi), util::Error);
  expect_effort(ctx, {6, 3, 3, 4});
}

TEST(AnalysisContextMemo, SurfaceMatchesReferenceAndSerialLoopEverywhere) {
  // Random sequences of surfaces, as vm_alloc issues them: each surface is
  // one group's cells, some groups recur (hits from an earlier VCPU of the
  // same group), wcets come from a small lattice (duplicates within a
  // surface), some groups are over-utilized in every cell (no stream), and
  // some surfaces hit the checkpoint cap and throw. Every cell must equal
  // min_budget_edf, and every counter the counters of a serial
  // ctx.min_budget() loop over the same cells, at inner jobs 1, 2 and 4.
  struct Surface {
    Time pi;
    std::vector<Query> cells;
    bool throws = false;
  };
  util::Rng rng(4242);
  constexpr std::int64_t kMenu[] = {2, 3, 4, 5, 6, 8, 10, 12, 15, 20};
  std::vector<Surface> seq;
  std::vector<std::pair<Time, std::vector<Time>>> groups;  // (Π, periods)
  for (int s = 0; s < 240; ++s) {
    Surface sf;
    std::vector<Time> periods;
    if (!groups.empty() && rng.bernoulli(0.4)) {
      std::tie(sf.pi, periods) = groups[rng.index(groups.size())];
    } else {
      const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
      const bool harmonic = rng.bernoulli(0.5);
      const std::int64_t base = rng.uniform_int(1, 5);
      for (std::size_t i = 0; i < n; ++i)
        periods.push_back(Time::ms(harmonic ? base << rng.uniform_int(0, 3)
                                            : kMenu[rng.index(10)]));
      sf.pi = *std::min_element(periods.begin(), periods.end());
      if (rng.bernoulli(0.3)) sf.pi = Time::ms(rng.uniform_int(1, 25));
      groups.emplace_back(sf.pi, periods);
    }
    // Load level: light, near 1, or over-utilized in every cell.
    const int level = static_cast<int>(rng.uniform_int(0, 5));
    const double target = level == 5 ? 1.5 : level >= 3 ? 0.95 : 0.5;
    const auto lattice = rng.uniform_int(2, 6);
    const auto cells = static_cast<std::size_t>(rng.uniform_int(1, 40));
    for (std::size_t c = 0; c < cells; ++c) {
      Query q;
      for (const Time p : periods) {
        const double share =
            target / static_cast<double>(periods.size()) *
            (0.6 + 0.4 * static_cast<double>(rng.uniform_int(0, lattice)) /
                       static_cast<double>(lattice));
        q.push_back({p, Time::ns(static_cast<std::int64_t>(
                            share * static_cast<double>(p.raw_ns())))});
      }
      sf.cells.push_back(std::move(q));
    }
    seq.push_back(std::move(sf));
    if (rng.bernoulli(0.05)) {
      // A cap group: a 1 ns task beside the VCPU's tasks.
      Surface cap;
      cap.pi = Time::ms(10);
      cap.throws = true;
      for (int c = 0; c < 3; ++c)
        cap.cells.push_back({{Time::ns(1), Time::zero()},
                             {Time::ms(10), Time::ms(1 + c)}});
      seq.push_back(std::move(cap));
    }
  }

  // min_budget_edf of every cell, computed once.
  std::vector<std::vector<std::optional<Time>>> ref(seq.size());
  for (std::size_t s = 0; s < seq.size(); ++s)
    if (!seq[s].throws)
      for (const auto& q : seq[s].cells)
        ref[s].push_back(min_budget_edf(q, seq[s].pi));

  // The serial loop, in a context of its own (contexts nest their counter
  // scopes, so two must not be alive at once). It never sees the throwing
  // surfaces: their cells must leave no memo entry behind.
  std::vector<std::vector<bool>> fresh(seq.size());
  std::vector<Effort> serial_effort(seq.size());
  std::vector<std::uint64_t> serial_dbf(seq.size());
  std::size_t over_cells = 0, dup_cells = 0, thrown = 0;
  {
    AnalysisContext serial;
    for (std::size_t s = 0; s < seq.size(); ++s) {
      for (std::size_t c = 0; c < seq[s].cells.size() && !seq[s].throws;
           ++c) {
        const std::uint64_t evals = serial.counters().budget_evaluations;
        const auto theta = serial.min_budget(seq[s].cells[c], seq[s].pi);
        ASSERT_EQ(theta, ref[s][c]) << "surface " << s << " cell " << c;
        fresh[s].push_back(serial.counters().budget_evaluations > evals);
        over_cells += !theta;
        dup_cells += !fresh[s].back();
      }
      thrown += seq[s].throws;
      serial_effort[s] = effort_of(serial);
      serial_dbf[s] = serial.counters().dbf_evaluations;
    }
  }

  util::ThreadPool pool(4);
  for (const int jobs : {1, 2, 4}) {
    SCOPED_TRACE("inner jobs " + std::to_string(jobs));
    AnalysisContext ctx;
    ctx.set_inner_parallelism(&pool, jobs);
    // What the throwing surfaces counted before their rollback.
    Effort failed{0, 0, 0, 0};
    std::uint64_t inner = 0;
    for (std::size_t s = 0; s < seq.size(); ++s) {
      const auto& sf = seq[s];
      if (sf.throws) {
        const Effort before = effort_of(ctx);
        EXPECT_THROW(run_surface(ctx, sf.cells, sf.pi), util::Error);
        const Effort after = effort_of(ctx);
        EXPECT_EQ(after.evals - before.evals, sf.cells.size());
        EXPECT_EQ(after.rebuilds - before.rebuilds, 1u);
        failed.evals += after.evals - before.evals;
        failed.rebuilds += after.rebuilds - before.rebuilds;
        failed.inner += after.inner - before.inner;
      } else {
        const auto got = run_surface(ctx, sf.cells, sf.pi);
        for (std::size_t c = 0; c < sf.cells.size(); ++c) {
          ASSERT_EQ(got[c].theta, ref[s][c])
              << "surface " << s << " cell " << c;
          ASSERT_EQ(got[c].searched, fresh[s][c])
              << "surface " << s << " cell " << c;
          inner += fresh[s][c];
        }
      }
      const Effort e = effort_of(ctx), r = serial_effort[s];
      ASSERT_EQ(e.evals, r.evals + failed.evals) << "surface " << s;
      ASSERT_EQ(e.hits, r.hits) << "surface " << s;
      ASSERT_EQ(e.rebuilds, r.rebuilds + failed.rebuilds) << "surface " << s;
      ASSERT_EQ(e.inner, inner + failed.inner) << "surface " << s;
      ASSERT_EQ(ctx.counters().dbf_evaluations, serial_dbf[s])
          << "surface " << s;
    }
  }
  EXPECT_GT(thrown, 3u);
  EXPECT_GT(over_cells, 500u);
  EXPECT_GT(dup_cells, 1000u);
}

// ------------------------------------------------------------ theorems ----

TEST(Theorem2, RegulatedVcpuBandwidthEqualsUtilization) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(1)),
                   make_task(Time::ms(20), Time::ms(3)),
                   make_task(Time::ms(40), Time::ms(4))};
  const std::vector<std::size_t> idx{0, 1, 2};
  const auto v = regulated_vcpu(ts, idx);
  EXPECT_EQ(v.period, Time::ms(10));  // min period
  // Θ* = Π · (1/10 + 3/20 + 4/40) = 10 · 0.35 = 3.5ms.
  EXPECT_EQ(v.reference_budget(), Time::us(3'500));
  // And the same identity holds at every grid point.
  for (unsigned c = 2; c <= 4; ++c)
    for (unsigned b = 1; b <= 3; ++b) {
      double u = 0;
      for (const auto& t : ts) u += t.utilization(c, b);
      EXPECT_NEAR(v.utilization(c, b), u, 1e-6);
      // Rounded up, never down.
      EXPECT_GE(v.utilization(c, b), u - 1e-12);
    }
}

TEST(Theorem2, SingleTaskReducesToFlattening) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(2))};
  const std::vector<std::size_t> idx{0};
  const auto v = regulated_vcpu(ts, idx);
  EXPECT_EQ(v.period, Time::ms(10));
  EXPECT_EQ(v.reference_budget(), Time::ms(2));
}

TEST(Theorem2, RejectsNonHarmonicTasks) {
  const Taskset ts{make_task(Time::ms(10), Time::ms(1)),
                   make_task(Time::ms(15), Time::ms(1))};
  const std::vector<std::size_t> idx{0, 1};
  EXPECT_THROW(regulated_vcpu(ts, idx), util::Error);
}

TEST(Theorem2, OverheadFreeBeatsExistingCsaOnTheMotivatingExample)
{
  // Existing CSA needs Θ = 5.5 for the (10, 1) task; Theorem 2 needs 1.
  const Taskset ts{make_task(Time::ms(10), Time::ms(1))};
  const std::vector<std::size_t> idx{0};
  const auto v = regulated_vcpu(ts, idx);
  EXPECT_EQ(v.reference_budget(), Time::ms(1));
  const std::vector<PTask> pt{{Time::ms(10), Time::ms(1)}};
  const auto theta = min_budget_edf(pt, Time::ms(10));
  ASSERT_TRUE(theta.has_value());
  EXPECT_EQ(*theta / v.reference_budget(), 5);  // 5.5ms vs 1ms
}

// ------------------------------------------------------ harmonic chains ----

/// The harmonic chains of the tasks at `idx`, computed into storage that
/// already holds a longer partition, so a stale chain would show.
std::vector<std::vector<std::size_t>> chains(
    const Taskset& ts, std::span<const std::size_t> idx) {
  std::vector<std::vector<std::size_t>> groups(idx.size() + 1, {99, 98});
  std::vector<std::size_t> order{97};
  groups.resize(harmonic_groups(ts, idx, groups, order));
  return groups;
}

TEST(HarmonicGroups, FullyHarmonicStaysOneGroup) {
  const Taskset ts{make_task(Time::ms(100), Time::ms(1)),
                   make_task(Time::ms(400), Time::ms(1)),
                   make_task(Time::ms(200), Time::ms(1))};
  const std::vector<std::size_t> idx{0, 1, 2};
  const auto groups = chains(ts, idx);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 3u);
}

TEST(HarmonicGroups, MixedPeriodsSplitIntoChains) {
  const Taskset ts{make_task(Time::ms(100), Time::ms(1)),   // chain A
                   make_task(Time::ms(150), Time::ms(1)),   // chain B
                   make_task(Time::ms(200), Time::ms(1)),   // chain A
                   make_task(Time::ms(300), Time::ms(1))};  // chain B
  const std::vector<std::size_t> idx{0, 1, 2, 3};
  const auto groups = chains(ts, idx);
  ASSERT_EQ(groups.size(), 2u);
  // Every group is internally harmonic and the groups partition the input.
  std::size_t total = 0;
  for (const auto& g : groups) {
    total += g.size();
    for (std::size_t a = 0; a < g.size(); ++a)
      for (std::size_t b = a + 1; b < g.size(); ++b)
        EXPECT_TRUE(util::harmonic_pair(ts[g[a]].period, ts[g[b]].period));
  }
  EXPECT_EQ(total, idx.size());
}

TEST(HarmonicGroups, PairwiseCoprimePeriodsAllSeparate) {
  const Taskset ts{make_task(Time::ms(7), Time::ms(1)),
                   make_task(Time::ms(11), Time::ms(1)),
                   make_task(Time::ms(13), Time::ms(1))};
  const std::vector<std::size_t> idx{0, 1, 2};
  EXPECT_EQ(chains(ts, idx).size(), 3u);
}

// ------------------------------------------------------ schedulability ----

/// The Theorem-1 VCPU of `t`: Π = p, Θ(c,b) = e(c,b).
model::Vcpu vcpu_of(const Task& t) {
  model::Vcpu v;
  v.period = t.period;
  v.budget = t.wcet;
  return v;
}

std::vector<model::Vcpu> two_vcpus(Time ref1, Time ref2) {
  return {vcpu_of(make_task(Time::ms(10), ref1)),
          vcpu_of(make_task(Time::ms(10), ref2))};
}

TEST(CoreSched, UtilizationSumsAcrossVcpus) {
  const auto vs = two_vcpus(Time::ms(3), Time::ms(4));
  EXPECT_DOUBLE_EQ(core_utilization(vs, 4, 3), 0.7);
  EXPECT_TRUE(core_schedulable(vs, 4, 3));
}

TEST(CoreSched, ExactBoundaryIsSchedulable) {
  const auto vs = two_vcpus(Time::ms(5), Time::ms(5));
  EXPECT_TRUE(core_schedulable(vs, 4, 3));   // exactly 1.0
  const auto over = two_vcpus(Time::ms(5), Time::ms(5) + Time::ns(1));
  EXPECT_FALSE(core_schedulable(over, 4, 3));
}

TEST(CoreSched, SubsetSelection) {
  const auto vs = two_vcpus(Time::ms(6), Time::ms(6));
  const std::vector<std::size_t> only_first{0};
  EXPECT_FALSE(core_schedulable(vs, 4, 3));  // 1.2 together
  EXPECT_TRUE(core_schedulable(vs, only_first, 4, 3));
}

TEST(CoreSched, ResourceStarvedAllocationRaisesUtilization) {
  const auto vs = two_vcpus(Time::ms(3), Time::ms(3));
  EXPECT_GT(core_utilization(vs, 2, 1), core_utilization(vs, 4, 3));
}

TEST(Inflation, AddsConstantEverywhere) {
  Taskset ts{make_task(Time::ms(10), Time::ms(1))};
  const Time before_max = ts[0].max_wcet;
  inflate_tasks(ts, Time::us(50));
  EXPECT_EQ(ts[0].wcet.at(4, 3), Time::ms(1) + Time::us(50));
  EXPECT_EQ(ts[0].max_wcet, before_max + Time::us(50));

  std::vector<model::Vcpu> vs{vcpu_of(ts[0])};
  const Time theta_before = vs[0].budget.at(2, 1);
  inflate_vcpus(vs, Time::us(25));
  EXPECT_EQ(vs[0].budget.at(2, 1), theta_before + Time::us(25));
}

TEST(Inflation, ZeroIsNoOp) {
  Taskset ts{make_task(Time::ms(10), Time::ms(1))};
  const Time before = ts[0].wcet.at(3, 2);
  inflate_tasks(ts, Time::zero());
  EXPECT_EQ(ts[0].wcet.at(3, 2), before);
}

}  // namespace
}  // namespace vc2m::analysis

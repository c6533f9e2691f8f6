#include <gtest/gtest.h>

#include "model/platform.h"
#include "model/resource_grid.h"
#include "model/surface.h"
#include "model/task.h"
#include "util/error.h"

namespace vc2m::model {
namespace {

using util::Time;

ResourceGrid small_grid() { return ResourceGrid{2, 4, 1, 3}; }

// -------------------------------------------------------- ResourceGrid ----

TEST(ResourceGrid, LevelsAndSize) {
  const auto g = small_grid();
  EXPECT_EQ(g.cache_levels(), 3u);
  EXPECT_EQ(g.bw_levels(), 3u);
  EXPECT_EQ(g.size(), 9u);
}

TEST(ResourceGrid, ContainsAndIndex) {
  const auto g = small_grid();
  EXPECT_TRUE(g.contains(2, 1));
  EXPECT_TRUE(g.contains(4, 3));
  EXPECT_FALSE(g.contains(1, 1));
  EXPECT_FALSE(g.contains(2, 4));
  EXPECT_EQ(g.index(2, 1), 0u);
  EXPECT_EQ(g.index(2, 2), 1u);
  EXPECT_EQ(g.index(3, 1), 3u);
  EXPECT_EQ(g.index(4, 3), 8u);
  EXPECT_THROW(g.index(5, 1), util::Error);
}

TEST(ResourceGrid, ValidateRejectsInvertedBounds) {
  ResourceGrid g{3, 2, 1, 1};
  EXPECT_THROW(g.validate(), util::Error);
}

// ------------------------------------------------------------- Surface ----

TEST(Surface, SetGetAndReference) {
  Surface s(small_grid(), 1.0);
  s.set(2, 1, 3.0);
  EXPECT_DOUBLE_EQ(s.at(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(s.at(3, 2), 1.0);
  EXPECT_DOUBLE_EQ(s.reference(), 1.0);  // value at (c_max, b_max)
  EXPECT_DOUBLE_EQ(s.max_value(), 3.0);
}

TEST(Surface, MonotonicityCheck) {
  Surface s(small_grid(), 1.0);
  EXPECT_TRUE(s.monotone_nonincreasing());  // constant
  s.set(2, 1, 2.0);
  s.set(2, 2, 1.5);
  EXPECT_TRUE(s.monotone_nonincreasing());
  s.set(4, 3, 5.0);  // larger at the richest allocation: violates
  EXPECT_FALSE(s.monotone_nonincreasing());
}

// -------------------------------------------------------------- WcetFn ----

Surface demo_slowdown() {
  Surface s(small_grid());
  for (unsigned c = 2; c <= 4; ++c)
    for (unsigned b = 1; b <= 3; ++b)
      s.set(c, b, 1.0 + 0.5 * (4 - c) + 0.25 * (3 - b));
  return s;
}

TEST(WcetFn, FromSlowdownRoundTrips) {
  const auto f = WcetFn::from_slowdown(Time::ms(10), demo_slowdown());
  EXPECT_EQ(f.reference(), Time::ms(10));
  EXPECT_EQ(f.at(2, 1), Time::ms(25));  // 10ms * (1 + 0.5*2 + 0.25*2)
  const auto s = f.slowdown();
  EXPECT_DOUBLE_EQ(s.reference(), 1.0);
  EXPECT_NEAR(s.at(2, 1), 2.5, 1e-9);
  EXPECT_TRUE(f.monotone_nonincreasing());
}

TEST(WcetFn, PointwiseSum) {
  auto f = WcetFn(small_grid(), Time::ms(1));
  const auto g = WcetFn(small_grid(), Time::ms(2));
  f += g;
  EXPECT_EQ(f.at(3, 2), Time::ms(3));
}

TEST(WcetFn, SumRejectsGridMismatch) {
  auto f = WcetFn(small_grid());
  const auto g = WcetFn(ResourceGrid{2, 5, 1, 3});
  EXPECT_THROW(f += g, util::Error);
}

// ---------------------------------------------------------------- Task ----

Task make_task(Time period, Time ref_wcet, int vm = 0) {
  Task t;
  t.period = period;
  t.wcet = WcetFn::from_slowdown(ref_wcet, demo_slowdown());
  t.max_wcet = ref_wcet * 2;
  t.vm = vm;
  return t;
}

TEST(Task, ReferenceUtilization) {
  const auto t = make_task(Time::ms(100), Time::ms(10));
  EXPECT_DOUBLE_EQ(t.reference_utilization(), 0.1);
  EXPECT_NEAR(t.utilization(2, 1), 0.25, 1e-9);
}

TEST(Taskset, TotalReferenceUtilization) {
  Taskset ts{make_task(Time::ms(100), Time::ms(10)),
             make_task(Time::ms(200), Time::ms(30))};
  EXPECT_DOUBLE_EQ(total_reference_utilization(ts), 0.25);
}

TEST(Taskset, HyperperiodOfHarmonicSetIsMaxPeriod) {
  Taskset h{make_task(Time::ms(100), Time::ms(1)),
            make_task(Time::ms(400), Time::ms(1))};
  EXPECT_EQ(hyperperiod(h), Time::ms(400));
}

// ---------------------------------------------------------------- Vcpu ----

TEST(Vcpu, UtilizationFollowsBudgetSurface) {
  Vcpu v;
  v.period = Time::ms(100);
  v.budget = WcetFn::from_slowdown(Time::ms(20), demo_slowdown());
  EXPECT_DOUBLE_EQ(v.reference_utilization(), 0.2);
  EXPECT_NEAR(v.utilization(2, 1), 0.5, 1e-9);
}

// ------------------------------------------------------------ Platform ----

TEST(Platform, SpecsMatchThePaper) {
  const auto a = PlatformSpec::A();
  EXPECT_EQ(a.cores, 4u);
  EXPECT_EQ(a.total_cache(), 20u);
  EXPECT_EQ(a.total_bw(), 20u);
  EXPECT_EQ(a.grid.c_min, 2u);
  EXPECT_EQ(a.grid.b_min, 1u);

  const auto b = PlatformSpec::B();
  EXPECT_EQ(b.cores, 6u);
  EXPECT_EQ(b.total_cache(), 20u);

  const auto c = PlatformSpec::C();
  EXPECT_EQ(c.cores, 4u);
  EXPECT_EQ(c.total_cache(), 12u);
  EXPECT_EQ(c.total_bw(), 12u);
}

}  // namespace
}  // namespace vc2m::model

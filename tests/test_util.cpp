#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/hash.h"
#include "util/log_histogram.h"
#include "util/parse.h"
#include "util/phase_profiler.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/time.h"

namespace vc2m::util {
namespace {

// ---------------------------------------------------------------- Time ----

TEST(Time, NamedConstructorsScale) {
  EXPECT_EQ(Time::ns(1).raw_ns(), 1);
  EXPECT_EQ(Time::us(1).raw_ns(), 1'000);
  EXPECT_EQ(Time::ms(1).raw_ns(), 1'000'000);
  EXPECT_EQ(Time::sec(1).raw_ns(), 1'000'000'000);
}

TEST(Time, ArithmeticAndComparison) {
  const Time a = Time::ms(10);
  const Time b = Time::ms(3);
  EXPECT_EQ((a + b).raw_ns(), Time::ms(13).raw_ns());
  EXPECT_EQ((a - b).raw_ns(), Time::ms(7).raw_ns());
  EXPECT_EQ((a * 3).raw_ns(), Time::ms(30).raw_ns());
  EXPECT_EQ(a / b, 3);
  EXPECT_EQ((a % b).raw_ns(), Time::ms(1).raw_ns());
  EXPECT_LT(b, a);
  EXPECT_EQ(min(a, b), b);
  EXPECT_EQ(max(a, b), a);
}

TEST(Time, RatioIsExactForRepresentableFractions) {
  EXPECT_DOUBLE_EQ(Time::ms(1).ratio(Time::ms(10)), 0.1);
  EXPECT_DOUBLE_EQ(Time::ms(55).ratio(Time::ms(10)), 5.5);
}

TEST(Time, ConversionHelpers) {
  EXPECT_DOUBLE_EQ(Time::us(1500).to_ms(), 1.5);
  EXPECT_DOUBLE_EQ(Time::ns(2500).to_us(), 2.5);
  EXPECT_DOUBLE_EQ(Time::ms(1500).to_sec(), 1.5);
}

TEST(Time, LcmOfHarmonicPairIsLargerPeriod) {
  EXPECT_EQ(lcm(Time::ms(100), Time::ms(400)), Time::ms(400));
  EXPECT_EQ(lcm(Time::ms(6), Time::ms(4)), Time::ms(12));
}

TEST(Time, LcmOverflowFailsLoudlyInsteadOfWrapping) {
  // 2^62 ns and a coprime 3 ns: the true LCM (3·2^62) exceeds 64-bit
  // nanoseconds. The old implementation wrapped silently into a bogus
  // small horizon; now the product check must throw.
  const Time big = Time::ns(std::int64_t{1} << 62);
  EXPECT_THROW(lcm(big, Time::ns(3)), Error);
  EXPECT_THROW(lcm(Time::ns(3), big), Error);
  // The same magnitude with a harmonic partner stays exact and in range.
  EXPECT_EQ(lcm(big, Time::ns(2)), big);
}

TEST(Time, LcmRejectsNonPositivePeriods) {
  EXPECT_THROW(lcm(Time::zero(), Time::ms(1)), Error);
  EXPECT_THROW(lcm(Time::ms(1), Time::ns(-5)), Error);
}

TEST(Time, RoundUp) {
  EXPECT_EQ(round_up(Time::ns(10), Time::ns(4)), Time::ns(12));
  EXPECT_EQ(round_up(Time::ns(12), Time::ns(4)), Time::ns(12));
  EXPECT_EQ(round_up(Time::zero(), Time::ns(4)), Time::zero());
}

TEST(Time, HarmonicPair) {
  EXPECT_TRUE(harmonic_pair(Time::ms(100), Time::ms(200)));
  EXPECT_TRUE(harmonic_pair(Time::ms(200), Time::ms(100)));
  EXPECT_TRUE(harmonic_pair(Time::ms(100), Time::ms(100)));
  EXPECT_FALSE(harmonic_pair(Time::ms(100), Time::ms(150)));
  EXPECT_FALSE(harmonic_pair(Time::zero(), Time::ms(100)));
}

TEST(Time, MaxActsAsNever) {
  EXPECT_GT(Time::max(), Time::sec(1'000'000));
}

// ----------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversFullInclusiveRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const std::int64_t x = rng.uniform_int(3, 7);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 7);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform(10.0, 20.0);
  EXPECT_NEAR(sum / kN, 15.0, 0.05);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(3);
  const auto p = rng.permutation(50);
  std::set<std::size_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(9);
  Rng child = a.fork();
  // The child must not replay the parent's stream.
  Rng parent_copy(9);
  (void)parent_copy();  // parent consumed one draw for the fork
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child() == parent_copy()) ? 1 : 0;
  EXPECT_LT(equal, 2);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// --------------------------------------------------------------- stats ----

TEST(SampleStats, MinMeanMax) {
  SampleStats s;
  for (const double x : {4.0, 1.0, 7.0, 2.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.count(), 4u);
}

TEST(SampleStats, Percentiles) {
  SampleStats s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.percentile(0.5), 50.5, 1e-9);
}

TEST(SampleStats, EmptyThrows) {
  SampleStats s;
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.mean(), Error);
}

TEST(SampleStats, AggregatesSurvivePercentileSortAndLaterAdds) {
  // min/max/mean come from running accumulators; a percentile query sorts
  // the sample buffer in place, and additions after that must keep every
  // aggregate consistent with the full sample set.
  SampleStats s;
  for (const double x : {5.0, 2.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 5.0);  // forces the sort
  s.add(1.0);
  s.add(12.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 12.0);
  EXPECT_DOUBLE_EQ(s.mean(), 29.0 / 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 12.0);
  EXPECT_DOUBLE_EQ(s.p(0.0), 1.0);  // p() shorthand
}

TEST(OnlineStats, MatchesBatchComputation) {
  OnlineStats o;
  SampleStats s;
  Rng rng(13);
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.uniform(-5, 5);
    o.add(x);
    s.add(x);
  }
  EXPECT_NEAR(o.mean(), s.mean(), 1e-9);
  EXPECT_NEAR(o.stddev(), s.stddev(), 1e-9);
  EXPECT_DOUBLE_EQ(o.min(), s.min());
  EXPECT_DOUBLE_EQ(o.max(), s.max());
}

TEST(SampleStats, StddevCacheInvalidatedByLaterAdds) {
  // stddev() caches its two-pass scan; additions must invalidate the cache
  // so later queries see the full sample set, not the stale value.
  SampleStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);  // cached path
  s.add(5.0);  // mean stays 5, spread shrinks
  const double m = s.mean();
  double sq = 0;
  for (const double x : s.samples()) sq += (x - m) * (x - m);
  EXPECT_DOUBLE_EQ(s.stddev(),
                   std::sqrt(sq / static_cast<double>(s.count())));
  EXPECT_LT(s.stddev(), 2.0);
}

TEST(SampleStats, StddevMatchesWelfordOnOffsetData) {
  // Accuracy check for the naive two-pass stddev against Welford on data
  // with a large common offset — the regime where a single-pass
  // sum-of-squares formula catastrophically cancels. Both implementations
  // here must agree to many digits.
  SampleStats naive;
  OnlineStats welford;
  Rng rng(99);
  for (int i = 0; i < 10'000; ++i) {
    const double x = 1e9 + rng.uniform(0, 1);  // stddev ~0.2887
    naive.add(x);
    welford.add(x);
  }
  EXPECT_NEAR(naive.stddev(), welford.stddev(), 1e-6);
  EXPECT_NEAR(naive.stddev(), 1.0 / std::sqrt(12.0), 5e-3);
}

// ------------------------------------------------------- log histogram ----

TEST(LogHistogram, QuantileWithinBucketRatioOfExactRank) {
  // The histogram promises any quantile is within one bucket ratio of a
  // true sample at that rank. Compare against the exact nearest-rank
  // statistic over the same samples.
  LogHistogram h;
  std::vector<double> v;
  Rng rng(7);
  for (int i = 0; i < 20'000; ++i) {
    const double x = std::exp(rng.uniform(-10, 3));  // ~45 µs .. ~20 s
    h.add(x);
    v.push_back(x);
  }
  std::sort(v.begin(), v.end());
  const double tol = h.bucket_ratio();  // 2^(1/32) ≈ 1.0219
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    const auto rank =
        static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    const double exact = v[rank];
    const double est = h.quantile(q);
    EXPECT_LE(est, exact * tol) << "q=" << q;
    EXPECT_GE(est, exact / tol) << "q=" << q;
  }
  // The extreme quantiles are bucket-midpoint estimates too: within one
  // bucket ratio of the observed extremes, never outside [min, max].
  EXPECT_LE(h.quantile(0.0), h.min() * tol);
  EXPECT_GE(h.quantile(0.0), h.min());
  EXPECT_LE(h.quantile(1.0), h.max());
  EXPECT_GE(h.quantile(1.0), h.max() / tol);
}

TEST(LogHistogram, MergeIsAssociativeAndCommutative) {
  Rng rng(21);
  LogHistogram parts[3];
  for (int p = 0; p < 3; ++p)
    for (int i = 0; i < 500; ++i)
      parts[p].add(std::exp(rng.uniform(-8, 2)));

  LogHistogram ab_c = parts[0];   // (a + b) + c
  ab_c.merge(parts[1]);
  ab_c.merge(parts[2]);
  LogHistogram a_bc = parts[1];   // a + (b + c), built right-to-left
  a_bc.merge(parts[2]);
  LogHistogram left = parts[0];
  left.merge(a_bc);
  LogHistogram cba = parts[2];    // reversed order
  cba.merge(parts[1]);
  cba.merge(parts[0]);

  for (const auto* h : {&left, &cba}) {
    EXPECT_EQ(h->count(), ab_c.count());
    EXPECT_EQ(h->bucket_counts(), ab_c.bucket_counts());
    EXPECT_DOUBLE_EQ(h->min(), ab_c.min());
    EXPECT_DOUBLE_EQ(h->max(), ab_c.max());
    EXPECT_NEAR(h->sum(), ab_c.sum(), 1e-9 * std::abs(ab_c.sum()));
    EXPECT_DOUBLE_EQ(h->quantile(0.5), ab_c.quantile(0.5));
  }
}

TEST(LogHistogram, NonpositiveSamplesReportAsObservedMinimum) {
  LogHistogram h;
  h.add(-1.0);
  h.add(0.0);
  h.add(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.nonpositive_count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), -1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(LogHistogram, MergeRejectsMismatchedLayouts) {
  LogHistogram a;
  LogHistogram b(LogHistogram::Config{6, -30, 34});
  b.add(1.0);
  EXPECT_THROW(a.merge(b), Error);
}

TEST(LogHistogram, EmptyAndWeightedAdds) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  h.add(3.0, 10);
  h.add(3.0, 0);  // zero weight is a no-op
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
}

// ------------------------------------------------------ phase profiler ----

TEST(PhaseProfiler, DisabledSpansRecordNothing) {
  PhaseProfiler::reset();
  PhaseProfiler::set_enabled(false);
  { VC2M_PROFILE_PHASE("should_not_appear"); }
  EXPECT_TRUE(PhaseProfiler::trees().empty());
}

TEST(PhaseProfiler, SpansNestIntoACallTree) {
  PhaseProfiler::reset();
  PhaseProfiler::set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    VC2M_PROFILE_PHASE("outer");
    { VC2M_PROFILE_PHASE("inner"); }
    { VC2M_PROFILE_PHASE("inner"); }
  }
  PhaseProfiler::set_enabled(false);
  const auto trees = PhaseProfiler::trees();
  ASSERT_EQ(trees.size(), 1u);  // one thread registered
  const auto& root = *trees[0];
  ASSERT_EQ(root.children.size(), 1u);
  const auto& outer = *root.children.begin()->second;
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 3u);
  ASSERT_EQ(outer.children.size(), 1u);
  const auto& inner = *outer.children.begin()->second;
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.count, 6u);
  EXPECT_GE(outer.total_ns, inner.total_ns);
  PhaseProfiler::reset();
}

TEST(PhaseProfiler, ResetDropsRegisteredTrees) {
  PhaseProfiler::reset();
  PhaseProfiler::set_enabled(true);
  { VC2M_PROFILE_PHASE("ephemeral"); }
  EXPECT_EQ(PhaseProfiler::trees().size(), 1u);
  PhaseProfiler::set_enabled(false);
  PhaseProfiler::reset();
  EXPECT_TRUE(PhaseProfiler::trees().empty());
  // A new span after reset re-registers the thread's tree.
  PhaseProfiler::set_enabled(true);
  { VC2M_PROFILE_PHASE("fresh"); }
  PhaseProfiler::set_enabled(false);
  const auto trees = PhaseProfiler::trees();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0]->children.count("fresh"), 1u);
  PhaseProfiler::reset();
}

// --------------------------------------------------------------- table ----

TEST(Table, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row("alpha", 1.5);
  t.add_row("b", 22);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.500"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row("only-one"), Error);
  EXPECT_THROW(t.add_row_vec({"x", "y", "z"}), Error);
}

TEST(Table, RespectsPrecision) {
  Table t({"v"});
  t.set_precision(1);
  t.add_row(3.14159);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("3.1"), std::string::npos);
  EXPECT_EQ(os.str().find("3.14"), std::string::npos);
}

// --------------------------------------------------------------- parse ----

TEST(Parse, StrictScalarGrammarTable) {
  // Token -> the value each form reads, or nullopt for a rejection.
  using U = std::optional<std::uint64_t>;
  using I = std::optional<std::int64_t>;
  using D = std::optional<double>;
  struct Row {
    const char* token;
    U u64;
    I i64;
    D dbl;
  };
  const Row rows[] = {
      {"0", 0, 0, 0.0},
      {"42", 42, 42, 42.0},
      {"007", 7, 7, 7.0},
      {"-5", {}, -5, -5.0},
      {"-0", {}, {}, -0.0},
      {"", {}, {}, {}},
      {"-", {}, {}, {}},
      {"+3", {}, {}, {}},
      {" 3", {}, {}, {}},
      {"3 ", {}, {}, {}},
      {"\t3", {}, {}, {}},
      {"0x10", {}, {}, {}},
      {"1e3", {}, {}, 1000.0},
      {"2.5", {}, {}, 2.5},
      {".5", {}, {}, 0.5},
      {"5x", {}, {}, {}},
      {"nan", {}, {}, {}},
      {"inf", {}, {}, {}},
      {"-inf", {}, {}, {}},
      {"1e400", {}, {}, {}},
      {"18446744073709551615", UINT64_MAX, {}, 18446744073709551615.0},
      {"18446744073709551616", {}, {}, 18446744073709551616.0},
      {"9223372036854775807", 9223372036854775807ull, INT64_MAX,
       9223372036854775807.0},
      {"9223372036854775808", 9223372036854775808ull, {},
       9223372036854775808.0},
      {"-9223372036854775808", {}, INT64_MIN, -9223372036854775808.0},
      {"-9223372036854775809", {}, {}, -9223372036854775809.0},
  };
  for (const Row& r : rows) {
    EXPECT_EQ(try_u64(r.token), r.u64) << "'" << r.token << "'";
    EXPECT_EQ(try_i64(r.token), r.i64) << "'" << r.token << "'";
    EXPECT_EQ(try_double(r.token), r.dbl) << "'" << r.token << "'";
    if (r.u64)
      EXPECT_EQ(parse_u64(r.token, "t"), *r.u64);
    else
      EXPECT_THROW(parse_u64(r.token, "t"), Error) << "'" << r.token << "'";
    if (r.i64)
      EXPECT_EQ(parse_i64(r.token, "t"), *r.i64);
    else
      EXPECT_THROW(parse_i64(r.token, "t"), Error) << "'" << r.token << "'";
    if (r.dbl)
      EXPECT_EQ(parse_double(r.token, "t"), *r.dbl);
    else
      EXPECT_THROW(parse_double(r.token, "t"), Error) << "'" << r.token << "'";
  }

  // A ranged integer: its bounds are in, one past either bound is out.
  EXPECT_EQ(try_int<int>("1", 1, 8), 1);
  EXPECT_EQ(try_int<int>("8", 1, 8), 8);
  EXPECT_EQ(try_int<int>("0", 1, 8), std::nullopt);
  EXPECT_EQ(try_int<int>("9", 1, 8), std::nullopt);
  EXPECT_EQ(try_int<int>("2147483647"), INT32_MAX);
  EXPECT_EQ(try_int<int>("2147483648"), std::nullopt);
  EXPECT_EQ(try_int<unsigned>("4294967296"), std::nullopt);
  EXPECT_EQ(try_int<unsigned>("-1"), std::nullopt);
  EXPECT_THROW(parse_int<int>("9", "t", 1, 8), Error);

  // hex16 is the exact inverse of util::hex16: 16 lowercase digits.
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{0xdeadbeef},
                                UINT64_MAX})
    EXPECT_EQ(parse_hex16(hex16(v), "t"), v);
  for (const char* bad : {"", "deadbeef", "00000000DEADBEEF",
                          "000000000000000g", "0x00000000000000",
                          "00000000000000000"})
    EXPECT_EQ(try_hex16(bad), std::nullopt) << bad;

  // The error names its source and quotes the token.
  try {
    parse_u64("12x", "crash spec");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), "crash spec: bad number '12x'");
  }
}

// --------------------------------------------------------------- error ----

TEST(Check, ThrowsWithLocation) {
  try {
    VC2M_CHECK_MSG(1 == 2, "impossible " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("impossible 42"), std::string::npos);
  }
}

}  // namespace
}  // namespace vc2m::util

#include <gtest/gtest.h>

#include "hw/cat.h"
#include "hw/lapic.h"
#include "hw/msr.h"
#include "hw/perf_counter.h"
#include "util/error.h"
#include "vcat.h"

namespace vc2m::hw {
namespace {

// ----------------------------------------------------------------- MSR ----

TEST(Msr, CoreScopedRegistersAreIndependent) {
  MsrFile msr(4);
  msr.write(0, IA32_PMC0, 11);
  msr.write(1, IA32_PMC0, 22);
  EXPECT_EQ(msr.read(0, IA32_PMC0), 11u);
  EXPECT_EQ(msr.read(1, IA32_PMC0), 22u);
  EXPECT_EQ(msr.read(2, IA32_PMC0), 0u);
}

TEST(Msr, CbmArrayIsPackageScoped) {
  MsrFile msr(4);
  msr.write(2, IA32_L3_MASK_0 + 3, 0xF0);
  EXPECT_EQ(msr.read(0, IA32_L3_MASK_0 + 3), 0xF0u);
}

TEST(Msr, BitHelpers) {
  MsrFile msr(1);
  msr.set_bits(0, IA32_PERF_GLOBAL_STATUS, 0b101);
  msr.clear_bits(0, IA32_PERF_GLOBAL_STATUS, 0b001);
  EXPECT_EQ(msr.read(0, IA32_PERF_GLOBAL_STATUS), 0b100u);
}

// ----------------------------------------------------------------- CAT ----

TEST(Cat, MaskHelpers) {
  EXPECT_TRUE(contiguous_mask(0b00111000));
  EXPECT_TRUE(contiguous_mask(0b1));
  EXPECT_FALSE(contiguous_mask(0b101));
  EXPECT_FALSE(contiguous_mask(0));
  EXPECT_EQ(make_mask(2, 3), 0b11100u);
}

class CatTest : public ::testing::Test {
 protected:
  MsrFile msr_{4};
  Cat cat_{msr_, /*num_ways=*/20, /*num_cos=*/16, /*min_ways=*/2};
};

TEST_F(CatTest, DefaultStateIsFullMaskCosZero) {
  for (unsigned core = 0; core < 4; ++core) {
    EXPECT_EQ(cat_.cos_of_core(core), 0u);
    EXPECT_EQ(ways_of_core(cat_, core), 20u);
  }
}

TEST_F(CatTest, RejectsInvalidMasks) {
  EXPECT_THROW(cat_.write_cbm(1, 0), util::Error);             // empty
  EXPECT_THROW(cat_.write_cbm(1, 0b101), util::Error);         // holes
  EXPECT_THROW(cat_.write_cbm(1, 1ull << 20), util::Error);    // too high
  EXPECT_THROW(cat_.write_cbm(1, 0b1), util::Error);           // < min_ways
  EXPECT_THROW(cat_.write_cbm(99, 0b11), util::Error);         // bad COS
}

TEST_F(CatTest, BindAndEffectiveMask) {
  cat_.write_cbm(3, make_mask(4, 6));
  cat_.bind_core(2, 3);
  EXPECT_EQ(cat_.cos_of_core(2), 3u);
  EXPECT_EQ(cat_.effective_mask(2), make_mask(4, 6));
  EXPECT_EQ(ways_of_core(cat_, 2), 6u);
}

TEST_F(CatTest, DisjointPlanProgramsDisjointContiguousRegions) {
  cat_.program_disjoint_plan({6, 6, 4, 4});
  EXPECT_TRUE(cores_disjoint(cat_, 4));
  std::uint64_t all = 0;
  for (unsigned core = 0; core < 4; ++core) {
    const std::uint64_t m = cat_.effective_mask(core);
    EXPECT_TRUE(contiguous_mask(m));
    all |= m;
  }
  EXPECT_EQ(all, make_mask(0, 20));
}

TEST_F(CatTest, PlanWithUnusedCoreAndNoLeftoverWays) {
  cat_.program_disjoint_plan({10, 0, 10});
  EXPECT_EQ(ways_of_core(cat_, 0), 10u);
  EXPECT_EQ(ways_of_core(cat_, 2), 10u);
  // No ways remain for core 1: it stays on the default full-mask COS 0 —
  // the allocator never schedules anything there.
  EXPECT_EQ(cat_.cos_of_core(1), 0u);
}

TEST_F(CatTest, UnusedCoresParkedOnLeftoverRegion) {
  cat_.program_disjoint_plan({6, 0, 6});
  // Cores 1 and 3 share the 8 leftover ways, disjoint from cores 0 and 2.
  EXPECT_EQ(ways_of_core(cat_, 1), 8u);
  EXPECT_EQ(cat_.effective_mask(1), cat_.effective_mask(3));
  EXPECT_EQ(cat_.effective_mask(0) & cat_.effective_mask(1), 0u);
  EXPECT_EQ(cat_.effective_mask(2) & cat_.effective_mask(1), 0u);
  // Shared parking is one isolation domain: the plan counts as disjoint.
  EXPECT_TRUE(cores_disjoint(cat_, 4));
}

TEST_F(CatTest, PlanOverCapacityThrows) {
  EXPECT_THROW(cat_.program_disjoint_plan({10, 10, 10}), util::Error);
  EXPECT_THROW(cat_.program_disjoint_plan({1, 2, 2}), util::Error);  // < min
}

TEST_F(CatTest, DefaultStateIsOneSharedDomain) {
  // All cores share COS 0 with the full mask: a single isolation domain,
  // trivially "disjoint" (no *cross-domain* overlap).
  EXPECT_TRUE(cores_disjoint(cat_, 4));
}

TEST_F(CatTest, OverlappingDistinctCosIsNotDisjoint) {
  cat_.write_cbm(1, make_mask(0, 6));
  cat_.write_cbm(2, make_mask(4, 6));  // overlaps ways 4-5 of COS 1
  cat_.bind_core(0, 1);
  cat_.bind_core(1, 2);
  // Cores 2, 3 remain on the full-mask COS 0, which also overlaps.
  EXPECT_FALSE(cores_disjoint(cat_, 4));
}

// ------------------------------------------------------------------ PMU ----

class PmuTest : public ::testing::Test {
 protected:
  MsrFile msr_{2};
  PerfCounter pc_{msr_, 0};
};

TEST_F(PmuTest, DisabledCounterIgnoresEvents) {
  EXPECT_FALSE(pc_.enabled());
  EXPECT_FALSE(pc_.count(1'000));
  EXPECT_EQ(pc_.value(), 0u);
}

TEST_F(PmuTest, PresetOverflowsAfterExactBudget) {
  pc_.program_llc_misses();
  pc_.preset_for_budget(100);
  EXPECT_EQ(pc_.remaining_before_overflow(), 100u);
  EXPECT_FALSE(pc_.count(99));
  EXPECT_FALSE(pc_.overflow_pending());
  EXPECT_TRUE(pc_.count(1));  // crosses the boundary exactly
  EXPECT_TRUE(pc_.overflow_pending());
}

TEST_F(PmuTest, OverflowBitIsStickyUntilCleared) {
  pc_.program_llc_misses();
  pc_.preset_for_budget(10);
  EXPECT_TRUE(pc_.count(10));
  EXPECT_TRUE(pc_.overflow_pending());
  pc_.clear_overflow();
  EXPECT_FALSE(pc_.overflow_pending());
}

TEST_F(PmuTest, CounterWrapsAtWidth) {
  pc_.program_llc_misses();
  pc_.preset_for_budget(1);
  EXPECT_TRUE(pc_.count(1));
  EXPECT_EQ(pc_.value(), 0u);  // wrapped to zero
  // After the wrap a full 2^48 events are needed for the next overflow.
  EXPECT_EQ(pc_.remaining_before_overflow(), kPmcMask + 1);
}

TEST_F(PmuTest, BudgetOutOfRangeThrows) {
  EXPECT_THROW(pc_.preset_for_budget(0), util::Error);
  EXPECT_THROW(pc_.preset_for_budget(kPmcMask + 1), util::Error);
}

// ---------------------------------------------------------------- LAPIC ----

TEST(Lapic, MaskedPmiIsDropped) {
  Lapic lapic(2);
  int delivered = 0;
  lapic.set_handler([&](unsigned, std::uint8_t) { ++delivered; });
  // Architectural reset state: masked.
  EXPECT_FALSE(lapic.deliver_pmi(0));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(lapic.delivery_attempts(), 1u);
  EXPECT_EQ(lapic.deliveries(), 0u);
}

TEST(Lapic, UnmaskedPmiReachesHandlerWithVector) {
  Lapic lapic(2);
  unsigned got_core = 99;
  std::uint8_t got_vector = 0;
  lapic.set_handler([&](unsigned core, std::uint8_t v) {
    got_core = core;
    got_vector = v;
  });
  lapic.configure_pmi(1, 0xEE, /*masked=*/false);
  EXPECT_TRUE(lapic.deliver_pmi(1));
  EXPECT_EQ(got_core, 1u);
  EXPECT_EQ(got_vector, 0xEE);
}

TEST(Lapic, PerCoreMasking) {
  Lapic lapic(2);
  lapic.set_handler([](unsigned, std::uint8_t) {});
  lapic.configure_pmi(0, 0xEE, false);
  EXPECT_FALSE(lapic.masked(0));
  EXPECT_TRUE(lapic.masked(1));
}

}  // namespace
}  // namespace vc2m::hw

#include <gtest/gtest.h>

#include "hw/cat.h"
#include "hw/msr.h"
#include "vcat.h"
#include "util/error.h"

namespace vc2m::hw {
namespace {

class VCatTest : public ::testing::Test {
 protected:
  MsrFile msr_{4};
  Cat cat_{msr_, /*num_ways=*/20, /*num_cos=*/8, /*min_ways=*/2};
  VCat vcat_{cat_, msr_.num_cores()};
};

TEST_F(VCatTest, RegionAssignmentAndLookup) {
  vcat_.assign_region(/*vm=*/1, /*offset=*/0, /*count=*/8);
  vcat_.assign_region(/*vm=*/2, /*offset=*/8, /*count=*/12);
  ASSERT_TRUE(vcat_.region_of(1).has_value());
  EXPECT_EQ(vcat_.region_of(1)->count, 8u);
  EXPECT_EQ(vcat_.region_of(2)->offset, 8u);
  EXPECT_FALSE(vcat_.region_of(3).has_value());
}

TEST_F(VCatTest, OverlappingRegionsRejected) {
  vcat_.assign_region(1, 0, 10);
  EXPECT_THROW(vcat_.assign_region(2, 8, 4), util::Error);
  EXPECT_THROW(vcat_.assign_region(2, 0, 2), util::Error);
  vcat_.assign_region(2, 10, 10);  // adjacent is fine
}

TEST_F(VCatTest, RegionValidation) {
  EXPECT_THROW(vcat_.assign_region(1, 0, 1), util::Error);    // < min_ways
  EXPECT_THROW(vcat_.assign_region(1, 15, 8), util::Error);   // overruns
  vcat_.assign_region(1, 0, 4);
  EXPECT_THROW(vcat_.assign_region(1, 10, 4), util::Error);   // duplicate
}

TEST_F(VCatTest, GuestMaskTranslatedIntoRegion) {
  vcat_.assign_region(1, /*offset=*/8, /*count=*/8);
  vcat_.guest_write_cbm(1, /*vcos=*/0, 0b0001111);  // ways 0-3 of the region
  const auto phys = vcat_.physical_cbm(1, 0);
  ASSERT_TRUE(phys.has_value());
  EXPECT_EQ(*phys, static_cast<std::uint64_t>(0b1111) << 8);
}

TEST_F(VCatTest, GuestMaskEscapeRejected) {
  vcat_.assign_region(1, 8, 8);
  EXPECT_THROW(vcat_.guest_write_cbm(1, 0, 0x1FF), util::Error);  // 9 bits
  EXPECT_THROW(vcat_.guest_write_cbm(1, 0, 0b101), util::Error);  // holes
  EXPECT_THROW(vcat_.guest_write_cbm(1, 0, 0b1), util::Error);    // < min
}

TEST_F(VCatTest, BindCoreUsesBackingPhysicalCos) {
  vcat_.assign_region(1, 0, 8);
  vcat_.guest_write_cbm(1, /*vcos=*/3, 0b111111);
  vcat_.bind_core(1, /*core=*/2, /*vcos=*/3);
  EXPECT_EQ(cat_.effective_mask(2), 0b111111u);
  EXPECT_NE(cat_.cos_of_core(2), 0u);
}

TEST_F(VCatTest, BindUnprogrammedVcosRejected) {
  vcat_.assign_region(1, 0, 8);
  EXPECT_THROW(vcat_.bind_core(1, 0, 5), util::Error);
}

TEST_F(VCatTest, TwoVmsAreIsolated) {
  vcat_.assign_region(1, 0, 10);
  vcat_.assign_region(2, 10, 10);
  vcat_.guest_write_cbm(1, 0, 0b1111111111);  // its whole region
  vcat_.guest_write_cbm(2, 0, 0b1111111111);
  vcat_.bind_core(1, 0, 0);
  vcat_.bind_core(2, 1, 0);
  EXPECT_EQ(cat_.effective_mask(0) & cat_.effective_mask(1), 0u);
}

TEST_F(VCatTest, ResizeRewritesTranslations) {
  vcat_.assign_region(1, 0, 8);
  vcat_.guest_write_cbm(1, 0, 0b1111);
  vcat_.bind_core(1, 0, 0);
  // Dynamic repartitioning: slide the VM's region to ways 12..19.
  vcat_.resize_region(1, 12, 8);
  const auto phys = vcat_.physical_cbm(1, 0);
  ASSERT_TRUE(phys.has_value());
  EXPECT_EQ(*phys, static_cast<std::uint64_t>(0b1111) << 12);
  // The bound core follows automatically (same physical COS).
  EXPECT_EQ(cat_.effective_mask(0), static_cast<std::uint64_t>(0b1111) << 12);
}

TEST_F(VCatTest, ShrinkClipsOversizedVirtualMasks) {
  vcat_.assign_region(1, 0, 10);
  vcat_.guest_write_cbm(1, 0, 0b1111111111);  // all 10 ways
  vcat_.resize_region(1, 0, 4);
  const auto phys = vcat_.physical_cbm(1, 0);
  ASSERT_TRUE(phys.has_value());
  EXPECT_EQ(*phys, 0b1111u);  // clipped to the new region
}

TEST_F(VCatTest, RemoveVmFreesCosAndRebindsCores) {
  vcat_.assign_region(1, 0, 8);
  vcat_.guest_write_cbm(1, 0, 0b11111111);
  vcat_.bind_core(1, 3, 0);
  const unsigned before = vcat_.free_cos();
  vcat_.remove_vm(1);
  EXPECT_EQ(vcat_.free_cos(), before + 1);
  EXPECT_EQ(cat_.cos_of_core(3), 0u);  // back to the hypervisor default
  EXPECT_FALSE(vcat_.region_of(1).has_value());
}

TEST_F(VCatTest, CosExhaustion) {
  vcat_.assign_region(1, 0, 20);
  // 8 COS total, COS 0 reserved: 7 virtual classes fit, the 8th throws.
  for (unsigned vcos = 0; vcos < 7; ++vcos)
    vcat_.guest_write_cbm(1, vcos, 0b11);
  EXPECT_EQ(vcat_.free_cos(), 0u);
  EXPECT_THROW(vcat_.guest_write_cbm(1, 7, 0b11), util::Error);
}

TEST_F(VCatTest, RewritingAVcosReusesItsPhysicalCos) {
  vcat_.assign_region(1, 0, 8);
  vcat_.guest_write_cbm(1, 0, 0b1111);
  const unsigned free_before = vcat_.free_cos();
  vcat_.guest_write_cbm(1, 0, 0b11);  // update in place
  EXPECT_EQ(vcat_.free_cos(), free_before);
  EXPECT_EQ(*vcat_.physical_cbm(1, 0), 0b11u);
}

}  // namespace
}  // namespace vc2m::hw

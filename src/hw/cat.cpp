#include "hw/cat.h"

#include <bit>
#include <string>

#include "util/error.h"

namespace vc2m::hw {

bool contiguous_mask(std::uint64_t mask) {
  if (mask == 0) return false;
  const std::uint64_t shifted = mask >> std::countr_zero(mask);
  return (shifted & (shifted + 1)) == 0;
}

std::uint64_t make_mask(unsigned offset, unsigned count) {
  VC2M_CHECK(count > 0 && count <= 64 && offset + count <= 64);
  const std::uint64_t ones = count == 64 ? ~0ull : ((1ull << count) - 1);
  return ones << offset;
}

Cat::Cat(MsrFile& msr, unsigned num_ways, unsigned num_cos, unsigned min_ways)
    : msr_(msr), num_ways_(num_ways), num_cos_(num_cos), min_ways_(min_ways) {
  VC2M_CHECK(num_ways >= 1 && num_ways <= 64);
  VC2M_CHECK(num_cos >= 1 && num_cos <= 128);
  VC2M_CHECK(min_ways >= 1 && min_ways <= num_ways);
  // Reset state: all COS get the full mask (architectural default) and all
  // cores are bound to COS 0, i.e. no isolation until programmed.
  for (unsigned cos = 0; cos < num_cos_; ++cos)
    msr_.write(0, IA32_L3_MASK_0 + cos, make_mask(0, num_ways_));
  for (unsigned core = 0; core < msr_.num_cores(); ++core)
    msr_.write(core, IA32_PQR_ASSOC, 0);
}

std::optional<std::string> Cat::validate_cbm(std::uint64_t cbm) const {
  if (cbm == 0) return "empty capacity bitmask";
  if (cbm >> num_ways_) return "mask exceeds cache way count";
  if (!contiguous_mask(cbm)) return "non-contiguous capacity bitmask";
  if (static_cast<unsigned>(std::popcount(cbm)) < min_ways_)
    return "mask narrower than the architectural minimum";
  return std::nullopt;
}

void Cat::write_cbm(unsigned cos, std::uint64_t cbm) {
  VC2M_CHECK_MSG(cos < num_cos_, "COS " << cos << " out of range");
  if (const auto err = validate_cbm(cbm))
    throw util::Error("CAT: " + *err);
  msr_.write(0, IA32_L3_MASK_0 + cos, cbm);
}

std::uint64_t Cat::read_cbm(unsigned cos) const {
  VC2M_CHECK(cos < num_cos_);
  return msr_.read(0, IA32_L3_MASK_0 + cos);
}

void Cat::bind_core(unsigned core, unsigned cos) {
  VC2M_CHECK(core < msr_.num_cores());
  VC2M_CHECK_MSG(cos < num_cos_, "COS " << cos << " out of range");
  // PQR_ASSOC keeps the COS in bits [63:32]; preserve the RMID field.
  const std::uint64_t old = msr_.read(core, IA32_PQR_ASSOC);
  msr_.write(core, IA32_PQR_ASSOC,
             (old & 0xFFFFFFFFull) | (static_cast<std::uint64_t>(cos) << 32));
}

unsigned Cat::cos_of_core(unsigned core) const {
  VC2M_CHECK(core < msr_.num_cores());
  return static_cast<unsigned>(msr_.read(core, IA32_PQR_ASSOC) >> 32);
}

std::uint64_t Cat::effective_mask(unsigned core) const {
  return read_cbm(cos_of_core(core));
}

void Cat::program_disjoint_plan(const std::vector<unsigned>& ways_per_core) {
  VC2M_CHECK_MSG(ways_per_core.size() <= msr_.num_cores(),
                 "plan addresses more cores than the package has");
  unsigned total = 0;
  unsigned used_cores = 0;
  for (const unsigned w : ways_per_core) {
    if (w == 0) continue;
    VC2M_CHECK_MSG(w >= min_ways_, "core allocation below C_min");
    total += w;
    ++used_cores;
  }
  VC2M_CHECK_MSG(total <= num_ways_, "plan exceeds cache capacity");
  // One COS per used core, plus COS 0 kept as the (full-mask) default.
  VC2M_CHECK_MSG(used_cores + 1 <= num_cos_, "plan exceeds COS budget");

  unsigned offset = 0;
  unsigned cos = 1;
  for (unsigned core = 0; core < ways_per_core.size(); ++core) {
    const unsigned w = ways_per_core[core];
    if (w == 0) continue;
    write_cbm(cos, make_mask(offset, w));
    bind_core(core, cos);
    offset += w;
    ++cos;
  }
  // Park cores the plan does not use on the leftover region (shared among
  // them — nothing real-time runs there), so they cannot pollute the
  // allocated partitions. If no ways remain they stay on the default COS.
  const unsigned leftover = num_ways_ - offset;
  if (leftover >= min_ways_ && cos < num_cos_) {
    write_cbm(cos, make_mask(offset, leftover));
    for (unsigned core = 0; core < msr_.num_cores(); ++core)
      if (core >= ways_per_core.size() || ways_per_core[core] == 0)
        bind_core(core, cos);
  }
}

}  // namespace vc2m::hw

#include "vcat.h"

#include <bit>

#include "util/error.h"

namespace vc2m::hw {

unsigned ways_of_core(const Cat& cat, unsigned core) {
  return static_cast<unsigned>(std::popcount(cat.effective_mask(core)));
}

bool cores_disjoint(const Cat& cat, unsigned num_cores) {
  // Cores bound to the same COS form one isolation domain; disjointness is
  // required across *distinct* classes of service.
  std::uint64_t seen_cos = 0;  // num_cos <= 128, two words would do; CAT
                               // parts expose at most 16 COS in practice
  std::uint64_t seen_ways = 0;
  for (unsigned core = 0; core < num_cores; ++core) {
    const unsigned cos = cat.cos_of_core(core);
    if (cos < 64) {
      if (seen_cos & (1ull << cos)) continue;
      seen_cos |= 1ull << cos;
    }
    const std::uint64_t m = cat.effective_mask(core);
    if (seen_ways & m) return false;
    seen_ways |= m;
  }
  return true;
}

VCat::VCat(Cat& cat, unsigned num_cores)
    : cat_(cat), num_cores_(num_cores), pcos_used_(cat.num_cos(), false) {
  // COS 0 is the hypervisor-owned default; never handed to guests.
  pcos_used_[0] = true;
}

void VCat::assign_region(int vm, unsigned offset, unsigned count) {
  VC2M_CHECK_MSG(!vms_.count(vm), "VM already owns a cache region");
  VC2M_CHECK_MSG(count >= cat_.min_ways(), "region below the CAT minimum");
  VC2M_CHECK_MSG(offset + count <= cat_.num_ways(),
                 "region exceeds the cache");
  for (const auto& [other, st] : vms_) {
    const bool disjoint = offset + count <= st.region.offset ||
                          st.region.offset + st.region.count <= offset;
    VC2M_CHECK_MSG(disjoint, "region overlaps VM " << other);
  }
  vms_[vm].region = {offset, count};
}

void VCat::remove_vm(int vm) {
  auto it = vms_.find(vm);
  VC2M_CHECK_MSG(it != vms_.end(), "unknown VM");
  for (const auto& [vcos, pcos] : it->second.vcos_to_pcos) {
    // Cores bound to this class fall back to the hypervisor default.
    for (unsigned core = 0; core < num_cores_; ++core)
      if (cat_.cos_of_core(core) == pcos) cat_.bind_core(core, 0);
    pcos_used_[pcos] = false;
  }
  vms_.erase(it);
}

void VCat::resize_region(int vm, unsigned new_offset, unsigned new_count) {
  auto it = vms_.find(vm);
  VC2M_CHECK_MSG(it != vms_.end(), "unknown VM");
  VC2M_CHECK_MSG(new_count >= cat_.min_ways(), "region below the CAT minimum");
  VC2M_CHECK_MSG(new_offset + new_count <= cat_.num_ways(),
                 "region exceeds the cache");
  for (const auto& [other, st] : vms_) {
    if (other == vm) continue;
    const bool disjoint = new_offset + new_count <= st.region.offset ||
                          st.region.offset + st.region.count <= new_offset;
    VC2M_CHECK_MSG(disjoint, "region overlaps VM " << other);
  }
  it->second.region = {new_offset, new_count};
  rewrite_vm(it->second);
}

void VCat::guest_write_cbm(int vm, unsigned vcos, std::uint64_t virtual_cbm) {
  auto it = vms_.find(vm);
  VC2M_CHECK_MSG(it != vms_.end(), "unknown VM");
  VmState& st = it->second;
  const std::uint64_t region_mask = make_mask(0, st.region.count);
  VC2M_CHECK_MSG((virtual_cbm & ~region_mask) == 0,
                 "virtual CBM escapes the VM's cache region");
  if (!st.vcos_to_pcos.count(vcos)) st.vcos_to_pcos[vcos] = alloc_pcos();
  // Translation: shift into the region. Cat::write_cbm enforces the
  // architectural rules (contiguity, minimum width).
  cat_.write_cbm(st.vcos_to_pcos[vcos], virtual_cbm << st.region.offset);
  st.virtual_cbm[vcos] = virtual_cbm;
}

void VCat::bind_core(int vm, unsigned core, unsigned vcos) {
  const VmState& st = state_of(vm);
  const auto it = st.vcos_to_pcos.find(vcos);
  VC2M_CHECK_MSG(it != st.vcos_to_pcos.end(),
                 "virtual COS never programmed");
  cat_.bind_core(core, it->second);
}

std::optional<std::uint64_t> VCat::physical_cbm(int vm, unsigned vcos) const {
  const VmState& st = state_of(vm);
  const auto it = st.vcos_to_pcos.find(vcos);
  if (it == st.vcos_to_pcos.end()) return std::nullopt;
  return cat_.read_cbm(it->second);
}

std::optional<VCat::Region> VCat::region_of(int vm) const {
  const auto it = vms_.find(vm);
  if (it == vms_.end()) return std::nullopt;
  return it->second.region;
}

unsigned VCat::free_cos() const {
  unsigned n = 0;
  for (const bool used : pcos_used_)
    if (!used) ++n;
  return n;
}

unsigned VCat::alloc_pcos() {
  for (unsigned cos = 0; cos < pcos_used_.size(); ++cos) {
    if (!pcos_used_[cos]) {
      pcos_used_[cos] = true;
      return cos;
    }
  }
  throw util::Error("vCAT: out of physical COS entries");
}

void VCat::rewrite_vm(VmState& vm) {
  const std::uint64_t region_mask = make_mask(0, vm.region.count);
  for (auto& [vcos, virtual_cbm] : vm.virtual_cbm) {
    // Clip masks that no longer fit the (possibly smaller) region.
    std::uint64_t clipped = virtual_cbm & region_mask;
    if (clipped == 0 ||
        static_cast<unsigned>(std::popcount(clipped)) < cat_.min_ways())
      clipped = region_mask;  // fall back to the whole region
    virtual_cbm = clipped;
    cat_.write_cbm(vm.vcos_to_pcos[vcos], clipped << vm.region.offset);
  }
}

const VCat::VmState& VCat::state_of(int vm) const {
  const auto it = vms_.find(vm);
  VC2M_CHECK_MSG(it != vms_.end(), "unknown VM");
  return it->second;
}

}  // namespace vc2m::hw

// vCAT — dynamic CAT virtualization (Xu et al., RTAS'17 [16]).
//
// vC2M's cache isolation "can be done by simply leveraging vCAT". vCAT lets
// each VM manage *virtual* classes of service over a private, contiguous
// region of the shared cache, while the hypervisor owns the physical COS
// array:
//   - the hypervisor assigns each VM a region [offset, offset+count) of
//     ways, disjoint across VMs;
//   - a guest programs virtual CBMs relative to its region; vCAT validates
//     containment and translates them into physical CBMs (shift by the
//     region offset) on dedicated physical COS entries;
//   - binding a core to a VM's virtual COS binds it to the backing
//     physical COS;
//   - regions can be resized/moved at runtime (dynamic repartitioning);
//     every dependent physical COS is rewritten transactionally.
//
// The allocator programs plain CAT (hw::Cat::program_disjoint_plan); no
// product command drives vCAT, so it lives next to the example that does
// (dynamic_repartition.cpp) as the vc2m_vcat library.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hw/cat.h"

namespace vc2m::hw {

/// Number of ways the core's current COS grants it.
unsigned ways_of_core(const Cat& cat, unsigned core);

/// True iff no two of cores [0, num_cores) bound to distinct classes of
/// service share a cache way.
bool cores_disjoint(const Cat& cat, unsigned num_cores);

class VCat {
 public:
  /// Virtualizes `cat`, which programs `num_cores` cores.
  VCat(Cat& cat, unsigned num_cores);

  /// Assign VM `vm` the contiguous region of `count` ways starting at
  /// `offset`. Throws if it overlaps another VM's region, exceeds the
  /// cache, or the VM already has a region.
  void assign_region(int vm, unsigned offset, unsigned count);

  /// Release the VM's region and free all its physical COS entries.
  /// Cores bound to the VM's classes fall back to COS 0.
  void remove_vm(int vm);

  /// Resize/move a VM's region. All of the VM's virtual COS translations
  /// are rewritten; virtual masks that no longer fit the new region are
  /// clipped to it (and must stay architecturally valid).
  void resize_region(int vm, unsigned new_offset, unsigned new_count);

  /// Guest operation: program virtual COS `vcos` of `vm` with a CBM
  /// expressed relative to the VM's region (bit 0 = first way of the
  /// region). Allocates a backing physical COS on first use. Throws if the
  /// mask escapes the region or violates CAT rules.
  void guest_write_cbm(int vm, unsigned vcos, std::uint64_t virtual_cbm);

  /// Guest operation: bind a physical core (currently serving this VM) to
  /// the VM's virtual COS.
  void bind_core(int vm, unsigned core, unsigned vcos);

  /// Translated physical CBM backing (vm, vcos); nullopt if never written.
  std::optional<std::uint64_t> physical_cbm(int vm, unsigned vcos) const;

  struct Region {
    unsigned offset = 0;
    unsigned count = 0;
  };
  std::optional<Region> region_of(int vm) const;

  /// Number of physical COS entries still available for guests.
  unsigned free_cos() const;

 private:
  struct VmState {
    Region region;
    std::map<unsigned, unsigned> vcos_to_pcos;
    std::map<unsigned, std::uint64_t> virtual_cbm;  // as written by guest
  };

  unsigned alloc_pcos();
  void rewrite_vm(VmState& vm);
  const VmState& state_of(int vm) const;

  Cat& cat_;
  unsigned num_cores_;
  std::map<int, VmState> vms_;
  std::vector<bool> pcos_used_;  // physical COS allocation bitmap
};

}  // namespace vc2m::hw

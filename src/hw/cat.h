// Intel Cache Allocation Technology (CAT) model, as virtualized by vCAT [16].
//
// vC2M divides the shared last-level cache into C equal partitions (CAT ways)
// and gives each core a disjoint, contiguous subset. This model enforces the
// architectural rules a real CAT programming sequence must respect:
//   - a capacity bitmask (CBM) must be non-empty and contiguous;
//   - a CBM must have at least `min_ways` bits (hardware minimum, the paper's
//     C_min);
//   - cores are bound to a class of service (COS) via IA32_PQR_ASSOC;
//   - the CBM array is package-scoped.
// On top of the raw interface, `program_disjoint_plan` converts a per-core
// way-count vector (the output of the hypervisor-level allocator) into COS
// masks, guaranteeing inter-core disjointness.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/msr.h"

namespace vc2m::hw {

class Cat {
 public:
  /// @param msr       backing register file
  /// @param num_ways  number of cache partitions C (CBM width)
  /// @param num_cos   number of classes of service supported by the part
  /// @param min_ways  architectural minimum CBM population (C_min)
  Cat(MsrFile& msr, unsigned num_ways, unsigned num_cos, unsigned min_ways);

  unsigned num_ways() const { return num_ways_; }
  unsigned num_cos() const { return num_cos_; }
  unsigned min_ways() const { return min_ways_; }

  /// Program COS `cos` with capacity bitmask `cbm`.
  /// Throws util::Error on a non-contiguous, empty, too-narrow, or
  /// out-of-range mask — mirroring the #GP a real wrmsr would raise.
  void write_cbm(unsigned cos, std::uint64_t cbm);

  std::uint64_t read_cbm(unsigned cos) const;

  /// Bind `core` to class of service `cos` (IA32_PQR_ASSOC).
  void bind_core(unsigned core, unsigned cos);

  unsigned cos_of_core(unsigned core) const;

  /// Effective mask a core currently operates under.
  std::uint64_t effective_mask(unsigned core) const;

  /// Given the allocator's per-core way counts (ways[i] ways for core i,
  /// ways[i] >= min_ways or 0 for an unused core), lay the cores out as
  /// consecutive contiguous regions, program one COS per core, and bind it.
  /// Throws if the counts exceed the cache or the COS budget.
  void program_disjoint_plan(const std::vector<unsigned>& ways_per_core);

  /// Validates a CBM without writing it; returns the failure reason.
  std::optional<std::string> validate_cbm(std::uint64_t cbm) const;

 private:
  MsrFile& msr_;
  unsigned num_ways_;
  unsigned num_cos_;
  unsigned min_ways_;
};

/// True iff the set bits of `mask` form one contiguous run.
bool contiguous_mask(std::uint64_t mask);

/// Contiguous mask of `count` bits starting at bit `offset`.
std::uint64_t make_mask(unsigned offset, unsigned count);

}  // namespace vc2m::hw

// Deterministic digest of a solve result, pinnable in a scenario's
// "expect.digest" field and pinned by tests/golden/engine.golden.
//
// The format is "sched=S|cores=N|cache=..|bw=..|map=..|vhash=H" where H is
// an FNV-1a hash over every VCPU's period, owner, served tasks, and full
// budget surface in raw nanoseconds. The golden suite computes its digests
// with these same functions, so a scenario digest carries the golden
// suite's bit-identity guarantee.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/strategy.h"

namespace vc2m::scenario {

/// FNV-1a over every VCPU's period, owner, served tasks, and full budget
/// surface in raw nanoseconds.
std::uint64_t vcpu_hash(const std::vector<model::Vcpu>& vcpus);

/// "cores=N|cache=..|bw=..|map=.." of a hypervisor-level mapping.
std::string mapping_digest(const core::HvAllocResult& m);

/// "sched=S|<mapping_digest>|vhash=<hex16 vcpu_hash>".
std::string solve_digest(const core::SolveResult& res);

/// True when `d` starts the way every solve_digest does ("sched="); the
/// report and scenario readers refuse a digest field that does not.
inline bool is_solve_digest(std::string_view d) {
  return d.starts_with("sched=");
}

/// FNV-1a over raw bytes as 16 lowercase hex chars. Used as the scenario
/// content hash stored in checkpoint/report records, so --resume detects a
/// scenario file edited since its record was checkpointed.
std::string text_digest(const std::string& text);

}  // namespace vc2m::scenario

// A paper solution as a gtest parameter: its position in
// core::default_solution_keys(). The struct has no printer, so the
// parametrized test names keep gtest's byte dump of the index
// ("4-byte object <00-00 00-00>").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/strategy.h"

namespace vc2m::tests {

struct SolutionIndex {
  std::int32_t index;
  const std::string& key() const {
    return core::default_solution_keys()[static_cast<std::size_t>(index)];
  }
  const core::Strategy& strategy() const {
    return core::StrategyRegistry::instance().require(key());
  }
};

}  // namespace vc2m::tests

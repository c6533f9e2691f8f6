// Shared golden-equivalence machinery: the pinned scenario grid, the live
// solve-digest lines (digests from scenario/digest.h), and the
// tests/golden/engine.golden loader.
//
// Used by test_golden.cpp (the engine bit-identity suite) and
// test_explain.cpp (decision recording must leave these digests untouched).
// The scenario grid and digest formats are FROZEN — golden lines are
// positional, so any change here invalidates the captured file.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "model/platform.h"
#include "scenario/digest.h"
#include "util/record.h"
#include "util/rng.h"
#include "workload/generator.h"

#ifndef VC2M_GOLDEN_DIR
#error "VC2M_GOLDEN_DIR must point at tests/golden"
#endif

namespace vc2m::golden {

inline const char* const kGoldenFile = VC2M_GOLDEN_DIR "/engine.golden";

// ---------------------------------------------------------------------------
// Scenario grid (fixed forever — golden lines are positional)

struct Scenario {
  const char* platform;  // "A" or "C"
  workload::UtilDist dist;
  double util;
  int num_vms;
  std::uint64_t seed;
};

inline const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"A", workload::UtilDist::kUniform, 0.5, 1, 9001},
      {"A", workload::UtilDist::kUniform, 0.5, 1, 9002},
      {"A", workload::UtilDist::kUniform, 1.0, 1, 9003},
      {"A", workload::UtilDist::kUniform, 1.0, 2, 9004},
      {"A", workload::UtilDist::kUniform, 1.5, 1, 9005},
      {"A", workload::UtilDist::kUniform, 1.5, 2, 9006},
      {"A", workload::UtilDist::kBimodalHeavy, 1.0, 1, 9007},
      {"A", workload::UtilDist::kBimodalHeavy, 1.4, 1, 9008},
      {"C", workload::UtilDist::kUniform, 0.8, 1, 9009},
      {"C", workload::UtilDist::kBimodalLight, 1.2, 2, 9010},
  };
  return kScenarios;
}

inline model::PlatformSpec platform_of(const std::string& name) {
  return name == "A" ? model::PlatformSpec::A() : model::PlatformSpec::C();
}

inline model::Taskset scenario_taskset(const Scenario& sc) {
  workload::GeneratorConfig gen;
  gen.grid = platform_of(sc.platform).grid;
  gen.target_ref_utilization = sc.util;
  gen.dist = sc.dist;
  gen.num_vms = sc.num_vms;
  util::Rng rng(sc.seed);
  return workload::generate_taskset(gen, rng);
}

/// The golden "solve" section, recomputed live: one digest line per
/// (scenario, solution) pair, in the frozen grid order.
inline std::vector<std::string> solve_lines() {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < scenarios().size(); ++i) {
    const Scenario& sc = scenarios()[i];
    const auto tasks = scenario_taskset(sc);
    const auto platform = platform_of(sc.platform);
    for (std::size_t si = 0; si < core::default_solution_keys().size(); ++si) {
      util::Rng rng(sc.seed * 1000 + si);
      const auto res = core::solve(core::default_solution_keys()[si], tasks,
                                   platform, {}, rng);
      std::ostringstream os;
      os << "solve|" << i << "|" << si << "|" << scenario::solve_digest(res);
      lines.push_back(os.str());
    }
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Golden file I/O

struct GoldenFile {
  std::vector<std::string> solve;
  std::vector<std::string> admission;
  std::vector<std::string> exact;
  std::vector<std::string> sweep;
  std::uint64_t seed_dbf_evaluations = 0;
  bool loaded = false;
};

inline GoldenFile load_golden() {
  GoldenFile g;
  std::ifstream in(kGoldenFile);
  if (!in) return g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("solve|", 0) == 0) g.solve.push_back(line);
    else if (line.rfind("admit|", 0) == 0) g.admission.push_back(line);
    else if (line.rfind("exact|", 0) == 0) g.exact.push_back(line);
    else if (line.rfind("sweep-point|", 0) == 0) g.sweep.push_back(line);
    else if (line.rfind("seed-effort|", 0) == 0) {
      util::FieldReader in = util::read_record(line, 3, "seed-effort");
      in.next();
      g.seed_dbf_evaluations = in.u64("dbf_evaluations");
    }
  }
  g.loaded = true;
  return g;
}

inline void expect_lines_equal(const std::vector<std::string>& golden,
                               const std::vector<std::string>& got,
                               const char* section) {
  ASSERT_EQ(golden.size(), got.size()) << "section " << section;
  for (std::size_t i = 0; i < golden.size(); ++i)
    EXPECT_EQ(golden[i], got[i]) << "section " << section << " line " << i;
}

}  // namespace vc2m::golden

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "model/platform.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/parsec.h"
#include "workload/taskset_io.h"

namespace vc2m::workload {
namespace {

using model::PlatformSpec;
using model::ResourceGrid;
using util::Rng;
using util::Time;

// -------------------------------------------------------------- PARSEC ----

TEST(Parsec, SuiteHasTwelveDistinctBenchmarks) {
  const auto& suite = parsec_suite();
  EXPECT_EQ(suite.size(), 12u);
  for (std::size_t i = 0; i < suite.size(); ++i)
    for (std::size_t j = i + 1; j < suite.size(); ++j)
      EXPECT_NE(suite[i].name, suite[j].name);
}

TEST(Parsec, FindProfile) {
  EXPECT_EQ(find_profile("streamcluster").name, "streamcluster");
  EXPECT_THROW(find_profile("does-not-exist"), util::Error);
}

TEST(Parsec, MissCurvePinnedAtEndpoints) {
  EXPECT_NEAR(miss_curve(1.0, 20.0, 3.0, 4.0), 3.0, 1e-12);
  EXPECT_NEAR(miss_curve(20.0, 20.0, 3.0, 4.0), 1.0, 1e-12);
}

TEST(Parsec, MissCurveMonotone) {
  for (double c = 1; c < 20; c += 0.5)
    EXPECT_GE(miss_curve(c, 20, 2.5, 4.0), miss_curve(c + 0.5, 20, 2.5, 4.0));
}

class ParsecSurfaceTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParsecSurfaceTest, SurfaceIsNormalizedMonotoneAndAboveOne) {
  const auto& p = parsec_suite()[GetParam()];
  const auto grid = PlatformSpec::A().grid;
  const auto s = p.surface(grid);
  EXPECT_NEAR(s.reference(), 1.0, 1e-12) << p.name;
  EXPECT_TRUE(s.monotone_nonincreasing()) << p.name;
  for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b)
      EXPECT_GE(s.at(c, b), 1.0 - 1e-12) << p.name;
}

TEST_P(ParsecSurfaceTest, MaxSlowdownDominatesTheGrid) {
  const auto& p = parsec_suite()[GetParam()];
  const auto grid = PlatformSpec::A().grid;
  EXPECT_GE(p.max_slowdown(grid), p.surface(grid).max_value() - 1e-9)
      << p.name;
}

TEST_P(ParsecSurfaceTest, SmallerPlatformStillNormalized) {
  const auto& p = parsec_suite()[GetParam()];
  const auto grid = PlatformSpec::C().grid;  // 12 partitions
  EXPECT_NEAR(p.surface(grid).reference(), 1.0, 1e-12) << p.name;
  EXPECT_TRUE(p.surface(grid).monotone_nonincreasing()) << p.name;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParsecSurfaceTest,
                         ::testing::Range<std::size_t>(0, 12),
                         [](const auto& info) {
                           return parsec_suite()[info.param].name;
                         });

TEST(Parsec, BenchmarksDifferInCharacter) {
  const auto grid = PlatformSpec::A().grid;
  // Compute-bound swaptions barely slows down; streaming streamcluster
  // slows down heavily at minimum bandwidth.
  const double swaptions = find_profile("swaptions").surface(grid).max_value();
  const double stream = find_profile("streamcluster").surface(grid).max_value();
  EXPECT_LT(swaptions, 1.5);
  EXPECT_GT(stream, 3.0);
}

// ----------------------------------------------------------- generator ----

GeneratorConfig config_for(double target, UtilDist dist = UtilDist::kUniform,
                           int vms = 1) {
  GeneratorConfig cfg;
  cfg.grid = PlatformSpec::A().grid;
  cfg.target_ref_utilization = target;
  cfg.dist = dist;
  cfg.num_vms = vms;
  return cfg;
}

TEST(Generator, DrawUtilizationRespectsRanges) {
  Rng rng(5);
  for (int i = 0; i < 2'000; ++i) {
    const double u = draw_utilization(UtilDist::kUniform, rng);
    EXPECT_GE(u, 0.1);
    EXPECT_LT(u, 0.4);
    const double b = draw_utilization(UtilDist::kBimodalHeavy, rng);
    EXPECT_TRUE((b >= 0.1 && b < 0.4) || (b >= 0.5 && b < 0.9));
  }
}

TEST(Generator, BimodalHeavyDrawsMoreHeavyTasks) {
  Rng rng(6);
  int heavy_light = 0, heavy_heavy = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (draw_utilization(UtilDist::kBimodalLight, rng) >= 0.5) ++heavy_light;
    if (draw_utilization(UtilDist::kBimodalHeavy, rng) >= 0.5) ++heavy_heavy;
  }
  // Expected proportions 1/9 vs 5/9.
  EXPECT_NEAR(heavy_light / 20'000.0, 1.0 / 9.0, 0.02);
  EXPECT_NEAR(heavy_heavy / 20'000.0, 5.0 / 9.0, 0.02);
}

TEST(Generator, HarmonicMenuWithinRangeAndHarmonic) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto menu = harmonic_period_menu(config_for(1.0), rng);
    ASSERT_EQ(menu.size(), 4u);
    for (std::size_t k = 0; k < menu.size(); ++k) {
      EXPECT_GE(menu[k], Time::ms(100));
      EXPECT_LE(menu[k], Time::ms(1100));
      if (k > 0) {
        EXPECT_EQ(menu[k], menu[k - 1] * 2);
      }
    }
  }
}

TEST(Generator, TasksetHitsTargetReferenceUtilizationExactly) {
  Rng rng(8);
  for (const double target : {0.3, 1.0, 2.0}) {
    const auto ts = generate_taskset(config_for(target), rng);
    EXPECT_NEAR(model::total_reference_utilization(ts), target, 1e-3);
  }
}

TEST(Generator, TasksetsAreHarmonic) {
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const auto ts = generate_taskset(config_for(1.5), rng);
    for (const auto& a : ts)
      for (const auto& b : ts)
        EXPECT_TRUE(util::harmonic_pair(a.period, b.period));
  }
}

TEST(Generator, WcetSurfacesAreMonotoneWithDominatingMax) {
  Rng rng(10);
  const auto ts = generate_taskset(config_for(1.0), rng);
  for (const auto& t : ts) {
    EXPECT_TRUE(t.wcet.monotone_nonincreasing());
    EXPECT_GE(t.max_wcet, t.wcet.at(2, 1));
    EXPECT_LE(t.max_wcet, t.period);  // drawn utilization < 1
    EXPECT_GT(t.reference_wcet(), Time::zero());
  }
}

TEST(Generator, RoundRobinVmAssignment) {
  Rng rng(11);
  const auto ts = generate_taskset(config_for(1.5, UtilDist::kUniform, 3), rng);
  ASSERT_GE(ts.size(), 3u);
  for (std::size_t i = 0; i < ts.size(); ++i)
    EXPECT_EQ(ts[i].vm, static_cast<int>(i % 3));
}

TEST(Generator, DeterministicGivenSeed) {
  Rng a(12), b(12);
  const auto ts1 = generate_taskset(config_for(1.0), a);
  const auto ts2 = generate_taskset(config_for(1.0), b);
  ASSERT_EQ(ts1.size(), ts2.size());
  for (std::size_t i = 0; i < ts1.size(); ++i) {
    EXPECT_EQ(ts1[i].period, ts2[i].period);
    EXPECT_EQ(ts1[i].reference_wcet(), ts2[i].reference_wcet());
    EXPECT_EQ(ts1[i].label, ts2[i].label);
  }
}

TEST(Generator, TaskLabelsComeFromTheSuite) {
  Rng rng(13);
  const auto ts = generate_taskset(config_for(2.0), rng);
  for (const auto& t : ts) EXPECT_NO_THROW(find_profile(t.label));
}

// ------------------------------------------------------ surface table ----

/// Every field generate_taskset sets, WCET tables cell by cell.
std::string taskset_text(const model::Taskset& ts) {
  std::ostringstream os;
  for (const auto& t : ts) {
    os << t.label << '|' << t.vm << '|' << t.period.raw_ns() << '|'
       << t.max_wcet.raw_ns() << '|';
    for (const Time e : t.wcet.flat()) os << e.raw_ns() << ',';
    os << '\n';
  }
  return os.str();
}

TEST(SurfaceTable, MatchesTheProfilesAndIsSharedPerGrid) {
  for (const auto& platform :
       {PlatformSpec::A(), PlatformSpec::B(), PlatformSpec::C()}) {
    const SurfaceTable& t = surface_table(platform.grid);
    EXPECT_EQ(&t, &surface_table(platform.grid));
    ASSERT_EQ(t.surfaces.size(), parsec_suite().size());
    for (std::size_t k = 0; k < parsec_suite().size(); ++k) {
      const auto& p = parsec_suite()[k];
      EXPECT_EQ(t.surfaces[k].flat(), p.surface(platform.grid).flat());
      EXPECT_EQ(t.s_max[k], p.max_slowdown(platform.grid));
    }
  }
}

TEST(SurfaceTable, ConcurrentGeneratorsMatchTheSerialOutput) {
  // Eight threads race to build and read the tables of Platforms A, B and
  // C (B shares A's grid) through generate_taskset; every taskset must
  // equal the one a serial run generates afterwards. TSan runs this too.
  const std::vector<ResourceGrid> grids = {PlatformSpec::A().grid,
                                           PlatformSpec::B().grid,
                                           PlatformSpec::C().grid,
                                           ResourceGrid{1, 9, 2, 7}};
  constexpr int kThreads = 8, kPerThread = 12;
  const auto job = [&](int thread, int i) {
    GeneratorConfig cfg;
    cfg.grid = grids[static_cast<std::size_t>(thread + i) % grids.size()];
    cfg.target_ref_utilization = 0.5 + 0.1 * i;
    cfg.num_vms = 1 + i % 3;
    Rng rng(static_cast<std::uint64_t>(1000 * thread + i));
    return taskset_text(generate_taskset(cfg, rng));
  };
  std::vector<std::vector<std::string>> got(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kPerThread; ++i) got[t].push_back(job(t, i));
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i)
      EXPECT_EQ(got[t][i], job(t, i)) << "thread " << t << " taskset " << i;
}

// ----------------------------------------------------------- CSV I/O ----

TEST(TasksetIo, RoundTripPreservesTasks) {
  Rng rng(14);
  const auto grid = PlatformSpec::A().grid;
  const auto original = generate_taskset(config_for(1.0), rng);

  std::stringstream buf;
  write_taskset_csv(buf, original);
  const auto loaded = read_taskset_csv(buf, grid);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].vm, original[i].vm);
    EXPECT_EQ(loaded[i].period, original[i].period);
    EXPECT_EQ(loaded[i].label, original[i].label);
    // Reference WCETs round-trip through decimal ms: sub-microsecond slop.
    EXPECT_NEAR(loaded[i].reference_wcet().to_ms(),
                original[i].reference_wcet().to_ms(), 1e-3);
    // Surfaces are regenerated from the same profile: identical shape.
    EXPECT_NEAR(loaded[i].wcet.slowdown().at(grid.c_min, grid.b_min),
                original[i].wcet.slowdown().at(grid.c_min, grid.b_min),
                1e-6);
  }
}

TEST(TasksetIo, SkipsCommentsAndHeader) {
  const auto grid = PlatformSpec::A().grid;
  std::stringstream buf;
  buf << "# a comment\n"
      << "vm,period_ms,ref_wcet_ms,benchmark\n"
      << "0,100,5,ferret\n"
      << "# another\n"
      << "1,200,8,swaptions\n";
  const auto tasks = read_taskset_csv(buf, grid);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].label, "ferret");
  EXPECT_EQ(tasks[1].vm, 1);
  EXPECT_EQ(tasks[1].period, util::Time::ms(200));
}

TEST(TasksetIo, RejectsMalformedInput) {
  const auto grid = PlatformSpec::A().grid;
  const auto parse = [&](const std::string& text) {
    std::stringstream buf(text);
    return read_taskset_csv(buf, grid);
  };
  EXPECT_THROW(parse(""), util::Error);                        // empty
  EXPECT_THROW(parse("0,100,5\n"), util::Error);               // few fields
  EXPECT_THROW(parse("0,abc,5,ferret\n"), util::Error);        // non-numeric
  EXPECT_THROW(parse("0,100,5,nonexistent\n"), util::Error);   // bad profile
  EXPECT_THROW(parse("0,100,150,ferret\n"), util::Error);      // e > p
  EXPECT_THROW(parse("0,-5,1,ferret\n"), util::Error);         // negative
}

TEST(TasksetIo, RejectsTheHardenedMalformedMatrix) {
  const auto grid = PlatformSpec::A().grid;
  const auto parse = [&](const std::string& text) {
    std::stringstream buf(text);
    return read_taskset_csv(buf, grid);
  };
  // Truncated trailing line (no benchmark field).
  EXPECT_THROW(parse("0,100,5,ferret\n1,200,8\n"), util::Error);
  // Too many fields.
  EXPECT_THROW(parse("0,100,5,ferret,extra\n"), util::Error);
  // NaN / infinity.
  EXPECT_THROW(parse("0,nan,5,ferret\n"), util::Error);
  EXPECT_THROW(parse("0,100,inf,ferret\n"), util::Error);
  // Trailing characters after a number.
  EXPECT_THROW(parse("0,100x,5,ferret\n"), util::Error);
  // Negative vm id.
  EXPECT_THROW(parse("-1,100,5,ferret\n"), util::Error);
  // Empty benchmark name.
  EXPECT_THROW(parse("0,100,5,\n"), util::Error);
  // Exact duplicate row.
  EXPECT_THROW(parse("0,100,5,ferret\n0,100,5,ferret\n"), util::Error);
  // ...but distinct rows with the same benchmark are fine.
  EXPECT_NO_THROW(parse("0,100,5,ferret\n0,200,5,ferret\n"));
}

TEST(TasksetIo, ErrorsCarrySourceAndLineNumber) {
  const auto grid = PlatformSpec::A().grid;
  std::stringstream buf("0,100,5,ferret\n0,bogus,5,ferret\n");
  try {
    read_taskset_csv(buf, grid, "tasks.csv");
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tasks.csv:2:"), std::string::npos) << what;
    EXPECT_NE(what.find("bogus"), std::string::npos) << what;
  }
}

TEST(TasksetIo, FuzzedMutationsThrowCleanErrorsOnly) {
  // Robustness contract: any byte-level corruption of a valid taskset CSV
  // either still parses or throws util::Error — never crashes, never
  // reports through another exception type. (scripts/check.sh repeats
  // this under ASan/UBSan from the CLI.)
  const auto grid = PlatformSpec::A().grid;
  Rng rng(20260806);
  const auto tasks = generate_taskset(config_for(1.0), rng);
  std::stringstream buf;
  write_taskset_csv(buf, tasks);
  const std::string valid = buf.str();

  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.index(mutated.size());
      mutated[pos] = static_cast<char>(rng.uniform_int(1, 255));
    }
    std::stringstream in(mutated);
    try {
      const auto ts = read_taskset_csv(in, grid);
      EXPECT_FALSE(ts.empty());  // parsed → must be a real taskset
    } catch (const util::Error&) {
      // acceptable: strict parser rejected the corruption
    }
  }
}

TEST(TasksetIo, UnlabeledTaskCannotBeWritten) {
  model::Taskset tasks(1);
  tasks[0].period = util::Time::ms(100);
  std::stringstream buf;
  EXPECT_THROW(write_taskset_csv(buf, tasks), util::Error);
}

}  // namespace
}  // namespace vc2m::workload

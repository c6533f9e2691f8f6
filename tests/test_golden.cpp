// Golden-equivalence suite for the allocation engine.
//
// The golden file (tests/golden/engine.golden) was captured from the
// pre-registry allocator (the closed `Solution` enum dispatched inside
// core::solve) immediately before the pluggable-engine refactor. Every
// refactor of the allocation stack must keep the engine *bit-identical* on
// these scenarios: the schedulable flag, the full VCPU→core mapping, the
// per-core partition counts, and the VCPU parameter surfaces all enter the
// digest. The sweep section additionally pins the parallel experiment at
// --jobs 1/2/8 and records the seed allocator's total dbf-evaluation count,
// against which the memoizing engine must be *strictly* cheaper.
//
// The digests are scenario/digest.h's; the scenario grid and golden-file
// loader live in tests/golden_util.h, shared with test_explain.cpp
// (decision recording must reproduce these digests bit-identically).
//
// Regenerating (only when an intentional behavior change is accepted):
//   VC2M_GOLDEN_CAPTURE=1 ./test_golden
// Note the `seed-effort` line is a pre-refactor measurement: recapturing
// with the memoizing engine would overwrite the baseline the strict-
// improvement assertion compares against, so a recapture must either keep
// that line or consciously re-baseline it.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/context.h"
#include "core/admission.h"
#include "core/exact.h"
#include "core/experiment.h"
#include "core/strategy.h"
#include "generated.h"
#include "golden_util.h"
#include "model/platform.h"
#include "oracle/prm.h"
#include "util/hash.h"
#include "util/instrument.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace vc2m;
using namespace vc2m::golden;

bool capture_mode() { return std::getenv("VC2M_GOLDEN_CAPTURE") != nullptr; }

/// Admission scenarios: place one VM offline, then admit a second VM online.
std::vector<std::string> admission_lines() {
  std::vector<std::string> lines;
  const auto platform = model::PlatformSpec::A();
  for (int rep = 0; rep < 3; ++rep) {
    auto base = tests::generated(0.8, 7100 + rep);

    util::Rng rng(7200 + rep);
    const auto res = core::solve("ovf", base, platform, {}, rng);
    std::ostringstream os;
    os << "admit|" << rep << "|";
    if (!res.schedulable) {
      os << "base-unschedulable";
      lines.push_back(os.str());
      continue;
    }
    core::AdmissionState state{res.vcpus, res.mapping};

    auto extra = tests::generated(0.5, 7300 + rep);
    for (auto& t : extra) t.vm = 101;

    core::VmAllocConfig vm_cfg;
    vm_cfg.max_vcpus_per_vm = platform.cores;
    util::Rng admit_rng(7400 + rep);
    const auto admit =
        core::admit_vm(state, extra, 101, platform, vm_cfg, admit_rng);
    os << "admitted=" << (admit.admitted ? 1 : 0);
    if (admit.admitted) {
      os << "|" << scenario::mapping_digest(admit.state.mapping)
         << "|vhash=" << util::hex16(scenario::vcpu_hash(admit.state.vcpus));
    }
    lines.push_back(os.str());
  }
  return lines;
}

/// Exact-search scenarios: the exhaustive allocator on small VCPU sets.
std::vector<std::string> exact_lines() {
  std::vector<std::string> lines;
  const auto platform = model::PlatformSpec::C();
  for (int rep = 0; rep < 3; ++rep) {
    const auto tasks =
        tests::generated(0.6 + 0.2 * rep, 8100 + rep, 1, platform.grid);

    util::Rng rng(8200 + rep);
    const auto res = core::solve("ovf", tasks, platform, {}, rng);
    std::ostringstream os;
    os << "exact|" << rep << "|";
    if (res.vcpus.empty() || res.vcpus.size() > 8) {
      os << "skipped";  // keep line positional even if generation drifts
      lines.push_back(os.str());
      continue;
    }
    core::ExactConfig ec;
    const auto exact = core::allocate_exact(res.vcpus, platform, ec);
    os << "sched=" << (exact.schedulable ? 1 : 0) << "|"
       << scenario::mapping_digest(exact);
    lines.push_back(os.str());
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Sweep section (Fig. 2-shaped, must be jobs-independent)

core::ExperimentConfig sweep_config(int jobs, int inner_jobs = 1) {
  core::ExperimentConfig cfg;
  cfg.platform = model::PlatformSpec::A();
  cfg.dist = workload::UtilDist::kUniform;
  cfg.util_lo = 0.3;
  cfg.util_hi = 1.5;
  cfg.util_step = 0.3;
  cfg.tasksets_per_point = 3;
  cfg.seed = 20260806;
  cfg.jobs = jobs;
  cfg.solve.inner_jobs = inner_jobs;
  return cfg;
}

struct SweepRun {
  std::vector<std::string> lines;       ///< sweep-point digest lines
  util::AllocCounters effort;           ///< totals over the whole sweep
};

SweepRun run_sweep(const core::ExperimentConfig& cfg) {
  SweepRun out;
  util::AllocCounterScope scope;
  const auto result = core::run_schedulability_experiment(cfg);
  out.effort = scope.counters();
  for (const auto& pt : result.points) {
    std::ostringstream os;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", pt.target_util);
    os << "sweep-point|" << buf << "|";
    for (std::size_t si = 0; si < pt.per_solution.size(); ++si)
      os << (si ? "," : "") << pt.per_solution[si].schedulable << "/"
         << pt.per_solution[si].total;
    out.lines.push_back(os.str());
  }
  return out;
}

SweepRun run_sweep(int jobs, int inner_jobs = 1) {
  return run_sweep(sweep_config(jobs, inner_jobs));
}

// ---------------------------------------------------------------------------
// Tests

TEST(GoldenEquivalence, CaptureOrCompareEngineDigests) {
  if (capture_mode()) {
    const auto solve = solve_lines();
    const auto admission = admission_lines();
    const auto exact = exact_lines();
    const auto sweep = run_sweep(1);
    std::ofstream out(kGoldenFile);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenFile;
    out << "# vc2m engine golden — captured from the pre-registry allocator.\n"
           "# Lines are positional; see tests/golden_util.h for the "
           "scenario grid.\n";
    for (const auto& l : solve) out << l << "\n";
    for (const auto& l : admission) out << l << "\n";
    for (const auto& l : exact) out << l << "\n";
    for (const auto& l : sweep.lines) out << l << "\n";
    out << "seed-effort|dbf_evaluations=" << sweep.effort.dbf_evaluations
        << "|admission_tests=" << sweep.effort.admission_tests << "\n";
    std::cout << "captured golden to " << kGoldenFile << "\n";
    return;
  }

  const GoldenFile g = load_golden();
  ASSERT_TRUE(g.loaded) << "golden file missing: " << kGoldenFile
                        << " (capture with VC2M_GOLDEN_CAPTURE=1)";
  expect_lines_equal(g.solve, solve_lines(), "solve");
  expect_lines_equal(g.admission, admission_lines(), "admission");
  expect_lines_equal(g.exact, exact_lines(), "exact");
}

class GoldenSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenSweepTest, SweepBitIdenticalToSeedAtAnyJobs) {
  if (capture_mode()) GTEST_SKIP() << "capture handled by GoldenEquivalence";
  const GoldenFile g = load_golden();
  ASSERT_TRUE(g.loaded) << "golden file missing: " << kGoldenFile;
  const SweepRun run = run_sweep(GetParam());
  expect_lines_equal(g.sweep, run.lines, "sweep");

  // The memoizing engine must do strictly less demand-bound work than the
  // seed allocator did on the identical sweep (captured pre-refactor).
  ASSERT_GT(g.seed_dbf_evaluations, 0u);
  EXPECT_LT(run.effort.dbf_evaluations, g.seed_dbf_evaluations)
      << "engine no longer cheaper than the pre-refactor seed";
}

INSTANTIATE_TEST_SUITE_P(Jobs, GoldenSweepTest, ::testing::Values(1, 2, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "jobs" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Fast-path determinism grid: the SoA + arena + inner-parallel engine must
// be bit-identical to the golden sweep at every (--jobs, --inner-jobs)
// combination, including the effort counters the perfdiff gate compares
// (budget_evaluations = memoization misses in serial query order).

/// The serial single-threaded run is the reference every grid cell (and the
/// recorded budget-oracle run below) must match exactly. Computed once.
const SweepRun& reference_sweep() {
  static const SweepRun ref = run_sweep(1, 1);
  return ref;
}

class GoldenSweepGridTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GoldenSweepGridTest, SweepAndCountersBitIdenticalAtAnyInnerJobs) {
  if (capture_mode()) GTEST_SKIP() << "capture handled by GoldenEquivalence";
  const GoldenFile g = load_golden();
  ASSERT_TRUE(g.loaded) << "golden file missing: " << kGoldenFile;
  const auto [jobs, inner] = GetParam();
  const SweepRun run = run_sweep(jobs, inner);
  expect_lines_equal(g.sweep, run.lines, "sweep");

  const SweepRun& ref = reference_sweep();
  EXPECT_EQ(run.effort.budget_evaluations, ref.effort.budget_evaluations)
      << "budget searches depend on jobs=" << jobs << " inner=" << inner;
  EXPECT_EQ(run.effort.budget_cache_hits, ref.effort.budget_cache_hits);
  EXPECT_EQ(run.effort.dbf_evaluations, ref.effort.dbf_evaluations);
  EXPECT_EQ(run.effort.arena_bytes, ref.effort.arena_bytes);
  EXPECT_EQ(run.effort.soa_rebuilds, ref.effort.soa_rebuilds);
  EXPECT_EQ(run.effort.inner_tasks, ref.effort.inner_tasks);
}

TEST(GoldenEquivalence, SweepHypervisorEffortCountersPinned) {
  // The hypervisor-level search's effort on the golden sweep, as committed
  // values: packings explored, grants and migrations made, per-core tests
  // run and served from the CoreLoad caches, and the k-means work of both
  // levels. A faster search must explore exactly the same candidates.
  if (capture_mode()) GTEST_SKIP() << "capture handled by GoldenEquivalence";
  const util::AllocCounters& c = reference_sweep().effort;
  EXPECT_EQ(c.candidate_packings, 550u);
  EXPECT_EQ(c.partition_grants, 26488u);
  EXPECT_EQ(c.vcpu_migrations, 2065u);
  EXPECT_EQ(c.admission_tests, 81670u);
  EXPECT_EQ(c.admission_passed, 39876u);
  EXPECT_EQ(c.load_cache_hits, 120009u);
  EXPECT_EQ(c.kmeans_runs, 75u);
  EXPECT_EQ(c.kmeans_iterations, 160u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(c.kmeans_final_shift), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    JobsByInner, GoldenSweepGridTest,
    ::testing::Values(std::pair{1, 2}, std::pair{1, 8}, std::pair{2, 2},
                      std::pair{2, 8}, std::pair{8, 1}, std::pair{8, 8}),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& info) {
      return "jobs" + std::to_string(info.param.first) + "_inner" +
             std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------------
// Budget oracle: every existing-CSA VCPU the golden sweep builds must carry,
// in every grid cell, exactly the minimum of the reference binary search
// analysis::min_budget_edf on that cell's tasks (Π·2 where it finds none).
// The sweep runs with recording wrappers in place of the "existing" and
// "baseline" VM policies, at the same solution positions, so its RNG
// streams — and therefore its lines and counters — are the golden sweep's.

/// One VCPU an existing-CSA VM policy built, with copies of its tasks.
struct BuiltVcpu {
  model::Vcpu vcpu;
  model::Taskset members;  ///< tasks[vcpu.tasks[k]]
};

class RecordingVmPolicy final : public core::VmPolicy {
 public:
  explicit RecordingVmPolicy(std::shared_ptr<const core::VmPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string_view name() const override { return inner_->name(); }
  bool release_sync() const override { return inner_->release_sync(); }
  std::vector<model::Vcpu> allocate(const model::Taskset& tasks,
                                    const model::PlatformSpec& platform,
                                    const core::SolveConfig& cfg,
                                    analysis::AnalysisContext& ctx,
                                    util::Rng& rng) const override {
    auto vcpus = inner_->allocate(tasks, platform, cfg, ctx, rng);
    const std::lock_guard<std::mutex> lk(mu_);
    for (const auto& v : vcpus) {
      BuiltVcpu b{v, {}};
      for (const std::size_t i : v.tasks) b.members.push_back(tasks[i]);
      built_.push_back(std::move(b));
    }
    return vcpus;
  }
  std::vector<BuiltVcpu> take() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(built_, {});
  }

 private:
  std::shared_ptr<const core::VmPolicy> inner_;
  mutable std::mutex mu_;
  mutable std::vector<BuiltVcpu> built_;
};

/// Registers "<key>-recorded" once: `key`'s strategy with a recording VM
/// level. Returns the recorder.
const RecordingVmPolicy& recorded(const std::string& key) {
  static std::mutex mu;
  static std::map<std::string, std::shared_ptr<const RecordingVmPolicy>> made;
  const std::lock_guard<std::mutex> lk(mu);
  auto& slot = made[key];
  if (!slot) {
    auto& reg = core::StrategyRegistry::instance();
    const core::Strategy& base = reg.require(key);
    slot = std::make_shared<RecordingVmPolicy>(base.vm);
    reg.add({key + "-recorded", base.display, base.description, slot,
             base.hv});
  }
  return *slot;
}

/// Compare every cell of `built` against the reference search. `max_wcet`:
/// the baseline's VCPUs are one budget for the tasks' maximum WCETs.
void expect_reference_budgets(const std::vector<BuiltVcpu>& built,
                              bool max_wcet, std::size_t& cells) {
  std::size_t mismatches = 0;
  for (const auto& b : built) {
    const model::Vcpu& v = b.vcpu;
    std::vector<analysis::PTask> pt(b.members.size());
    const auto reference = [&](unsigned c, unsigned bw) {
      for (std::size_t k = 0; k < pt.size(); ++k)
        pt[k] = {b.members[k].period, max_wcet ? b.members[k].max_wcet
                                               : b.members[k].wcet.at(c, bw)};
      return analysis::min_budget_edf(pt, v.period).value_or(v.period * 2);
    };
    const auto& grid = v.budget.grid();
    const util::Time uniform = max_wcet ? reference(grid.c_min, grid.b_min)
                                        : util::Time::zero();
    for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
      for (unsigned bw = grid.b_min; bw <= grid.b_max; ++bw) {
        const util::Time want = max_wcet ? uniform : reference(c, bw);
        ++cells;
        if (v.budget.at(c, bw) != want && ++mismatches <= 5)
          ADD_FAILURE() << "vm " << v.vm << " Π " << v.period << " cell ("
                        << c << "," << bw << "): engine "
                        << v.budget.at(c, bw) << ", reference " << want;
      }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(GoldenEquivalence, ExistingCsaBudgetsMatchReferenceSearchEverywhere) {
  if (capture_mode()) GTEST_SKIP() << "capture handled by GoldenEquivalence";
  const GoldenFile g = load_golden();
  ASSERT_TRUE(g.loaded) << "golden file missing: " << kGoldenFile;

  const RecordingVmPolicy& existing = recorded("existing");
  const RecordingVmPolicy& baseline = recorded("baseline");
  (void)existing.take();
  (void)baseline.take();
  core::ExperimentConfig cfg = sweep_config(1);
  for (auto& key : cfg.solutions)
    if (key == "existing" || key == "baseline") key += "-recorded";
  const SweepRun run = run_sweep(cfg);

  // The recorded sweep is the golden sweep, counter for counter.
  expect_lines_equal(g.sweep, run.lines, "sweep(recorded)");
  const SweepRun& ref = reference_sweep();
  EXPECT_EQ(run.effort.budget_evaluations, ref.effort.budget_evaluations);
  EXPECT_EQ(run.effort.budget_cache_hits, ref.effort.budget_cache_hits);
  EXPECT_EQ(run.effort.dbf_evaluations, ref.effort.dbf_evaluations);
  EXPECT_EQ(run.effort.soa_rebuilds, ref.effort.soa_rebuilds);
  EXPECT_EQ(run.effort.inner_tasks, ref.effort.inner_tasks);
  EXPECT_EQ(run.effort.arena_bytes, ref.effort.arena_bytes);

  const auto heuristic = existing.take();
  const auto packed = baseline.take();
  std::size_t heuristic_cells = 0, packed_cells = 0;
  expect_reference_budgets(heuristic, false, heuristic_cells);
  expect_reference_budgets(packed, true, packed_cells);
  // Both existing-CSA solutions built VCPUs, so neither check is vacuous.
  EXPECT_GT(heuristic.size(), 0u);
  EXPECT_GT(packed.size(), 0u);
  EXPECT_GT(heuristic_cells, 1000u);
  RecordProperty("existing_csa_cells", static_cast<int>(heuristic_cells));
}

}  // namespace

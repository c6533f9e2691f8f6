#include "scenario/runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <system_error>

#include "core/strategy.h"
#include "model/platform.h"
#include "obs/audit.h"
#include "obs/bench_report.h"
#include "obs/explain.h"
#include "scenario/digest.h"
#include "sim/faults.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/taskset_io.h"

namespace vc2m::scenario {

namespace {

model::Taskset make_taskset(const Scenario& sc,
                            const model::PlatformSpec& platform) {
  if (sc.workload.kind == WorkloadSpec::Kind::kFile)
    return workload::read_taskset_csv(sc.workload.file, platform.grid);
  workload::GeneratorConfig gen;
  gen.grid = platform.grid;
  gen.target_ref_utilization = sc.workload.util;
  gen.dist = sc.workload.dist;
  gen.num_vms = sc.workload.vms;
  util::Rng rng(sc.seed);
  return workload::generate_taskset(gen, rng);
}

void judge(ScenarioRecord& r, const Scenario& sc) {
  const Expectation& e = sc.expect;
  auto fail = [&](const std::string& msg) { r.failures.push_back(msg); };

  if (r.schedulable != e.schedulable)
    fail(std::string("verdict: expected ") +
         util::enum_name(kVerdictNames, e.schedulable) + ", got " +
         util::enum_name(kVerdictNames, r.schedulable));
  if (!e.digest.empty() && r.digest != e.digest)
    fail("digest: expected " + e.digest + ", got " + r.digest);
  for (const std::string& want : e.rejection_constraints) {
    if (std::find(r.rejection_constraints.begin(),
                  r.rejection_constraints.end(),
                  want) == r.rejection_constraints.end())
      fail("rejection chain lacks constraint '" + want + "'");
  }
  if (r.simulated) {
    const obs::AuditRecord& m = r.metrics;
    if (e.trace_clean && *e.trace_clean != (m.trace_violations == 0)) {
      std::ostringstream os;
      os << "trace_clean: expected " << (*e.trace_clean ? "true" : "false")
         << ", checker found " << m.trace_violations << " violation(s)";
      fail(os.str());
    }
    if (e.min_faults_injected && m.faults_injected < *e.min_faults_injected) {
      std::ostringstream os;
      os << "faults_injected: expected >= " << *e.min_faults_injected
         << ", got " << m.faults_injected;
      fail(os.str());
    }
    if (e.max_deadline_misses && m.deadline_misses > *e.max_deadline_misses) {
      std::ostringstream os;
      os << "deadline_misses: expected <= " << *e.max_deadline_misses
         << ", got " << m.deadline_misses;
      fail(os.str());
    }
  }
  r.passed = r.failures.empty();
}

}  // namespace

ScenarioRecord run_scenario(const Scenario& sc) {
  ScenarioRecord r;
  r.name = sc.name;
  r.file = sc.source.empty()
               ? sc.name + ".json"
               : std::filesystem::path(sc.source).filename().string();
  r.scenario_hash = sc.content_hash;

  const auto named = model::platform_from_name(sc.platform);
  VC2M_CHECK_MSG(named, "scenario '" << sc.name << "': unknown platform '"
                                     << sc.platform << "'");
  const model::PlatformSpec& platform = *named;
  const auto tasks = make_taskset(sc, platform);
  const auto& strat = core::StrategyRegistry::instance().require(sc.solution);

  // Solve with decision recording: bit-identical to a bare core::solve
  // (test_explain pins this), and the rejection chain comes for free.
  util::Rng rng(sc.seed);
  core::SolveResult res;
  const auto explain = obs::explain_solve(strat, tasks, platform, {}, rng,
                                          &res);
  r.schedulable = res.schedulable;
  r.digest = solve_digest(res);
  for (const auto& rej : explain.rejections) {
    const std::string name = obs::to_string(rej.constraint);
    if (std::find(r.rejection_constraints.begin(),
                  r.rejection_constraints.end(),
                  name) == r.rejection_constraints.end())
      r.rejection_constraints.push_back(name);
  }

  if (res.schedulable && sc.simulate) {
    obs::AuditConfig ac;
    const auto policy = sim::enforcement_policy_from_string(sc.policy);
    VC2M_CHECK_MSG(policy.has_value(), "scenario '" << sc.name
                                                    << "': bad policy");
    ac.enforcement.policy = *policy;
    if (!sc.faults.empty()) ac.faults = sim::parse_fault_spec(sc.faults);
    ac.hyperperiods = sc.simulate->hyperperiods;
    r.simulated = true;
    r.metrics = obs::audit(strat, tasks, platform, res, ac).record;
  }

  judge(r, sc);
  return r;
}

std::vector<std::size_t> shard_indices(std::size_t total, int index,
                                       int count) {
  VC2M_CHECK_MSG(count >= 1, "--shard: count must be >= 1");
  VC2M_CHECK_MSG(index >= 0 && index < count,
                 "--shard: index " << index << " outside 0.." << count - 1);
  std::vector<std::size_t> out;
  for (std::size_t i = static_cast<std::size_t>(index); i < total;
       i += static_cast<std::size_t>(count))
    out.push_back(i);
  return out;
}

MatrixResult run_matrix(
    const MatrixConfig& cfg,
    const std::function<void(int, int, const std::string&)>& progress) {
  VC2M_CHECK_MSG(cfg.jobs >= 0, "--jobs must be >= 0");

  // Load every scenario up front: a corpus with one broken file fails
  // before any work runs, and duplicate names are caught across shards.
  const std::vector<Scenario> all = load_corpus(cfg.files);

  const auto mine = shard_indices(all.size(), cfg.shard_index,
                                  cfg.shard_count);

  MatrixResult result;
  result.report.git_rev = obs::build_git_rev();
  result.report.corpus = cfg.corpus;
  result.report.shard_index = cfg.shard_index;
  result.report.shard_count = cfg.shard_count;

  // Resume: reuse checkpointed records for scenarios in this shard. A
  // checkpoint that fails the strict reader (e.g. torn by a crash under a
  // pre-atomic-rename build, or hand-edited) downgrades to a warned cold
  // start — resume exists for exactly the runs that may have died badly.
  ScenarioReport checkpoint;
  if (cfg.resume && !cfg.checkpoint.empty()) {
    std::ifstream probe(cfg.checkpoint);
    if (probe.good()) {
      try {
        checkpoint = read_scenario_report(probe, cfg.checkpoint);
      } catch (const util::Error& e) {
        checkpoint = ScenarioReport{};
        result.warnings.push_back("unreadable checkpoint, cold start: " +
                                  std::string(e.what()));
      }
    }
  }

  std::vector<ScenarioRecord> slots(mine.size());
  std::vector<bool> reused(mine.size(), false);
  for (std::size_t k = 0; k < mine.size(); ++k) {
    const Scenario& sc = all[mine[k]];
    if (const ScenarioRecord* prev = checkpoint.find(sc.name)) {
      const std::string file =
          std::filesystem::path(sc.source).filename().string();
      // The content hash must match too: a scenario edited since the
      // checkpoint was written (new expectations, new workload) must
      // re-run, or the resumed report would carry a stale verdict.
      if (prev->file == file && prev->scenario_hash == sc.content_hash) {
        slots[k] = *prev;
        reused[k] = true;
        ++result.resumed;
      }
    }
  }

  std::mutex mu;  // guards slots[], done, checkpoint writes, progress
  int done = 0;
  const int total = static_cast<int>(mine.size());
  // `rec` is null for records already placed in slots[k] (the resumed
  // ones, written before the pool exists). Worker results land in their
  // slot here, under the lock: the checkpoint loop below reads every
  // slot, so a bare `slots[k] = ...` on the worker thread would race it.
  auto on_complete = [&](std::size_t k, ScenarioRecord* rec) {
    std::lock_guard<std::mutex> lock(mu);
    if (rec) {
      slots[k] = std::move(*rec);
      ++result.executed;
    }
    ++done;
    if (!cfg.checkpoint.empty()) {
      ScenarioReport ck;
      ck.git_rev = result.report.git_rev;
      ck.corpus = result.report.corpus;
      ck.shard_index = cfg.shard_index;
      ck.shard_count = cfg.shard_count;
      for (std::size_t j = 0; j < slots.size(); ++j)
        if (!slots[j].name.empty()) ck.records.push_back(slots[j]);
      std::sort(ck.records.begin(), ck.records.end(),
                [](const ScenarioRecord& a, const ScenarioRecord& b) {
                  return a.name < b.name;
                });
      // The checkpoint is rewritten after every scenario, and a crash
      // mid-write is the one moment resume is for — build the new file
      // beside the old one and rename() it into place atomically.
      const std::string tmp = cfg.checkpoint + ".tmp";
      obs::json::write_file(tmp, ck, "scenario report");
      std::error_code ec;
      std::filesystem::rename(tmp, cfg.checkpoint, ec);
      if (ec)
        throw util::Error("cannot replace scenario checkpoint '" +
                          cfg.checkpoint + "': " + ec.message());
    }
    if (progress) progress(done, total, slots[k].name);
  };

  util::ThreadPool pool(static_cast<unsigned>(cfg.jobs));
  for (std::size_t k = 0; k < mine.size(); ++k) {
    if (reused[k]) {
      on_complete(k, nullptr);
      continue;
    }
    pool.submit([&, k] {
      // A cancelled run skips everything still queued; scenarios already
      // executing finish (and reach the checkpoint) before the pool drains.
      if (cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) return;
      ScenarioRecord rec = run_scenario(all[mine[k]]);
      on_complete(k, &rec);
    });
  }
  pool.wait();

  result.interrupted =
      cfg.cancel && cfg.cancel->load(std::memory_order_relaxed) &&
      result.executed + result.resumed < static_cast<int>(mine.size());
  result.report.interrupted = result.interrupted;
  for (auto& s : slots)
    if (!s.name.empty()) result.report.records.push_back(std::move(s));
  std::sort(result.report.records.begin(), result.report.records.end(),
            [](const ScenarioRecord& a, const ScenarioRecord& b) {
              return a.name < b.name;
            });
  return result;
}

}  // namespace vc2m::scenario

// vc2m — command-line front end to the allocator.
//
//   vc2m profiles
//       List the PARSEC profile library and key slowdown figures.
//
//   vc2m solutions
//       List the registered allocation strategies: key, paper name, and the
//       VM-level / hypervisor-level policy composition behind each.
//
//   vc2m generate --util U [--dist uniform|light|medium|heavy] [--vms N]
//                 [--seed S] [--platform A|B|C]
//       Emit a random §5.1 taskset as CSV (vm,period_ms,ref_wcet_ms,benchmark).
//
//   vc2m solve --file tasks.csv [--platform A|B|C] [--solution flat|ovf|
//              existing|even|baseline] [--seed S]
//       Read a taskset CSV, run the chosen solution, print the allocation
//       (VCPUs, cores, cache/BW partitions and the CAT capacity bitmasks).
//
//   vc2m simulate --file tasks.csv [--platform P] [--solution S] [--seed S]
//                 [--trace out.json|out.csv] [--report]
//                 [--faults SPEC] [--policy strict|kill|throttle|degrade]
//       Solve as above, then deploy the allocation onto the simulated
//       hypervisor and execute three hyperperiods, reporting deadline
//       misses and core utilization. --trace writes the scheduling trace
//       (Chrome/Perfetto JSON, or CSV by extension); --report prints the
//       full metrics report (per-core utilization/throttle, per-task
//       response-time ratios, allocator effort) and runs the trace
//       invariant checker over the run. --faults injects a deterministic
//       fault plan (sim/faults.h), e.g.
//       "overrun-factor=1.2,overrun-prob=0.5,jitter-ms=2,seed=7";
//       --policy selects the enforcement response to budget exhaustion.
//       A faulty run exits 0 even with deadline misses (they are the
//       experiment) unless --report's invariant checker fails.
//
//   vc2m check --trace out.json|out.csv
//       Re-import an exported trace and verify the scheduling invariants
//       (single VCPU per core, no execution while throttled, release/
//       completion matching).
//
//   vc2m perfdiff base.json current.json [--max-regress 10%]
//       Compare two BENCH_*.json reports (written by the bench binaries
//       with --json) per phase, per allocator counter and per histogram
//       p95; exits nonzero when any tracked quantity regressed by more
//       than the threshold (default 10%, accepted as "10%" or "0.1").
//
//   vc2m serve --trace SPEC [--platform P] [--seed S] [--journal FILE]
//              [--recover] [--snapshot-every N] [--deadline-us D]
//              [--shed-policy reject-newest|reject-largest|criticality]
//              [--queue-cap N] [--max-retries N] [--backoff-us B]
//              [--crash-at POINT:N] [--json report.json]
//       Run the crash-safe online admission-control service (docs/
//       service.md) over a generated request trace, e.g.
//       "poisson:requests=100000,interarrival-us=300,util=0.1..0.4".
//       --journal appends every decision to a checksummed write-ahead
//       journal (fsync'd) and snapshots full state every N commits;
//       --recover replays journal-over-snapshot and reproduces the
//       uninterrupted run bit for bit (the --json report is diffed byte
//       for byte in CI). --deadline-us enables the overload downgrade
//       ladder (full solver -> headroom probe); --shed-policy picks the
//       victim when the bounded queue overflows. --crash-at kills the
//       process at an injected crash point (before-append:SEQ,
//       after-append:SEQ, mid-snapshot:K) for the recovery tests.
//       SIGINT/SIGTERM stop the service between requests: the journal is
//       already durable, the report is written marked "interrupted", and
//       the exit code is 130. Runtime telemetry (docs/telemetry.md):
//       --timeline FILE appends a framed, checksummed metrics timeline
//       sampled every --sample-every decisions (bit-identical at any
//       --jobs and across --recover); --stats-every N renders a
//       deterministic stats snapshot to stderr every N decisions, and
//       SIGUSR1 renders one on demand; --span-ring K keeps the last K
//       request spans and dumps them to <journal>.spans on crash or
//       interrupt; --span-trace writes every request span as a Perfetto
//       trace with per-request tracks.
//
//   vc2m timeline FILE... [--diff BASE] [--csv]
//       Read vc2m-metrics-timeline/1 files (tolerantly: torn tails and
//       malformed samples warn and truncate, never crash). Prints a
//       per-file summary and per-outcome-class latency quantile tables
//       (merged across files when several are given). --diff BASE compares
//       the first FILE against BASE sample by sample and exits nonzero on
//       divergence; --csv emits one scalar row per sample.
//
//   vc2m scenario run PATH... [--jobs N] [--shard i/m] [--resume]
//                    [--json report.json] [--checkpoint ckpt.json]
//       Execute a directory (or explicit files) of declarative scenarios
//       (docs/scenarios.md) over the experiment thread pool and judge each
//       against its pinned expectations. --shard i/m runs the i-th of m
//       disjoint slices of the sorted corpus; --json writes the merged
//       vc2m-scenario-report/1 artifact, bit-identical for any --jobs.
//       --checkpoint records completed scenarios after each finishes;
//       --resume reuses them instead of re-running. Exits nonzero when any
//       scenario fails its expectations.
//   vc2m scenario validate PATH...
//       Load + strictly validate scenario files/directories; no execution.
//   vc2m scenario show FILE
//       Run one scenario and print its actual outcome as a paste-ready
//       "expect" block (for pinning a new scenario's expectations).
//   vc2m scenario merge shard.json... --json merged.json
//       Merge disjoint shard reports into one corpus report.
//
//   vc2m experiment [--platform P] [--dist D] [--vms N] [--seed S]
//                   [--tasksets N] [--step S] [--util-lo U] [--util-hi U]
//                   [--jobs N] [--solutions NAME[,NAME...]]
//                   [--faults SPEC] [--policy P] [--fault-horizon H]
//       Run the §5 schedulability sweep (the Fig. 2/3 experiment) over a
//       work-stealing thread pool and print the fraction-schedulable table
//       plus per-solution breakdown utilizations. --jobs 0 (the default)
//       uses all hardware threads; results are bit-identical for any
//       --jobs value. --solutions restricts the sweep to the named
//       strategies (any keys `vc2m solutions` lists), in column order.
//       With --faults, every schedulable allocation is also
//       replayed in the simulator for H hyperperiods under the fault plan
//       and enforcement policy, and the table gains a "+f" column per
//       solution: the fraction that stays schedulable under faults
//       (critical tasks free of misses and kills).
//
//   --profile (simulate, experiment) enables the hierarchical phase
//   profiler and prints the merged allocator phase tree (counts, total and
//   self wall seconds) after the run; experiment also prints per-worker
//   thread-pool telemetry (tasks executed, steals, idle time, peak queue
//   depth). --pool-trace FILE (experiment) additionally writes the pool
//   telemetry time series as Perfetto counter tracks, viewable in
//   https://ui.perfetto.dev alongside any scheduling trace.
//
// CSV tasks reference a PARSEC profile by name; WCET surfaces are derived
// from the profile's slowdown vectors scaled to the given reference WCET.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/solutions.h"
#include "scenario/digest.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "hw/cat.h"
#include "obs/bench_report.h"
#include "obs/explain.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/request_span.h"
#include "obs/trace_check.h"
#include "obs/trace_export.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "sim/deploy.h"
#include "sim/enforcement.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "model/platform.h"
#include "util/error.h"
#include "util/file.h"
#include "util/parse.h"
#include "util/phase_profiler.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/parsec.h"
#include "workload/taskset_io.h"

namespace {

using namespace vc2m;

struct Args {
  std::string command;
  std::string file;
  std::string trace;
  bool report = false;
  std::string platform = "A";
  std::string solution = "flat";
  std::string dist = "uniform";
  double util = 1.0;
  int vms = 1;
  std::uint64_t seed = 42;
  // experiment sweep parameters
  int tasksets = 20;
  double step = 0.1;
  double util_lo = 0.1;
  double util_hi = 2.0;
  int jobs = 0;  ///< sweep worker threads; 0 = hardware concurrency
  /// Intra-solve stripes for the min-budget surface batches; 1 = serial,
  /// 0 = hardware. Bit-identical results at any value. Unset: 1 for
  /// experiment, 0 for the single-decision explain and serve.
  std::optional<int> inner_jobs;
  // fault injection (simulate + experiment)
  std::string faults;            ///< sim/faults.h spec, empty = none
  std::string policy = "strict"; ///< enforcement policy name
  int fault_horizon = 1;         ///< hyperperiods per fault validation run
  std::string solutions;         ///< comma-separated sweep keys, empty = all
  // profiling / perf reports
  bool profile = false;          ///< render the phase tree after the run
  std::string pool_trace;        ///< experiment: counter-track trace file
  std::string max_regress;       ///< perfdiff threshold, "10%" or "0.1"
  std::string min_abs_sec;       ///< perfdiff noise floor for time deltas
  // explain
  std::string json_out;          ///< write the explain report here
  bool events = false;           ///< render every recorded decision event
  // scenario matrix runner
  std::string shard;             ///< "i/m" slice of the sorted corpus
  bool resume = false;           ///< reuse checkpointed records
  std::string checkpoint;        ///< checkpoint file (default from --json)
  // serve (admission-control service)
  std::string journal;                 ///< write-ahead journal path
  bool recover = false;                ///< replay journal before going live
  std::uint64_t snapshot_every = 1000; ///< commits per snapshot; 0 = off
  std::int64_t deadline_us = 0;        ///< per-request budget; 0 = off
  std::string shed_policy = "reject-newest";
  std::uint64_t queue_cap = 64;
  std::uint64_t max_retries = 3;
  std::int64_t backoff_us = 10000;
  std::string crash_at;                ///< injected crash point spec
  // serve telemetry (docs/telemetry.md) + the timeline subcommand
  std::string timeline;                ///< metrics timeline file; empty = off
  std::uint64_t sample_every = 100;    ///< decisions per timeline sample
  std::uint64_t stats_every = 0;       ///< stderr stats cadence; 0 = off
  std::uint64_t span_ring = 64;        ///< post-mortem span ring capacity
  std::string span_trace;              ///< request-span Perfetto trace file
  std::string diff;                    ///< timeline: baseline to diff against
  bool csv = false;                    ///< timeline: emit CSV rows
  std::vector<std::string> positional;  ///< perfdiff report files / explain
                                        ///< taskset / scenario verb+paths
};

[[noreturn]] void usage(int code) {
  std::cerr << "usage: vc2m profiles\n"
               "       vc2m solutions\n"
               "       vc2m generate --util U [--dist D] [--vms N] [--seed S]"
               " [--platform P]\n"
               "       vc2m solve --file tasks.csv [--platform P] "
               "[--solution S] [--seed S]\n"
               "       vc2m simulate --file tasks.csv [--platform P] "
               "[--solution S] [--seed S]\n"
               "                     [--trace out.json|out.csv] [--report] "
               "[--profile]\n"
               "                     [--faults SPEC] "
               "[--policy strict|kill|throttle|degrade]\n"
               "       vc2m explain tasks.csv [--platform P] [--solution S] "
               "[--seed S]\n"
               "                    [--json out.json] [--events] "
               "[--inner-jobs N]\n"
               "       vc2m check --trace out.json|out.csv\n"
               "       vc2m perfdiff base.json current.json "
               "[--max-regress 10%|0.1] [--min-abs-sec S]\n"
               "       vc2m serve --trace SPEC [--platform P] [--seed S]\n"
               "                  [--journal FILE] [--recover] "
               "[--snapshot-every N]\n"
               "                  [--deadline-us D] [--shed-policy "
               "reject-newest|reject-largest|criticality]\n"
               "                  [--queue-cap N] [--max-retries N] "
               "[--backoff-us B]\n"
               "                  [--crash-at POINT:N] [--json report.json]\n"
               "                  [--timeline FILE] [--sample-every N] "
               "[--stats-every N]\n"
               "                  [--span-ring K] [--span-trace out.json]\n"
               "                  [--inner-jobs N]\n"
               "       vc2m timeline FILE... [--diff BASE] [--csv]\n"
               "       vc2m scenario run PATH... [--jobs N] [--shard i/m] "
               "[--resume]\n"
               "                         [--json report.json] "
               "[--checkpoint ckpt.json]\n"
               "       vc2m scenario validate PATH...\n"
               "       vc2m scenario show FILE\n"
               "       vc2m scenario merge shard.json... --json merged.json\n"
               "       vc2m experiment [--platform P] [--dist D] [--vms N] "
               "[--seed S]\n"
               "                       [--tasksets N] [--step S] "
               "[--util-lo U] [--util-hi U]\n"
               "                       [--jobs N] [--inner-jobs N] "
               "[--solutions NAME[,NAME...]]\n"
               "                       [--faults SPEC] "
               "[--policy P] [--fault-horizon H]\n"
               "                       [--profile] [--pool-trace out.json]\n";
  std::exit(code);
}

/// Strict numeric flag parsing (util/parse.h): a flag value must be exactly
/// one number of the flag's type — no sign on an unsigned, no '+', no
/// spaces, no trailing bytes, in range — or the process prints
/// "<flag>: bad value '<token>'" and exits 2 (the usage exit code).
[[noreturn]] void bad_value(const std::string& flag, const std::string& s,
                            const std::string& why = "") {
  std::cerr << flag << ": bad value '" << s << "'"
            << (why.empty() ? "" : " (" + why + ")") << "\n";
  std::exit(2);
}

std::int64_t i64_flag(const std::string& flag, const std::string& s) {
  if (const auto v = util::try_i64(s)) return *v;
  bad_value(flag, s);
}

int int_flag(const std::string& flag, const std::string& s) {
  if (const auto v = util::try_int<int>(s)) return *v;
  bad_value(flag, s);
}

std::uint64_t u64_flag(const std::string& flag, const std::string& s) {
  if (const auto v = util::try_u64(s)) return *v;
  bad_value(flag, s);
}

double double_flag(const std::string& flag, const std::string& s) {
  if (const auto v = util::try_double(s)) return *v;
  bad_value(flag, s);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage(2);
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (arg == "--file") a.file = next();
    else if (arg == "--trace") a.trace = next();
    else if (arg == "--report") a.report = true;
    else if (arg == "--platform") a.platform = next();
    else if (arg == "--solution") a.solution = next();
    else if (arg == "--dist") a.dist = next();
    else if (arg == "--util") a.util = double_flag(arg, next());
    else if (arg == "--vms") a.vms = int_flag(arg, next());
    else if (arg == "--seed") a.seed = u64_flag(arg, next());
    else if (arg == "--tasksets") a.tasksets = int_flag(arg, next());
    else if (arg == "--step") a.step = double_flag(arg, next());
    else if (arg == "--util-lo") a.util_lo = double_flag(arg, next());
    else if (arg == "--util-hi") a.util_hi = double_flag(arg, next());
    else if (arg == "--jobs") a.jobs = int_flag(arg, next());
    else if (arg == "--inner-jobs") a.inner_jobs = int_flag(arg, next());
    else if (arg == "--faults") a.faults = next();
    else if (arg == "--policy") a.policy = next();
    else if (arg == "--fault-horizon") a.fault_horizon = int_flag(arg, next());
    else if (arg == "--solutions") a.solutions = next();
    else if (arg == "--profile") a.profile = true;
    else if (arg == "--pool-trace") a.pool_trace = next();
    else if (arg == "--max-regress") a.max_regress = next();
    else if (arg == "--min-abs-sec") a.min_abs_sec = next();
    else if (arg == "--json") a.json_out = next();
    else if (arg == "--events") a.events = true;
    else if (arg == "--shard") a.shard = next();
    else if (arg == "--resume") a.resume = true;
    else if (arg == "--checkpoint") a.checkpoint = next();
    else if (arg == "--journal") a.journal = next();
    else if (arg == "--recover") a.recover = true;
    else if (arg == "--snapshot-every") a.snapshot_every = u64_flag(arg, next());
    else if (arg == "--deadline-us") a.deadline_us = i64_flag(arg, next());
    else if (arg == "--shed-policy") a.shed_policy = next();
    else if (arg == "--queue-cap") a.queue_cap = u64_flag(arg, next());
    else if (arg == "--max-retries") a.max_retries = u64_flag(arg, next());
    else if (arg == "--backoff-us") a.backoff_us = i64_flag(arg, next());
    else if (arg == "--crash-at") a.crash_at = next();
    else if (arg == "--timeline") a.timeline = next();
    else if (arg == "--sample-every") a.sample_every = u64_flag(arg, next());
    else if (arg == "--stats-every") a.stats_every = u64_flag(arg, next());
    else if (arg == "--span-ring") a.span_ring = u64_flag(arg, next());
    else if (arg == "--span-trace") a.span_trace = next();
    else if (arg == "--diff") a.diff = next();
    else if (arg == "--csv") a.csv = true;
    else if (!arg.empty() && arg[0] != '-') a.positional.push_back(arg);
    else usage(2);
  }
  return a;
}

/// Parse a perfdiff threshold: "10%" means 10 percent, a bare number is a
/// fraction ("0.1" == "10%").
double regress_of(const std::string& s) {
  std::string_view num = s;
  double scale = 1.0;
  if (num.ends_with('%')) {
    num.remove_suffix(1);
    scale = 0.01;
  }
  const auto v = util::try_double(num);
  if (!v || *v < 0)
    throw util::Error("--max-regress: bad threshold '" + s +
                      "' (want e.g. 10% or 0.1)");
  return *v * scale;
}

model::PlatformSpec platform_of(const std::string& name) {
  if (name == "A" || name == "a") return model::PlatformSpec::A();
  if (name == "B" || name == "b") return model::PlatformSpec::B();
  if (name == "C" || name == "c") return model::PlatformSpec::C();
  throw util::Error("unknown platform '" + name + "' (A, B, or C)");
}

std::string known_solution_keys() {
  std::string keys;
  for (const auto* s : core::StrategyRegistry::instance().all()) {
    if (!keys.empty()) keys += '|';
    keys += s->key;
  }
  return keys;
}

const core::Strategy& strategy_of(const std::string& name) {
  if (const auto* s = core::StrategyRegistry::instance().find(name))
    return *s;
  throw util::Error("unknown solution '" + name + "' (" +
                    known_solution_keys() + ")");
}

std::vector<std::string> solutions_of(const std::string& list) {
  std::vector<std::string> keys;
  std::string item;
  std::istringstream is(list);
  while (std::getline(is, item, ',')) {
    if (item.empty())
      throw util::Error("--solutions: empty name in '" + list + "'");
    strategy_of(item);  // validate eagerly for a friendly error
    keys.push_back(item);
  }
  if (keys.empty()) throw util::Error("--solutions: no names given");
  return keys;
}

sim::EnforcementConfig enforcement_of(const std::string& name) {
  const auto p = sim::enforcement_policy_from_string(name);
  if (!p)
    throw util::Error("unknown policy '" + name +
                      "' (strict|kill|throttle|degrade)");
  sim::EnforcementConfig ec;
  ec.policy = *p;
  return ec;
}

workload::UtilDist dist_of(const std::string& name) {
  if (name == "uniform") return workload::UtilDist::kUniform;
  if (name == "light") return workload::UtilDist::kBimodalLight;
  if (name == "medium") return workload::UtilDist::kBimodalMedium;
  if (name == "heavy") return workload::UtilDist::kBimodalHeavy;
  throw util::Error("unknown distribution '" + name + "'");
}

/// Render the merged phase tree captured by the profiler (--profile).
void print_profile() {
  std::cout << '\n';
  obs::write_profile(std::cout, obs::merged_profile());
}

/// Per-worker thread-pool telemetry table (--profile on experiment).
void print_pool(const util::PoolTelemetry& t) {
  if (t.workers.empty()) return;
  util::Table table({"worker", "executed", "steals", "idle(s)", "max queue"});
  table.set_precision(3);
  for (std::size_t w = 0; w < t.workers.size(); ++w)
    table.add_row(static_cast<int>(w), t.workers[w].executed,
                  t.workers[w].steals, t.workers[w].idle_ns * 1e-9,
                  t.workers[w].max_queue);
  table.add_row(std::string("total"), t.total_executed(), t.total_steals(),
                t.total_idle_ns() * 1e-9, t.max_queue_depth());
  std::cout << '\n';
  table.print(std::cout, "thread-pool telemetry");
}

int cmd_profiles() {
  const auto grid = model::PlatformSpec::A().grid;
  util::Table table({"benchmark", "mem share", "s(Cmin,Bmin)", "s(C/4,B/4)",
                     "s_max"});
  table.set_precision(2);
  for (const auto& p : workload::parsec_suite())
    table.add_row(p.name, p.mem_frac,
                  p.slowdown(grid.c_min, grid.b_min, grid),
                  p.slowdown(grid.c_max / 4.0, grid.b_max / 4.0, grid),
                  p.max_slowdown(grid));
  table.print(std::cout, "PARSEC profile library (Platform A grid)");
  return 0;
}

int cmd_solutions() {
  auto all = core::StrategyRegistry::instance().all();
  // Deterministic listing regardless of registration order (late-registered
  // downstream strategies would otherwise shuffle the table).
  std::sort(all.begin(), all.end(),
            [](const core::Strategy* x, const core::Strategy* y) {
              return x->key < y->key;
            });
  util::Table table({"key", "solution", "description"});
  for (const auto* s : all)
    table.add_row(s->key, s->display,
                  s->description.empty()
                      ? std::string(s->vm->name()) + " + " +
                            std::string(s->hv->name())
                      : s->description);
  table.print(std::cout, "registered allocation strategies");
  return 0;
}

int cmd_generate(const Args& a) {
  workload::GeneratorConfig cfg;
  cfg.grid = platform_of(a.platform).grid;
  cfg.target_ref_utilization = a.util;
  cfg.dist = dist_of(a.dist);
  cfg.num_vms = a.vms;
  util::Rng rng(a.seed);
  workload::write_taskset_csv(std::cout,
                              workload::generate_taskset(cfg, rng));
  return 0;
}

int cmd_solve(const Args& a) {
  if (a.file.empty()) usage(2);
  const auto platform = platform_of(a.platform);
  const auto tasks = workload::read_taskset_csv(a.file, platform.grid);
  std::cout << "Loaded " << tasks.size() << " tasks (reference utilization "
            << model::total_reference_utilization(tasks) << ") onto "
            << platform.name << "\n";

  util::Rng rng(a.seed);
  const auto& strat = strategy_of(a.solution);
  const auto res = core::solve(strat, tasks, platform, {}, rng);
  if (!res.schedulable) {
    std::cout << "NOT schedulable under " << strat.display << "\n";
    return 1;
  }

  std::cout << "Schedulable on " << res.mapping.cores_used
            << " core(s) with " << strat.display
            << " (" << res.seconds << " s analysis)\n\n";
  util::Table table({"core", "cache", "bw", "CBM", "VCPUs (Pi/Theta ms)"});
  hw::MsrFile msr(platform.cores);
  hw::Cat cat(msr, platform.total_cache(), 16, platform.grid.c_min);
  std::vector<unsigned> ways(platform.cores, 0);
  for (unsigned k = 0; k < res.mapping.cores_used; ++k)
    ways[k] = res.mapping.cache[k];
  cat.program_disjoint_plan(ways);

  for (unsigned k = 0; k < res.mapping.cores_used; ++k) {
    std::ostringstream vcpus;
    for (const auto vi : res.mapping.vcpus_on_core[k]) {
      const auto& v = res.vcpus[vi];
      char buf[48];
      std::snprintf(buf, sizeof buf, " [%.0f/%.2f]", v.period.to_ms(),
                    v.budget.at(res.mapping.cache[k], res.mapping.bw[k])
                        .to_ms());
      vcpus << buf;
    }
    char cbm[24];
    std::snprintf(cbm, sizeof cbm, "0x%05llx",
                  static_cast<unsigned long long>(cat.effective_mask(k)));
    table.add_row(static_cast<int>(k), static_cast<int>(res.mapping.cache[k]),
                  static_cast<int>(res.mapping.bw[k]), cbm, vcpus.str());
  }
  table.print(std::cout);
  return 0;
}

/// --inner-jobs for the single-decision commands (explain, serve):
/// hardware threads (0) unless given; a negative count exits 2.
int decision_inner_jobs(const Args& a) {
  const int jobs = a.inner_jobs.value_or(0);
  if (jobs < 0)
    bad_value("--inner-jobs", std::to_string(jobs),
              "must be >= 0, 0 = hardware concurrency");
  return jobs;
}

int cmd_explain(const Args& a) {
  std::string file = a.file;
  if (file.empty() && !a.positional.empty()) file = a.positional.front();
  if (file.empty()) usage(2);
  const int inner_jobs = decision_inner_jobs(a);
  if (!a.json_out.empty())
    util::ensure_output_path_writable(a.json_out, "explain report");
  const auto platform = platform_of(a.platform);
  const auto tasks = workload::read_taskset_csv(file, platform.grid);
  const auto& strat = strategy_of(a.solution);
  util::Rng rng(a.seed);
  // Single-solve path: stripe the min-budget surface search over the
  // hardware threads unless told otherwise (bit-identical results at any
  // inner-jobs value).
  core::SolveConfig scfg;
  scfg.inner_jobs = inner_jobs;
  const auto report =
      obs::explain_solve(strat, tasks, platform, scfg, rng);
  obs::render_explain(std::cout, report, a.events);
  if (!a.json_out.empty()) {
    obs::write_explain_report_file(a.json_out, report);
    // Round-trip through the strict reader so a report we cannot re-read
    // never lands on disk unnoticed.
    (void)obs::read_explain_report_file(a.json_out);
    std::cout << "wrote " << a.json_out << "\n";
  }
  // Both verdicts are successful explanations; only usage/IO errors fail.
  return 0;
}

int cmd_simulate(const Args& a) {
  if (a.file.empty()) usage(2);
  // Probe output destinations before the (potentially long) run: a missing
  // directory or unwritable file must fail now, not after the simulation.
  if (!a.trace.empty())
    util::ensure_output_path_writable(a.trace, "trace file");
  if (a.profile) util::PhaseProfiler::set_enabled(true);
  const auto platform = platform_of(a.platform);
  const auto tasks = workload::read_taskset_csv(a.file, platform.grid);
  util::Rng rng(a.seed);
  const auto& strat = strategy_of(a.solution);
  const auto res = core::solve(strat, tasks, platform, {}, rng);
  if (!res.schedulable) {
    std::cout << "NOT schedulable under " << strat.display
              << " — nothing to simulate\n";
    return 1;
  }

  sim::DeployConfig dc;
  dc.release_sync = strat.vm->release_sync();
  dc.capture_trace = !a.trace.empty() || a.report;
  auto sim_cfg = sim::deploy(tasks, res.vcpus, res.mapping, platform, dc);
  sim_cfg.enforcement = enforcement_of(a.policy);
  const bool faulty = !a.faults.empty();
  if (faulty) sim_cfg.faults = sim::parse_fault_spec(a.faults);
  sim::Simulation s(sim_cfg);

  obs::MetricsRegistry registry;
  obs::MetricsRecorder recorder(registry);
  if (a.report) s.set_observer(&recorder);

  const auto horizon = model::hyperperiod(tasks) * 3;
  s.run(horizon);
  const auto st = s.stats();

  if (!a.trace.empty()) {
    obs::write_trace_file(a.trace, s.trace().events(),
                          obs::TraceMeta::from_config(sim_cfg));
    std::cout << "Wrote " << s.trace().events().size() << " trace events to "
              << a.trace << "\n";
  }

  if (a.report) {
    recorder.finalize(st, horizon);
    obs::record_alloc_counters(registry, res.counters);
    obs::write_report(std::cout, sim_cfg, st, registry, horizon,
                      &res.counters);
    const auto check = obs::check_trace(
        s.trace().events(),
        obs::TraceCheckConfig::from_sim(sim_cfg, horizon));
    std::cout << "Trace invariants: " << check.summary() << "\n";
    for (const auto& v : check.violations)
      std::cout << "  at " << v.when.to_ms() << " ms: " << v.what << "\n";
    if (!check.ok()) return 1;
  } else {
    std::cout << "Simulated " << horizon.to_ms() << " ms on "
              << res.mapping.cores_used << " core(s)\n";
    util::Table table({"metric", "value"});
    table.add_row("jobs released", static_cast<int>(st.jobs_released));
    table.add_row("jobs completed", static_cast<int>(st.jobs_completed));
    table.add_row("deadline misses", static_cast<int>(st.deadline_misses));
    table.add_row("VCPU context switches",
                  static_cast<int>(st.vcpu_context_switches));
    if (faulty) {
      table.add_row("faults injected", static_cast<int>(st.faults_injected));
      table.add_row("jobs killed", static_cast<int>(st.jobs_killed));
      table.add_row("jobs deferred", static_cast<int>(st.jobs_deferred));
      table.add_row("task suspensions",
                    static_cast<int>(st.task_suspensions));
      table.add_row("VCPU budget overruns",
                    static_cast<int>(st.vcpu_budget_overruns));
    }
    for (std::size_t k = 0; k < st.core_busy_fraction.size(); ++k)
      table.add_row("core " + std::to_string(k) + " busy",
                    st.core_busy_fraction[k]);
    table.print(std::cout);
  }
  if (a.profile) print_profile();
  // Under injected faults, misses/kills are the experiment, not a failure;
  // only a trace-invariant violation (checked under --report) is an error.
  if (faulty) return 0;
  return st.deadline_misses == 0 ? 0 : 1;
}

int cmd_experiment(const Args& a) {
  if (a.jobs < 0)
    throw util::Error("--jobs must be >= 0 (0 = hardware concurrency)");
  if (a.inner_jobs.value_or(1) < 0)
    throw util::Error("--inner-jobs must be >= 0 (0 = hardware concurrency)");
  if (!a.pool_trace.empty())
    util::ensure_output_path_writable(a.pool_trace, "pool trace");
  if (a.profile) util::PhaseProfiler::set_enabled(true);
  core::ExperimentConfig cfg;
  cfg.platform = platform_of(a.platform);
  cfg.dist = dist_of(a.dist);
  cfg.util_lo = a.util_lo;
  cfg.util_hi = a.util_hi;
  cfg.util_step = a.step;
  cfg.tasksets_per_point = a.tasksets;
  cfg.num_vms = a.vms;
  cfg.seed = a.seed;
  cfg.jobs = a.jobs;
  cfg.solve.inner_jobs = a.inner_jobs.value_or(1);
  if (!a.solutions.empty()) cfg.solutions = solutions_of(a.solutions);
  if (!a.faults.empty()) {
    if (a.fault_horizon <= 0)
      throw util::Error("--fault-horizon must be >= 1");
    cfg.validate = sim::make_fault_validator(
        cfg.platform, sim::parse_fault_spec(a.faults),
        enforcement_of(a.policy), a.fault_horizon);
    std::cout << "Fault validation: " << a.faults << ", policy " << a.policy
              << ", " << a.fault_horizon
              << " hyperperiod(s) — '+f' columns show the fraction still "
                 "schedulable under faults\n";
  }

  std::cout << "Schedulability sweep on " << cfg.platform.name << ", dist "
            << to_string(cfg.dist) << ", util " << cfg.util_lo << ".."
            << cfg.util_hi << " step " << cfg.util_step << ", "
            << cfg.tasksets_per_point << " tasksets/point, seed " << cfg.seed
            << ", jobs "
            << (cfg.jobs == 0
                    ? util::ThreadPool::hardware_workers()
                    : static_cast<unsigned>(cfg.jobs))
            << "\n";
  const auto result = core::run_schedulability_experiment(
      cfg, [](int done, int total) {
        std::cerr << "\r" << done << "/" << total
                  << (done == total ? "\n" : "") << std::flush;
      });

  result.to_table().print(std::cout, "fraction of schedulable tasksets");
  util::Table summary({"solution", "breakdown util"});
  summary.set_precision(2);
  for (std::size_t si = 0; si < cfg.solutions.size(); ++si)
    summary.add_row(strategy_of(cfg.solutions[si]).display,
                    result.breakdown_utilization(si));
  std::cout << '\n';
  summary.print(std::cout);

  if (a.profile) {
    print_profile();
    print_pool(result.pool);
  }
  if (!a.pool_trace.empty()) {
    obs::TraceMeta meta;
    obs::CounterTrack executed{"pool/executed", {}};
    obs::CounterTrack steals{"pool/steals", {}};
    obs::CounterTrack pending{"pool/pending", {}};
    for (const auto& s : result.pool_samples) {
      executed.samples.emplace_back(s.at, static_cast<double>(s.executed));
      steals.samples.emplace_back(s.at, static_cast<double>(s.steals));
      pending.samples.emplace_back(s.at, static_cast<double>(s.pending));
    }
    meta.counters = {std::move(executed), std::move(steals),
                     std::move(pending)};
    obs::write_trace_file(a.pool_trace, {}, meta);
    std::cout << "Wrote " << result.pool_samples.size()
              << " pool telemetry samples to " << a.pool_trace << "\n";
  }
  return 0;
}

int cmd_perfdiff(const Args& a) {
  if (a.positional.size() != 2) {
    std::cerr << "perfdiff wants exactly two report files "
                 "(base.json current.json)\n";
    usage(2);
  }
  const auto base = obs::read_bench_report_file(a.positional[0]);
  const auto current = obs::read_bench_report_file(a.positional[1]);
  obs::PerfDiffOptions opt;
  if (!a.max_regress.empty()) opt.max_regress = regress_of(a.max_regress);
  if (!a.min_abs_sec.empty()) {
    // Raising the floor lets wall-clock gates ignore micro-phases
    // (sub-millisecond bookkeeping spans) whose run-to-run jitter exceeds
    // any sane relative threshold.
    opt.min_abs_sec = double_flag("--min-abs-sec", a.min_abs_sec.c_str());
    if (opt.min_abs_sec < 0)
      throw util::Error("--min-abs-sec must be >= 0");
  }
  const auto diff = obs::diff_reports(base, current, opt);
  std::cout << "perfdiff " << a.positional[0] << " (" << base.git_rev
            << ") -> " << a.positional[1] << " (" << current.git_rev
            << "), threshold " << opt.max_regress * 100 << "%\n\n";
  obs::write_perfdiff(std::cout, diff);
  if (diff.has_regression()) {
    std::cout << "\nFAIL: performance regression above "
              << opt.max_regress * 100 << "%\n";
    return 1;
  }
  std::cout << "\nOK: no regression above " << opt.max_regress * 100
            << "%\n";
  return 0;
}

/// Parse "--shard i/m" into (index, count); (0, 1) when unset.
std::pair<int, int> shard_of(const std::string& s) {
  if (s.empty()) return {0, 1};
  const std::string_view sv = s;
  const auto slash = sv.find('/');
  const auto index = util::try_int<int>(sv.substr(0, slash), 0);
  const auto count = slash == std::string_view::npos
                         ? std::nullopt
                         : util::try_int<int>(sv.substr(slash + 1), 1);
  if (!index || !count || *index >= *count)
    throw util::Error("--shard: want INDEX/COUNT with 0 <= INDEX < COUNT, "
                      "got '" + s + "'");
  return {*index, *count};
}

/// SIGINT/SIGTERM land here; the service and scenario runner poll the flag
/// between requests/scenarios, flush whatever is pending (the journal is
/// already durable, checkpoints are rewritten per scenario), write the
/// partial report marked "interrupted", and exit 130.
std::atomic<bool> g_interrupted{false};

void install_signal_handlers() {
  struct sigaction sa{};
  sa.sa_handler = [](int) { g_interrupted.store(true); };
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

constexpr int kInterruptedExit = 130;  // 128 + SIGINT, the shell convention

/// SIGUSR1 asks the service for a live stats snapshot: the handler only
/// latches the flag, the service renders at the next decision boundary.
std::atomic<bool> g_stats_requested{false};

void install_stats_signal() {
  struct sigaction sa{};
  sa.sa_handler = [](int) { g_stats_requested.store(true); };
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGUSR1, &sa, nullptr);
}

int cmd_serve(const Args& a) {
  if (a.trace.empty()) usage(2);
  if (a.seed >= service::kMaxExactCount)
    bad_value("--seed", std::to_string(a.seed),
              "serve seeds must be below 2^53 to round-trip the report");
  const int inner_jobs = decision_inner_jobs(a);
  if (!a.json_out.empty())
    util::ensure_output_path_writable(a.json_out, "serve report");
  if (!a.timeline.empty())
    util::ensure_output_path_writable(a.timeline, "metrics timeline");
  if (!a.span_trace.empty())
    util::ensure_output_path_writable(a.span_trace, "span trace");
  if (!a.timeline.empty() && a.sample_every == 0)
    throw util::Error("--sample-every must be >= 1 when --timeline is set");

  service::ServiceConfig cfg;
  cfg.platform = platform_of(a.platform);
  cfg.platform_name = a.platform;
  // One admission decision at a time: use intra-decision parallelism
  // (0 = hardware threads; decisions and digests are bit-identical).
  cfg.vm_cfg.inner_jobs = inner_jobs;
  try {
    cfg.trace = service::parse_trace_spec(a.trace);
  } catch (const util::Error& e) {
    bad_value("--trace", a.trace, e.what());
  }
  cfg.seed = a.seed;
  if (a.deadline_us < 0) throw util::Error("--deadline-us must be >= 0");
  cfg.deadline = util::Time::us(a.deadline_us);
  if (!service::shed_policy_from_string(a.shed_policy, cfg.shed))
    throw util::Error("unknown shed policy '" + a.shed_policy +
                      "' (reject-newest|reject-largest|criticality)");
  if (a.queue_cap < 1) throw util::Error("--queue-cap must be >= 1");
  cfg.queue_cap = static_cast<std::size_t>(a.queue_cap);
  cfg.max_retries = static_cast<unsigned>(a.max_retries);
  if (a.backoff_us < 0) throw util::Error("--backoff-us must be >= 0");
  cfg.backoff = util::Time::us(a.backoff_us);
  cfg.snapshot_every = a.snapshot_every;
  cfg.journal_path = a.journal;
  if (a.recover && a.journal.empty())
    throw util::Error("--recover needs --journal FILE");
  cfg.recover = a.recover;
  if (!a.crash_at.empty()) cfg.crash = service::parse_crash_spec(a.crash_at);
  cfg.timeline_path = a.timeline;
  cfg.sample_every = a.sample_every;
  cfg.stats_every = a.stats_every;
  cfg.span_ring = static_cast<std::size_t>(a.span_ring);
  cfg.collect_spans = !a.span_trace.empty();
  install_signal_handlers();
  install_stats_signal();
  cfg.cancel = &g_interrupted;
  cfg.stats_signal = &g_stats_requested;

  const auto res = service::run_service(cfg);
  for (const auto& w : res.warnings) std::cerr << "warning: " << w << "\n";
  const auto& r = res.report;

  std::cout << "served " << r.requests << " request(s) (" << r.trace
            << ", seed " << r.seed << ") on platform " << r.platform << "\n";
  util::Table table({"metric", "value"});
  table.add_row("admitted", r.admitted);
  table.add_row("rejected", r.rejected);
  table.add_row("probe rejected", r.probe_rejected);
  table.add_row("removed", r.removed);
  table.add_row("resized", r.resized);
  table.add_row("resize rejected", r.resize_rejected);
  table.add_row("not present", r.not_present);
  table.add_row("shed", r.shed);
  table.add_row("timed out", r.timed_out);
  table.add_row("deferred", r.deferred);
  table.add_row("downgrades", r.downgrades);
  table.add_row("queue max depth", r.queue_max_depth);
  table.add_row("backpressure", r.backpressure);
  table.add_row("commits", r.commits);
  table.add_row("snapshots", r.snapshots);
  auto add_latency = [&](const char* label, const obs::HistogramSummary& h) {
    if (h.count == 0) return;
    table.add_row(std::string("latency ") + label + " p50 (us)", h.p50);
    table.add_row(std::string("latency ") + label + " p95 (us)", h.p95);
    table.add_row(std::string("latency ") + label + " max (us)", h.max);
  };
  add_latency("admitted", r.latency_admitted_us);
  add_latency("rejected", r.latency_rejected_us);
  add_latency("deferred", r.latency_deferred_us);
  add_latency("shed", r.latency_shed_us);
  table.print(std::cout);
  std::cout << "final state: " << r.vms << " VM(s), " << r.vcpus
            << " VCPU(s) on " << r.cores_used << " core(s)\n"
            << "digest: " << r.digest << "\n";

  if (!a.span_trace.empty()) {
    obs::write_span_trace_file(a.span_trace, res.spans);
    // Round-trip and run the span invariant checker: a trace we cannot
    // re-read, or whose spans violate the lifecycle rules, fails loudly.
    const auto back = obs::read_span_trace_file(a.span_trace);
    const auto chk = obs::check_request_spans(back);
    std::cout << "wrote " << res.spans.size() << " request span(s) to "
              << a.span_trace << " (" << chk.summary() << ")\n";
    for (const auto& v : chk.violations)
      std::cout << "  seq " << v.seq << " attempt " << v.attempt << ": "
                << v.what << "\n";
    if (!chk.ok()) return 1;
  }
  if (!a.json_out.empty()) {
    service::write_serve_report_file(a.json_out, r);
    // Round-trip through the strict reader so a report we cannot re-read
    // never lands on disk unnoticed; fields a newer writer added are
    // surfaced, not fatal.
    std::vector<std::string> notes;
    (void)service::read_serve_report_file(a.json_out, &notes);
    for (const auto& n : notes) std::cerr << "note: " << n << "\n";
    std::cout << "wrote " << a.json_out << "\n";
  }
  if (res.interrupted) {
    std::cerr << "interrupted: served " << (r.arrivals + r.retries)
              << " of " << r.requests << " request(s); report marked "
                 "interrupted\n";
    return kInterruptedExit;
  }
  return 0;
}

/// "scenarios/" and "scenarios" must label the same corpus: reports from a
/// sharded and an unsharded invocation are diffed byte-for-byte.
std::string corpus_label(const std::vector<std::string>& paths) {
  std::string label;
  for (const auto& p : paths) {
    std::string trimmed = p;
    while (trimmed.size() > 1 && trimmed.back() == '/') trimmed.pop_back();
    if (!label.empty()) label += ',';
    label += trimmed;
  }
  return label;
}

int cmd_scenario_run(const Args& a,
                     const std::vector<std::string>& paths) {
  if (paths.empty()) usage(2);
  scenario::MatrixConfig cfg;
  for (const auto& p : paths) {
    auto files = scenario::discover_scenario_files(p);
    cfg.files.insert(cfg.files.end(), files.begin(), files.end());
  }
  std::sort(cfg.files.begin(), cfg.files.end());
  cfg.corpus = corpus_label(paths);
  cfg.jobs = a.jobs;
  std::tie(cfg.shard_index, cfg.shard_count) = shard_of(a.shard);
  cfg.checkpoint = a.checkpoint;
  if (cfg.checkpoint.empty() && a.resume)
    throw util::Error("--resume needs --checkpoint FILE (the file records "
                      "completed scenarios)");
  cfg.resume = a.resume;

  // Fail fast on unwritable outputs before any scenario runs.
  if (!a.json_out.empty())
    util::ensure_output_path_writable(a.json_out, "scenario report");
  if (!cfg.checkpoint.empty())
    util::ensure_output_path_writable(cfg.checkpoint, "scenario checkpoint");

  install_signal_handlers();
  cfg.cancel = &g_interrupted;

  const auto result = scenario::run_matrix(
      cfg, [](int done, int total, const std::string& name) {
        std::cerr << "\r[" << done << "/" << total << "] " << name
                  << std::string(24, ' ') << (done == total ? "\n" : "")
                  << std::flush;
      });

  for (const auto& w : result.warnings)
    std::cerr << "warning: " << w << "\n";

  util::Table table({"scenario", "verdict", "run", "result"});
  for (const auto& r : result.report.records)
    table.add_row(r.name,
                  r.schedulable ? std::string("schedulable")
                                : std::string("unschedulable"),
                  r.simulated ? std::string("solve+sim")
                              : std::string("solve"),
                  r.passed ? std::string("pass") : std::string("FAIL"));
  table.print(std::cout, "scenario corpus: " + result.report.corpus);
  for (const auto& r : result.report.records)
    for (const auto& f : r.failures)
      std::cout << "  " << r.name << ": " << f << "\n";
  std::cout << result.report.passed() << "/" << result.report.records.size()
            << " scenarios passed";
  if (cfg.shard_count > 1)
    std::cout << " (shard " << cfg.shard_index << "/" << cfg.shard_count
              << ")";
  if (result.resumed > 0)
    std::cout << ", " << result.resumed << " resumed from checkpoint";
  std::cout << "\n";

  if (!a.json_out.empty()) {
    scenario::write_scenario_report_file(a.json_out, result.report);
    // Round-trip through the strict reader: a report we cannot re-read
    // must never land on disk unnoticed; fields a newer writer added are
    // surfaced, not fatal.
    std::vector<std::string> notes;
    (void)scenario::read_scenario_report_file(a.json_out, &notes);
    for (const auto& n : notes) std::cerr << "note: " << n << "\n";
    std::cout << "wrote " << a.json_out << "\n";
  }
  if (result.interrupted) {
    std::cerr << "interrupted: " << result.report.records.size()
              << " scenario(s) finished; report marked interrupted\n";
    return kInterruptedExit;
  }
  return result.report.all_passed() ? 0 : 1;
}

int cmd_scenario_validate(const std::vector<std::string>& paths) {
  if (paths.empty()) usage(2);
  int checked = 0;
  for (const auto& p : paths) {
    for (const auto& file : scenario::discover_scenario_files(p)) {
      const auto sc = scenario::load_scenario_file(file);
      std::cout << file << ": OK (" << sc.name << ")\n";
      ++checked;
    }
  }
  std::cout << checked << " scenario file(s) valid\n";
  return 0;
}

int cmd_scenario_show(const std::vector<std::string>& paths) {
  if (paths.size() != 1) usage(2);
  const auto sc = scenario::load_scenario_file(paths.front());
  const auto r = scenario::run_scenario(sc);
  std::cout << "scenario: " << r.name << "\n"
            << "verdict:  "
            << (r.schedulable ? "schedulable" : "unschedulable") << "\n"
            << "digest:   " << r.digest << "\n";
  if (r.simulated)
    std::cout << "simulate: " << r.jobs_released << " released, "
              << r.deadline_misses << " misses, " << r.faults_injected
              << " faults, " << r.trace_violations
              << " trace violation(s) over " << r.trace_events
              << " events\n";
  for (const auto& c : r.rejection_constraints)
    std::cout << "rejected: " << c << "\n";
  std::cout << (r.passed ? "expectations: pass"
                         : "expectations: FAIL") << "\n";
  for (const auto& f : r.failures) std::cout << "  " << f << "\n";
  // Paste-ready pinning block for scenario authors.
  std::cout << "\n\"expect\": {\n  \"verdict\": \""
            << (r.schedulable ? "schedulable" : "unschedulable") << "\",\n"
            << "  \"digest\": \"" << r.digest << "\"";
  if (r.simulated)
    std::cout << ",\n  \"trace_clean\": "
              << (r.trace_violations == 0 ? "true" : "false");
  std::cout << "\n}\n";
  return 0;
}

int cmd_scenario_merge(const Args& a,
                       const std::vector<std::string>& paths) {
  if (paths.size() < 2 || a.json_out.empty()) {
    std::cerr << "scenario merge wants two or more shard reports and "
                 "--json OUT\n";
    usage(2);
  }
  std::vector<scenario::ScenarioReport> shards;
  std::vector<std::string> notes;
  for (const auto& p : paths)
    shards.push_back(scenario::read_scenario_report_file(p, &notes));
  for (const auto& n : notes) std::cerr << "note: " << n << "\n";
  const auto merged = scenario::merge_scenario_reports(shards);
  scenario::write_scenario_report_file(a.json_out, merged);
  std::cout << "merged " << shards.size() << " shard report(s): "
            << merged.passed() << "/" << merged.records.size()
            << " passed -> " << a.json_out << "\n";
  return 0;
}

int cmd_scenario(const Args& a) {
  if (a.positional.empty()) usage(2);
  const std::string verb = a.positional.front();
  const std::vector<std::string> paths(a.positional.begin() + 1,
                                       a.positional.end());
  if (verb == "run") return cmd_scenario_run(a, paths);
  if (verb == "validate") return cmd_scenario_validate(paths);
  if (verb == "show") return cmd_scenario_show(paths);
  if (verb == "merge") return cmd_scenario_merge(a, paths);
  std::cerr << "unknown scenario verb '" << verb << "'\n";
  usage(2);
}

/// Tolerant scan wrapper for `vc2m timeline`: a missing file or a file
/// that is not a timeline is fatal; torn tails and malformed samples are
/// stderr warnings with the valid prefix kept, matching the service's own
/// reopen behaviour.
service::TimelineScan scan_timeline_or_die(const std::string& path) {
  service::TimelineScan s = service::scan_timeline(path);
  if (!s.exists) throw util::Error("cannot open timeline '" + path + "'");
  if (!s.header_ok)
    throw util::Error("'" + path + "' is not a " +
                      std::string(service::kTimelineSchema) + " file");
  for (const auto& w : s.warnings)
    std::cerr << "warning: " << path << ": " << w << "\n";
  if (s.torn)
    std::cerr << "warning: " << path << ": torn tail past " << s.valid_bytes
              << " valid byte(s) — ignored\n";
  return s;
}

int cmd_timeline(const Args& a) {
  if (a.positional.empty()) usage(2);

  if (!a.diff.empty()) {
    if (a.positional.size() != 1) {
      std::cerr << "timeline --diff wants exactly one FILE and one BASE\n";
      usage(2);
    }
    const auto x = scan_timeline_or_die(a.positional.front());
    const auto y = scan_timeline_or_die(a.diff);
    if (x.config_digest != y.config_digest || x.every != y.every) {
      std::cout << "DIFF: headers disagree (config " << x.config_digest
                << " every " << x.every << " vs config " << y.config_digest
                << " every " << y.every << ")\n";
      return 1;
    }
    const std::size_t n = std::min(x.raw.size(), y.raw.size());
    for (std::size_t i = 0; i < n; ++i)
      if (x.raw[i] != y.raw[i]) {
        std::cout << "DIFF: sample " << i << " diverges\n  "
                  << a.positional.front() << ": " << x.raw[i].substr(0, 120)
                  << "...\n  " << a.diff << ": " << y.raw[i].substr(0, 120)
                  << "...\n";
        return 1;
      }
    if (x.raw.size() != y.raw.size()) {
      std::cout << "DIFF: sample counts disagree (" << x.raw.size() << " vs "
                << y.raw.size() << ")\n";
      return 1;
    }
    std::cout << "OK: " << x.raw.size()
              << " sample(s), byte-identical payloads\n";
    return 0;
  }

  if (a.csv) {
    std::cout << "file,sample,served,vt_ns,queue_depth,retry_depth,"
                 "est_ns_per_task,arrivals,admitted,rejected,probe_rejected,"
                 "deferred,timed_out,shed,downgrades,backpressure,commits,"
                 "dbf_evals,budget_evals,admission_tests,"
                 "lat_admitted_count,lat_rejected_count,lat_deferred_count,"
                 "lat_shed_count\n";
    for (const auto& path : a.positional) {
      const auto s = scan_timeline_or_die(path);
      for (const auto& ms : s.samples)
        std::cout << path << ',' << ms.index << ',' << ms.served << ','
                  << ms.vt_ns << ',' << ms.queue_depth << ','
                  << ms.retry_depth << ',' << ms.est_ns_per_task << ','
                  << ms.arrivals << ',' << ms.admitted << ',' << ms.rejected
                  << ',' << ms.probe_rejected << ',' << ms.deferred << ','
                  << ms.timed_out << ',' << ms.shed << ',' << ms.downgrades
                  << ',' << ms.backpressure << ',' << ms.commits << ','
                  << ms.dbf_evals << ',' << ms.budget_evals << ','
                  << ms.admission_tests << ',' << ms.lat_admitted.count()
                  << ',' << ms.lat_rejected.count() << ','
                  << ms.lat_deferred.count() << ',' << ms.lat_shed.count()
                  << '\n';
    }
    return 0;
  }

  // Summary mode: per-file overview, then per-outcome-class latency
  // quantiles from the final samples (merged across files).
  util::LogHistogram m_adm, m_rej, m_def, m_shed;
  std::uint64_t served = 0;
  for (const auto& path : a.positional) {
    const auto s = scan_timeline_or_die(path);
    std::cout << path << ": " << s.samples.size() << " sample(s), every "
              << s.every << " decision(s), config " << s.config_digest
              << "\n";
    if (s.samples.empty()) continue;
    const auto& last = s.samples.back();
    char vt[40];
    std::snprintf(vt, sizeof vt, "%.3f",
                  static_cast<double>(last.vt_ns) / 1e6);
    std::cout << "  last: served=" << last.served << " vt_ms=" << vt
              << " queue=" << last.queue_depth << " retry="
              << last.retry_depth << " admitted=" << last.admitted
              << " rejected=" << last.rejected << " shed=" << last.shed
              << " commits=" << last.commits << "\n";
    served += last.served;
    m_adm.merge(last.lat_admitted);
    m_rej.merge(last.lat_rejected);
    m_def.merge(last.lat_deferred);
    m_shed.merge(last.lat_shed);
  }
  util::Table table({"class", "count", "p50", "p90", "p95", "p99", "max"});
  table.set_precision(1);
  auto add = [&](const char* label, const util::LogHistogram& h) {
    if (h.empty()) return;
    const auto sum = obs::HistogramSummary::of(h);
    table.add_row(std::string(label), sum.count, sum.p50, sum.p90, sum.p95,
                  sum.p99, sum.max);
  };
  add("admitted", m_adm);
  add("rejected", m_rej);
  add("deferred", m_def);
  add("shed", m_shed);
  std::cout << '\n';
  table.print(std::cout, "latency quantiles (us), " +
                             std::to_string(served) + " decision(s)");
  return 0;
}

int cmd_check(const Args& a) {
  if (a.trace.empty()) usage(2);
  const auto events = obs::read_trace_file(a.trace);
  const auto res = obs::check_trace(events);
  std::cout << a.trace << ": " << res.summary() << "\n";
  for (const auto& v : res.violations)
    std::cout << "  at " << v.when.to_ms() << " ms: " << v.what << "\n";
  if (res.total_violations > res.violations.size())
    std::cout << "  ... and "
              << res.total_violations - res.violations.size() << " more\n";
  return res.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    if (a.command == "profiles") return cmd_profiles();
    if (a.command == "solutions") return cmd_solutions();
    if (a.command == "generate") return cmd_generate(a);
    if (a.command == "solve") return cmd_solve(a);
    if (a.command == "explain") return cmd_explain(a);
    if (a.command == "simulate") return cmd_simulate(a);
    if (a.command == "check") return cmd_check(a);
    if (a.command == "experiment") return cmd_experiment(a);
    if (a.command == "serve") return cmd_serve(a);
    if (a.command == "timeline") return cmd_timeline(a);
    if (a.command == "scenario") return cmd_scenario(a);
    if (a.command == "perfdiff") return cmd_perfdiff(a);
    usage(2);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

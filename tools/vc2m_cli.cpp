// vc2m — command-line front end to the allocator.
//
//   profiles, solutions  list the PARSEC profile library / the registered
//                        allocation strategies (key, paper name, policies)
//   generate             emit a random §5.1 taskset as CSV
//   solve                allocate a taskset CSV and print the allocation
//                        (VCPUs, cores, cache/BW partitions, CAT bitmasks)
//   explain              solve with decision recording: rejection chains
//                        or per-core headroom (docs/explainability.md)
//   simulate             solve, deploy onto the simulated hypervisor and
//                        run three hyperperiods, optionally under a fault
//                        plan and enforcement policy (docs/robustness.md)
//   check                re-import an exported trace and check the
//                        scheduling invariants (docs/observability.md)
//   experiment           the §5 schedulability sweep over the work-stealing
//                        pool, bit-identical at any --jobs; --preset runs a
//                        paper figure (Fig. 2, 3, 4, VM count) and writes its
//                        CSVs, --json a bench report
//   perfdiff             compare two BENCH_*.json reports; nonzero exit on
//                        a regression past --max-regress (docs/profiling.md)
//   serve                the crash-safe online admission service over a
//                        generated request trace (docs/service.md), with
//                        runtime telemetry (docs/telemetry.md)
//   timeline             summarize, diff or dump metrics timelines
//   scenario run|show|merge
//                        run a corpus of declarative scenarios, show one,
//                        or merge shard reports (docs/scenarios.md)
//   validate             check scenario files, scenario/serve/explain/
//                        bench reports and metrics timelines with their
//                        strict readers; exit 1 on any error, reader note,
//                        torn tail or scan warning
//
// usage() lists every subcommand's flags. Each subcommand accepts only the
// flags it reads (kCommands below, each a row of parse()'s kFlags); any
// other flag exits 2. --profile
// (simulate, experiment, serve) prints the merged phase tree after the run.
//
// CSV tasks reference a PARSEC profile by name; WCET surfaces are derived
// from the profile's slowdown vectors scaled to the given reference WCET.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/experiment.h"
#include "scenario/digest.h"
#include "scenario/report.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "hw/cat.h"
#include "obs/audit.h"
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
#include "sim/enforcement.h"
#include "sim/faults.h"
#include "model/platform.h"
#include "util/error.h"
#include "util/file.h"
#include "util/instrument.h"
#include "util/names.h"
#include "util/parse.h"
#include "util/phase_profiler.h"
#include "util/record.h"
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
  /// Intra-solve stripes for the min-budget surface passes; 1 = serial,
  /// 0 = hardware. Bit-identical results at any value. Unset: 1 for
  /// experiment, 0 for the single-decision explain and serve.
  std::optional<int> inner_jobs;
  // fault injection (simulate + experiment)
  std::string faults;            ///< sim/faults.h spec, empty = none
  std::string policy = "strict"; ///< enforcement policy name
  int fault_horizon = 1;         ///< hyperperiods per fault validation run
  std::string solutions;         ///< comma-separated sweep keys, empty = all
  std::string preset;            ///< experiment: a kPresets row name
  std::string csv_dir = "bench_results";  ///< where a preset writes its CSVs
  // profiling / perf reports
  bool profile = false;          ///< render the phase tree after the run
  std::string pool_trace;        ///< experiment: counter-track trace file
  std::string max_regress;       ///< perfdiff threshold, "10%" or "0.1"
  std::string min_abs_sec;       ///< perfdiff noise floor for time deltas
  bool force = false;            ///< perfdiff: compare unlike reports too
  // explain, serve, scenario, experiment
  std::string json_out;          ///< write the command's JSON report here
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
  std::vector<std::string> flags;       ///< every flag given, in order
};

/// Prints the usage text, generated from kCommands and kFlags, and exits
/// with `code`: to stdout for a request (code 0), else to stderr.
[[noreturn]] void usage(int code);

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

template <class T>
T number_flag(const std::string& flag, const std::string& s) {
  std::optional<T> v;
  if constexpr (std::is_floating_point_v<T>) v = util::try_double(s);
  else v = util::try_int<T>(s);
  if (v) return *v;
  bad_value(flag, s);
}

/// Every flag parse() reads, spelled once, with the Args field it sets and
/// the metavar usage() shows for its value. A bool field is a switch; any
/// other field takes the next argument, parsed strictly as the field's
/// type.
struct Flag {
  const char* name;
  std::variant<bool Args::*, std::string Args::*, int Args::*,
               std::optional<int> Args::*, double Args::*,
               std::uint64_t Args::*, std::int64_t Args::*>
      field;
  const char* metavar = "";
};
constexpr Flag kFlags[] = {
    {"--file", &Args::file, "tasks.csv"},
    {"--trace", &Args::trace, "out.json|out.csv"},
    {"--report", &Args::report},
    {"--platform", &Args::platform, "P"},
    {"--solution", &Args::solution, "S"},
    {"--dist", &Args::dist, "D"},
    {"--util", &Args::util, "U"},
    {"--vms", &Args::vms, "N"},
    {"--seed", &Args::seed, "S"},
    {"--tasksets", &Args::tasksets, "N"},
    {"--step", &Args::step, "S"},
    {"--util-lo", &Args::util_lo, "U"},
    {"--util-hi", &Args::util_hi, "U"},
    {"--jobs", &Args::jobs, "N"},
    {"--inner-jobs", &Args::inner_jobs, "N"},
    {"--faults", &Args::faults, "SPEC"},
    {"--policy", &Args::policy, "strict|kill|throttle|degrade"},
    {"--fault-horizon", &Args::fault_horizon, "H"},
    {"--solutions", &Args::solutions, "NAME[,NAME...]"},
    {"--preset", &Args::preset, "fig2|fig3|fig4|vm-count"},
    {"--csv-dir", &Args::csv_dir, "DIR"},
    {"--profile", &Args::profile},
    {"--pool-trace", &Args::pool_trace, "out.json"},
    {"--max-regress", &Args::max_regress, "10%|0.1"},
    {"--min-abs-sec", &Args::min_abs_sec, "S"},
    {"--force", &Args::force},
    {"--json", &Args::json_out, "report.json"},
    {"--events", &Args::events},
    {"--shard", &Args::shard, "i/m"},
    {"--resume", &Args::resume},
    {"--checkpoint", &Args::checkpoint, "ckpt.json"},
    {"--journal", &Args::journal, "FILE"},
    {"--recover", &Args::recover},
    {"--snapshot-every", &Args::snapshot_every, "N"},
    {"--deadline-us", &Args::deadline_us, "D"},
    {"--shed-policy", &Args::shed_policy,
     "reject-newest|reject-largest|criticality"},
    {"--queue-cap", &Args::queue_cap, "N"},
    {"--max-retries", &Args::max_retries, "N"},
    {"--backoff-us", &Args::backoff_us, "B"},
    {"--crash-at", &Args::crash_at, "POINT:N"},
    {"--timeline", &Args::timeline, "FILE"},
    {"--sample-every", &Args::sample_every, "N"},
    {"--stats-every", &Args::stats_every, "N"},
    {"--span-ring", &Args::span_ring, "K"},
    {"--span-trace", &Args::span_trace, "out.json"},
    {"--diff", &Args::diff, "BASE"},
    {"--csv", &Args::csv},
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage(2);
  Args a;
  a.command = argv[1];
  if (a.command == "help" || a.command == "--help" || a.command == "-h")
    usage(0);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto set = [&](auto field) {
      auto& v = a.*field;
      using T = std::remove_reference_t<decltype(v)>;
      if constexpr (std::is_same_v<T, bool>) {
        v = true;
      } else {
        if (i + 1 >= argc) usage(2);
        const std::string value = argv[++i];
        if constexpr (std::is_same_v<T, std::string>) v = value;
        else if constexpr (std::is_same_v<T, std::optional<int>>)
          v = number_flag<int>(arg, value);
        else v = number_flag<T>(arg, value);
      }
    };
    if (const Flag* flag = util::find_row(kFlags, arg)) {
      a.flags.push_back(arg);
      std::visit(set, flag->field);
    } else if (!arg.empty() && arg[0] != '-') {
      a.positional.push_back(arg);
    } else {
      usage(arg == "--help" || arg == "-h" ? 0 : 2);
    }
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
  if (auto p = model::platform_from_name(name)) return *p;
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
  workload::UtilDist d;
  if (workload::util_dist_from_string(name, d)) return d;
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

int cmd_profiles(const Args&) {
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

int cmd_solutions(const Args&) {
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
    obs::json::write_file(a.json_out, report, "explain report");
    // Round-trip through the strict reader so a report we cannot re-read
    // never lands on disk unnoticed.
    auto back = util::open_input_file(a.json_out, "explain report");
    (void)obs::read_explain_report(back);
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

  obs::MetricsRegistry registry;
  obs::MetricsRecorder recorder(registry);
  obs::AuditConfig ac;
  ac.enforcement = enforcement_of(a.policy);
  const bool faulty = !a.faults.empty();
  if (faulty) ac.faults = sim::parse_fault_spec(a.faults);
  ac.hyperperiods = 3;
  if (a.report) ac.observer = &recorder;
  const auto au = obs::audit(strat, tasks, platform, res, ac);
  const auto& st = au.stats;

  if (!a.trace.empty()) {
    obs::write_trace_file(a.trace, au.events,
                          obs::TraceMeta::from_config(au.config));
    std::cout << "Wrote " << au.events.size() << " trace events to "
              << a.trace << "\n";
  }

  if (a.report) {
    recorder.finalize(st);
    obs::record_alloc_counters(registry, res.counters);
    obs::write_report(std::cout, au.config, st, registry, au.horizon,
                      &res.counters);
    std::cout << "Trace invariants: " << au.check.summary() << "\n";
    for (const auto& v : au.check.violations)
      std::cout << "  at " << v.when.to_ms() << " ms: " << v.what << "\n";
    if (!au.check.ok()) return 1;
  } else {
    std::cout << "Simulated " << au.horizon.to_ms() << " ms on "
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

[[noreturn]] void does_not_apply(const std::string& command,
                                 const std::string& flag,
                                 const std::string& why = "") {
  std::cerr << "vc2m " << command << ": " << flag << " does not apply"
            << (why.empty() ? "" : " " + why) << "\n";
  std::exit(2);
}

/// One sweep of an experiment: the arguments a preset fixes, and the CSV
/// its table goes to under --csv-dir ("" for none).
struct Sweep {
  const char* platform;
  const char* dist;
  int vms;
  double util_lo;
  double step_factor;     ///< times --step
  const char* solutions;  ///< "" = the five paper solutions
  const char* csv;
};

/// The table a preset writes to each sweep's CSV: the sweep's fractions
/// (Figs. 2 and 3), its mean seconds per solve (Fig. 4, followed by the
/// allocator effort), or the VM-count table of every sweep so far.
enum class PresetTable { kFractions, kRuntimes, kVmCount };

/// A paper figure as fixed `vc2m experiment` arguments. Its --json report
/// carries `report` as its name and the last sweep's arguments plus
/// `extra_key` as its config.
struct Preset {
  const char* name;
  std::span<const Sweep> sweeps;
  PresetTable table;
  const char* report;
  const char* extra_key;  ///< "" = none
  const char* extra_value;
};

constexpr Sweep kFig2[] = {
    {"A", "uniform", 1, 0.1, 1, "", "fig2a_platform_A.csv"},
    {"B", "uniform", 1, 0.1, 1, "", "fig2b_platform_B.csv"},
    {"C", "uniform", 1, 0.1, 1, "", "fig2c_platform_C.csv"}};
constexpr Sweep kFig3[] = {
    {"A", "light", 1, 0.1, 1, "", "fig3a_bimodal_light.csv"},
    {"A", "medium", 1, 0.1, 1, "", "fig3b_bimodal_medium.csv"},
    {"A", "heavy", 1, 0.1, 1, "", "fig3c_bimodal_heavy.csv"}};
constexpr Sweep kFig4[] = {
    {"A", "uniform", 1, 0.1, 1, "", "fig4_running_time.csv"}};
// The VM-count extension: Fig. 2(a) from 0.8 at twice the step, with the
// tasks split over 1, 2 and 4 VMs. Its table spans the three sweeps, so
// the last one writes it.
constexpr Sweep kVmCount[] = {
    {"A", "uniform", 1, 0.8, 2, "flat,ovf,baseline", ""},
    {"A", "uniform", 2, 0.8, 2, "flat,ovf,baseline", ""},
    {"A", "uniform", 4, 0.8, 2, "flat,ovf,baseline", "vm_count.csv"}};
constexpr Preset kPresets[] = {
    {"fig2", kFig2, PresetTable::kFractions, "fig2_platforms", "platform",
     "A,B,C"},
    {"fig3", kFig3, PresetTable::kFractions, "fig3_distributions",
     "distributions", "bimodal-light,bimodal-medium,bimodal-heavy"},
    {"fig4", kFig4, PresetTable::kRuntimes, "fig4_runtime", "", ""},
    {"vm-count", kVmCount, PresetTable::kVmCount, "vm_count", "num_vms",
     "1,2,4"}};

/// Fig. 4's table: mean seconds per solve of the five paper solutions, to
/// six digits, under the header scripts/plot_results.py labels lines with.
util::Table runtime_table(const core::ExperimentResult& r) {
  util::Table table({"util", "Heur(flat)", "Heur(ovf-free)", "Heur(existing)",
                     "Evenly-part", "Baseline"});
  table.set_precision(6);
  for (const auto& pt : r.points) {
    const auto& s = pt.per_solution;
    table.add_row(pt.target_util, s[0].avg_seconds(), s[1].avg_seconds(),
                  s[2].avg_seconds(), s[3].avg_seconds(), s[4].avg_seconds());
  }
  return table;
}

/// The VM-count table: the flat and ovf fractions of its three sweeps
/// (1, 2 and 4 VMs) side by side, one row per utilization.
util::Table vm_count_table(const std::vector<core::ExperimentResult>& r) {
  util::Table table({"util", "flat 1VM", "flat 2VM", "flat 4VM", "ovf 1VM",
                     "ovf 2VM", "ovf 4VM"});
  for (std::size_t pi = 0; pi < r[0].points.size(); ++pi) {
    const auto f = [&](std::size_t sweep, std::size_t solution) {
      return r[sweep].points[pi].per_solution[solution].fraction();
    };
    table.add_row(r[0].points[pi].target_util, f(0, 0), f(1, 0), f(2, 0),
                  f(0, 1), f(1, 1), f(2, 1));
  }
  return table;
}

/// The vc2m-bench-report/1 of an experiment (--json): the last sweep's
/// arguments as config, and effort counters, per-solve seconds and pool
/// telemetry over every sweep, with the merged phase profile.
obs::BenchReport experiment_report(
    const char* name, const std::vector<core::ExperimentResult>& results,
    const util::AllocCounters& counters) {
  const auto& cfg = results.back().cfg;
  obs::BenchReport r;
  r.name = name;
  r.git_rev = obs::build_git_rev();
  r.config["platform"] = cfg.platform.name;
  r.config["tasksets"] = std::to_string(cfg.tasksets_per_point);
  r.config["util_lo"] = std::to_string(cfg.util_lo);
  r.config["util_hi"] = std::to_string(cfg.util_hi);
  r.config["step"] = std::to_string(cfg.util_step);
  r.config["seed"] = std::to_string(cfg.seed);
  r.config["jobs"] = std::to_string(cfg.jobs);
  r.config["inner_jobs"] = std::to_string(cfg.solve.inner_jobs);
  std::string solutions;
  for (const auto& s : cfg.solutions)
    solutions += (solutions.empty() ? "" : ",") + s;
  r.config["solutions"] = solutions;
  obs::set_counters(r, counters);
  r.phases = obs::merged_profile();
  util::LogHistogram solve_seconds = results.front().solve_seconds;
  for (std::size_t i = 1; i < results.size(); ++i)
    solve_seconds.merge(results[i].solve_seconds);
  r.histograms["solve_seconds"] = obs::HistogramSummary::of(solve_seconds);
  for (const auto& result : results) {
    const auto pool = obs::PoolSummary::of(result.pool);
    r.pool.workers.resize(std::max(r.pool.workers.size(), pool.workers.size()));
    for (std::size_t i = 0; i < pool.workers.size(); ++i) {
      auto& w = r.pool.workers[i];
      w.executed += pool.workers[i].executed;
      w.steals += pool.workers[i].steals;
      w.idle_sec += pool.workers[i].idle_sec;
      w.max_queue = std::max(w.max_queue, pool.workers[i].max_queue);
    }
  }
  return r;
}

int cmd_experiment(const Args& a) {
  const auto given = [&](std::string_view flag) {
    return std::ranges::find(a.flags, flag) != a.flags.end();
  };
  const Preset* preset = nullptr;
  if (given("--preset")) {
    preset = util::find_row(kPresets, a.preset);
    if (!preset) bad_value("--preset", a.preset, "fig2|fig3|fig4|vm-count");
    for (const char* flag : {"--platform", "--dist", "--vms", "--util-lo",
                             "--util-hi", "--solutions", "--faults"})
      if (given(flag)) does_not_apply("experiment", flag, "with --preset");
  } else if (given("--csv-dir")) {
    does_not_apply("experiment", "--csv-dir", "without --preset");
  }
  if (a.faults.empty())
    for (const char* flag : {"--policy", "--fault-horizon"})
      if (given(flag)) does_not_apply("experiment", flag, "without --faults");
  const int tasksets = preset && !given("--tasksets") ? 50 : a.tasksets;
  const double step = preset && !given("--step") ? 0.05 : a.step;
  if (tasksets < 1)
    bad_value("--tasksets", std::to_string(tasksets), "must be >= 1");
  if (!(step > 0)) bad_value("--step", std::to_string(step), "must be > 0");
  if (a.jobs < 0)
    throw util::Error("--jobs must be >= 0 (0 = hardware concurrency)");
  if (a.inner_jobs.value_or(1) < 0)
    throw util::Error("--inner-jobs must be >= 0 (0 = hardware concurrency)");
  if (!a.pool_trace.empty())
    util::ensure_output_path_writable(a.pool_trace, "pool trace");
  if (!a.json_out.empty())
    util::ensure_output_path_writable(a.json_out, "bench report");
  if (a.profile || !a.json_out.empty())
    util::PhaseProfiler::set_enabled(true);
  if (preset) std::filesystem::create_directories(a.csv_dir);
  const Sweep from_flags{a.platform.c_str(), a.dist.c_str(), a.vms,
                         a.util_lo, 1, a.solutions.c_str(), ""};
  const auto sweeps =
      preset ? preset->sweeps : std::span<const Sweep>(&from_flags, 1);
  const auto table = preset ? preset->table : PresetTable::kFractions;
  if (!a.faults.empty()) {
    if (a.fault_horizon <= 0)
      throw util::Error("--fault-horizon must be >= 1");
    std::cout << "Fault validation: " << a.faults << ", policy " << a.policy
              << ", " << a.fault_horizon
              << " hyperperiod(s) — '+f' columns show the fraction still "
                 "schedulable under faults\n";
  }

  util::AllocCounterScope effort;  // summed over every sweep
  std::vector<core::ExperimentResult> results;
  for (const Sweep& sweep : sweeps) {
    core::ExperimentConfig cfg;
    cfg.platform = platform_of(sweep.platform);
    cfg.dist = dist_of(sweep.dist);
    cfg.util_lo = sweep.util_lo;
    cfg.util_hi = a.util_hi;
    cfg.util_step = step * sweep.step_factor;
    cfg.tasksets_per_point = tasksets;
    cfg.num_vms = sweep.vms;
    cfg.seed = a.seed;
    cfg.jobs = a.jobs;
    cfg.solve.inner_jobs = a.inner_jobs.value_or(1);
    if (*sweep.solutions) cfg.solutions = solutions_of(sweep.solutions);
    if (!a.faults.empty())
      cfg.validate = obs::make_fault_validator(
          cfg.platform, sim::parse_fault_spec(a.faults),
          enforcement_of(a.policy), a.fault_horizon);

    std::cout << (results.empty() ? "" : "\n") << "Schedulability sweep on "
              << cfg.platform.name
              << ", dist " << to_string(cfg.dist) << ", " << cfg.num_vms
              << " VM(s), util " << cfg.util_lo << ".." << cfg.util_hi
              << " step " << cfg.util_step << ", " << cfg.tasksets_per_point
              << " tasksets/point, seed " << cfg.seed << ", jobs "
              << (cfg.jobs == 0 ? util::ThreadPool::hardware_workers()
                                : static_cast<unsigned>(cfg.jobs))
              << "\n";
    const auto& result =
        results.emplace_back(core::run_schedulability_experiment(
            cfg, [](int done, int total) {
              std::cerr << "\r" << done << "/" << total
                        << (done == total ? "\n" : "") << std::flush;
            }));

    result.to_table().print(std::cout, "fraction of schedulable tasksets");
    util::Table summary({"solution", "breakdown util"});
    summary.set_precision(2);
    for (std::size_t si = 0; si < cfg.solutions.size(); ++si)
      summary.add_row(strategy_of(cfg.solutions[si]).display,
                      result.breakdown_utilization(si));
    std::cout << '\n';
    summary.print(std::cout);
    if (a.profile) print_pool(result.pool);
    if (*sweep.csv) {
      const auto t = table == PresetTable::kRuntimes ? runtime_table(result)
                     : table == PresetTable::kVmCount ? vm_count_table(results)
                                                      : result.to_table();
      if (table != PresetTable::kFractions) {
        std::cout << '\n';
        t.print(std::cout, sweep.csv);
      }
      t.write_csv(a.csv_dir + "/" + sweep.csv);
    }
  }
  if (table == PresetTable::kRuntimes) {
    std::cout << '\n';
    obs::write_alloc_effort(std::cout, effort.counters());
  }
  if (preset) std::cout << "\nCSV series written to " << a.csv_dir << "/\n";

  if (a.profile) print_profile();
  if (!a.pool_trace.empty()) {
    obs::TraceMeta meta;
    obs::CounterTrack executed{"pool/executed", {}};
    obs::CounterTrack steals{"pool/steals", {}};
    obs::CounterTrack pending{"pool/pending", {}};
    for (const auto& s : results.back().pool_samples) {
      executed.samples.emplace_back(s.at, static_cast<double>(s.executed));
      steals.samples.emplace_back(s.at, static_cast<double>(s.steals));
      pending.samples.emplace_back(s.at, static_cast<double>(s.pending));
    }
    meta.counters = {std::move(executed), std::move(steals),
                     std::move(pending)};
    obs::write_trace_file(a.pool_trace, {}, meta);
    std::cout << "Wrote " << results.back().pool_samples.size()
              << " pool telemetry samples to " << a.pool_trace << "\n";
  }
  if (!a.json_out.empty()) {
    auto report = experiment_report(preset ? preset->report : "experiment",
                                    results, effort.counters());
    if (preset && *preset->extra_key)
      report.config[preset->extra_key] = preset->extra_value;
    if (!preset) {
      report.config["dist"] = a.dist;
      report.config["vms"] = std::to_string(a.vms);
    }
    if (!a.faults.empty()) {
      report.config["faults"] = a.faults;
      report.config["policy"] = a.policy;
      report.config["fault_horizon"] = std::to_string(a.fault_horizon);
    }
    obs::json::write_file(a.json_out, report, "bench report");
    std::cout << "Wrote bench report " << a.json_out << "\n";
  }
  return 0;
}

int cmd_perfdiff(const Args& a) {
  if (a.positional.size() != 2) {
    std::cerr << "perfdiff wants exactly two report files "
                 "(base.json current.json)\n";
    usage(2);
  }
  auto base_file = util::open_input_file(a.positional[0], "bench report");
  auto current_file = util::open_input_file(a.positional[1], "bench report");
  const auto base = obs::read_bench_report(base_file);
  const auto current = obs::read_bench_report(current_file);
  // Reports of different configurations measured different work: a
  // "regression" between them would be a comparison of unlike things.
  if (const auto unlike = obs::unlike_config(base, current); !unlike.empty()) {
    std::cerr << "perfdiff: the reports' configs differ:\n";
    for (const auto& line : unlike) std::cerr << "  " << line << "\n";
    if (!a.force) {
      std::cerr << "refusing to compare unlike reports (--force compares "
                   "them anyway)\n";
      return 2;
    }
  }
  obs::PerfDiffOptions opt;
  if (!a.max_regress.empty()) opt.max_regress = regress_of(a.max_regress);
  if (!a.min_abs_sec.empty()) {
    // The floor (10 ms by default) lets wall-clock gates ignore
    // micro-phases whose run-to-run jitter exceeds any sane relative
    // threshold.
    opt.min_abs_sec = number_flag<double>("--min-abs-sec", a.min_abs_sec);
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

  if (a.profile) util::PhaseProfiler::set_enabled(true);
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
    obs::json::write_file(a.json_out, r, "serve report");
    // Round-trip through the strict reader so a report we cannot re-read
    // never lands on disk unnoticed; fields a newer writer added are
    // surfaced, not fatal.
    std::vector<std::string> notes;
    auto back = util::open_input_file(a.json_out, "serve report");
    (void)service::read_serve_report(back, a.json_out, &notes);
    for (const auto& n : notes) std::cerr << "note: " << n << "\n";
    std::cout << "wrote " << a.json_out << "\n";
  }
  if (a.profile) print_profile();
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

/// The paths after a scenario verb.
std::vector<std::string> verb_operands(const Args& a) {
  return {a.positional.begin() + 1, a.positional.end()};
}

int cmd_scenario_run(const Args& a) {
  const auto paths = verb_operands(a);
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
                  util::enum_name(scenario::kVerdictNames, r.schedulable),
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
    obs::json::write_file(a.json_out, result.report, "scenario report");
    // Round-trip through the strict reader: a report we cannot re-read
    // must never land on disk unnoticed; fields a newer writer added are
    // surfaced, not fatal.
    std::vector<std::string> notes;
    auto back = util::open_input_file(a.json_out, "scenario report");
    (void)scenario::read_scenario_report(back, a.json_out, &notes);
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

int cmd_scenario_show(const Args& a) {
  const auto paths = verb_operands(a);
  if (paths.size() != 1) usage(2);
  const auto sc = scenario::load_scenario_file(paths.front());
  const auto r = scenario::run_scenario(sc);
  std::cout << "scenario: " << r.name << "\n"
            << "verdict:  "
            << util::enum_name(scenario::kVerdictNames, r.schedulable) << "\n"
            << "digest:   " << r.digest << "\n";
  const obs::AuditRecord& m = r.metrics;
  if (r.simulated)
    std::cout << "simulate: " << m.jobs_released << " released, "
              << m.deadline_misses << " misses, " << m.faults_injected
              << " faults, " << m.trace_violations
              << " trace violation(s) over " << m.trace_events
              << " events\n";
  for (const auto& c : r.rejection_constraints)
    std::cout << "rejected: " << c << "\n";
  std::cout << (r.passed ? "expectations: pass"
                         : "expectations: FAIL") << "\n";
  for (const auto& f : r.failures) std::cout << "  " << f << "\n";
  // Paste-ready pinning block for scenario authors.
  std::cout << "\n\"expect\": {\n  \"verdict\": \""
            << util::enum_name(scenario::kVerdictNames, r.schedulable)
            << "\",\n"
            << "  \"digest\": \"" << r.digest << "\"";
  if (r.simulated)
    std::cout << ",\n  \"trace_clean\": "
              << (m.trace_violations == 0 ? "true" : "false");
  std::cout << "\n}\n";
  return 0;
}

int cmd_scenario_merge(const Args& a) {
  const auto paths = verb_operands(a);
  if (paths.size() < 2 || a.json_out.empty()) {
    std::cerr << "scenario merge wants two or more shard reports and "
                 "--json OUT\n";
    usage(2);
  }
  std::vector<scenario::ScenarioReport> shards;
  std::vector<std::string> notes;
  for (const auto& p : paths) {
    auto f = util::open_input_file(p, "scenario report");
    shards.push_back(scenario::read_scenario_report(f, p, &notes));
  }
  for (const auto& n : notes) std::cerr << "note: " << n << "\n";
  const auto merged = scenario::merge_scenario_reports(shards);
  obs::json::write_file(a.json_out, merged, "scenario report");
  std::cout << "merged " << shards.size() << " shard report(s): "
            << merged.passed() << "/" << merged.records.size()
            << " passed -> " << a.json_out << "\n";
  return 0;
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
      for (const auto& ms : s.samples) {
        std::cout << path << ',' << ms.index << ',' << ms.served << ','
                  << ms.vt_ns << ',' << ms.queue_depth << ','
                  << ms.retry_depth << ',' << ms.est_ns_per_task;
        service::sample_counters(ms, [](const char*, std::uint64_t n) {
          std::cout << ',' << n;
        });
        std::cout << ',' << ms.lat_admitted.count() << ','
                  << ms.lat_rejected.count() << ','
                  << ms.lat_deferred.count() << ',' << ms.lat_shed.count()
                  << '\n';
      }
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
              << last.retry_depth << " admitted=" << last.stats.admitted
              << " rejected=" << last.stats.rejected
              << " shed=" << last.stats.shed
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

/// Check one file. Scenario files are only collected: they are loaded
/// together so names can be checked across files. Returns what the file
/// is; throws util::Error, or appends to `problems`, when it fails.
std::string validate_file(const std::string& path,
                          std::vector<std::string>& scenario_files,
                          std::vector<std::string>& problems) {
  std::ostringstream buf;
  buf << util::open_input_file(path, "artifact").rdbuf();
  const std::string text = buf.str();
  if (text.starts_with(service::kSpanDumpSchema))
    return std::string(service::kSpanDumpSchema) + ", " +
           std::to_string(service::read_span_dump(path).size()) + " span(s)";
  const auto first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos || text[first] != '{') {
    const auto scan = service::scan_timeline(path);
    if (!scan.header_ok)
      throw util::Error("neither JSON nor a " +
                        std::string(service::kTimelineSchema) + " file");
    problems.insert(problems.end(), scan.warnings.begin(),
                    scan.warnings.end());
    if (scan.torn)
      problems.push_back("torn tail past " +
                         std::to_string(scan.valid_bytes) + " valid byte(s)");
    service::check_timeline(scan);
    return std::string(service::kTimelineSchema) + ", " +
           std::to_string(scan.samples.size()) + " sample(s)";
  }
  const obs::json::Value root = obs::json::parse(text, path);
  const obs::json::Value* member = root.find("schema");
  const std::string schema = member ? member->str : "";
  if (schema == scenario::kScenarioSchema) {
    scenario_files.push_back(path);
    return schema;
  }
  std::istringstream is(text);
  if (schema == scenario::kReportSchema)
    scenario::read_scenario_report(is, "scenario report", &problems);
  else if (schema == service::kServeReportSchema)
    service::read_serve_report(is, "serve report", &problems);
  else if (schema == obs::kExplainReportSchema)
    obs::read_explain_report(is, &problems);
  else if (schema == obs::kBenchReportSchema)
    obs::read_bench_report(is, &problems);
  else
    throw util::Error("unknown schema '" + schema + "'");
  return schema;
}

int cmd_validate(const Args& a) {
  if (a.positional.empty()) usage(2);
  bool ok = true;
  std::vector<std::string> scenario_files;
  for (const auto& path : a.positional) {
    std::vector<std::string> problems;
    std::string what;
    try {
      std::error_code ec;
      if (std::filesystem::is_directory(path, ec)) {
        const auto files = scenario::discover_scenario_files(path);
        scenario_files.insert(scenario_files.end(), files.begin(),
                              files.end());
        continue;
      }
      what = validate_file(path, scenario_files, problems);
    } catch (const util::Error& e) {
      problems.push_back(e.what());
    }
    for (const auto& p : problems) std::cerr << path << ": " << p << "\n";
    if (!problems.empty()) {
      ok = false;
    } else if (what != scenario::kScenarioSchema) {
      std::cout << path << ": OK (" << what << ")\n";
    }
  }
  if (!scenario_files.empty()) {
    try {
      scenario::load_corpus(scenario_files);
      std::cout << scenario_files.size() << " scenario file(s): OK\n";
    } catch (const util::Error& e) {
      std::cerr << "error: " << e.what() << "\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

/// Every subcommand: its operands (positionals and required flags, as
/// usage() shows them), the optional flags it reads (any flag in neither
/// exits 2), and its entry point. Scenario verbs are "scenario <verb>".
struct Command {
  const char* name;
  const char* operands;
  const char* flags;  ///< space-separated
  int (*run)(const Args&);
};
constexpr Command kCommands[] = {
    {"profiles", "", "", cmd_profiles},
    {"solutions", "", "", cmd_solutions},
    {"generate", "--util U", "--dist --vms --seed --platform", cmd_generate},
    {"solve", "--file tasks.csv", "--platform --solution --seed", cmd_solve},
    {"explain", "[tasks.csv]",
     "--file --platform --solution --seed --json --events --inner-jobs",
     cmd_explain},
    {"simulate", "--file tasks.csv",
     "--platform --solution --seed --trace --report --profile --faults "
     "--policy",
     cmd_simulate},
    {"check", "--trace out.json|out.csv", "", cmd_check},
    {"perfdiff", "base.json current.json",
     "--max-regress --min-abs-sec --force", cmd_perfdiff},
    {"serve", "--trace SPEC",
     "--platform --seed --journal --recover --snapshot-every --deadline-us "
     "--shed-policy --queue-cap --max-retries --backoff-us --crash-at --json "
     "--timeline --sample-every --stats-every --span-ring --span-trace "
     "--inner-jobs --profile",
     cmd_serve},
    {"timeline", "FILE...", "--diff --csv", cmd_timeline},
    {"scenario run", "PATH...", "--jobs --shard --resume --json --checkpoint",
     cmd_scenario_run},
    {"scenario show", "FILE", "", cmd_scenario_show},
    {"scenario merge", "shard.json... --json merged.json", "",
     cmd_scenario_merge},
    {"validate", "PATH...", "", cmd_validate},
    {"experiment", "",
     "--platform --dist --vms --seed --tasksets --step --util-lo --util-hi "
     "--jobs --inner-jobs --solutions --faults --policy --fault-horizon "
     "--profile --pool-trace --json --preset --csv-dir",
     cmd_experiment},
};

/// Every flag a command names, in its operands or its flags, is in kFlags,
/// and every flag in kFlags is named by some command.
consteval bool commands_list_known_flags() {
  bool listed[std::size(kFlags)] = {};
  for (const Command& c : kCommands)
    for (const char* text : {c.operands, c.flags})
      for (const std::string_view word : util::split(text, ' ')) {
        if (!word.starts_with("--")) continue;
        const Flag* flag = util::find_row(kFlags, word);
        if (!flag) return false;
        listed[flag - kFlags] = true;
      }
  return std::ranges::all_of(listed, [](bool b) { return b; });
}
static_assert(commands_list_known_flags(),
              "kCommands and kFlags disagree on a flag name");

[[noreturn]] void usage(int code) {
  // Each command's operands, then "[--flag METAVAR]" per optional flag,
  // wrapped at 79 columns under its first operand.
  std::string text;
  for (const Command& c : kCommands) {
    std::string line = (text.empty() ? "usage: vc2m " : "       vc2m ") +
                       std::string(c.name);
    const std::string indent(line.size(), ' ');
    const auto add = [&](const std::string& word) {
      if (line.size() + 1 + word.size() > 79 && line != indent) {
        text += line + '\n';
        line = indent;
      }
      line += ' ' + word;
    };
    if (*c.operands) add(c.operands);
    for (const std::string_view name : util::split(c.flags, ' '))
      if (const Flag* flag = util::find_row(kFlags, name))
        add("[" + std::string(name) + (*flag->metavar ? " " : "") +
            flag->metavar + "]");
    text += line + '\n';
  }
  (code == 0 ? std::cout : std::cerr) << text;
  std::exit(code);
}

/// The command `a` names, with every flag given checked against it.
const Command& command_of(const Args& a) {
  std::string name = a.command;
  if (name == "scenario") {
    if (a.positional.empty()) usage(2);
    name += " " + a.positional.front();
  }
  const Command* cmd = util::find_row(kCommands, name);
  if (!cmd) {
    std::cerr << "unknown command '" << name << "'\n";
    usage(2);
  }
  const std::string known =
      " " + std::string(cmd->operands) + " " + cmd->flags + " ";
  for (const auto& flag : a.flags)
    if (known.find(" " + flag + " ") == std::string::npos)
      does_not_apply(name, flag);
  return *cmd;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    return command_of(a).run(a);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// Shared helpers for the table/figure bench binaries.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "core/experiment.h"
#include "obs/bench_report.h"
#include "util/parse.h"
#include "util/phase_profiler.h"

namespace vc2m::bench {

/// Strict numeric parsing for bench flags (util/parse.h): the whole token
/// must be one in-range number of the flag's type, or the bench exits 2.
template <class T>
T flag_value(const char* flag, const char* s, std::optional<T> v,
             const char* want) {
  if (!v) {
    std::cerr << "bad value for " << flag << ": '" << s << "' (want " << want
              << ")\n";
    std::exit(2);
  }
  return *v;
}

/// Command-line options shared by the schedulability benches. The defaults
/// reproduce the paper's setup exactly (50 tasksets per utilization point,
/// utilization 0.1..2.0 step 0.05); --quick trades fidelity for speed when
/// smoke-testing. --json additionally enables the phase profiler and makes
/// the bench emit a machine-readable BenchReport at the given path.
struct Options {
  int tasksets = 50;
  double step = 0.05;
  std::uint64_t seed = 42;
  int jobs = 0;  ///< sweep worker threads; 0 = hardware concurrency
  /// Intra-solve stripes for the min-budget surface batches (1 = serial,
  /// 0 = hardware); results are bit-identical at any value.
  int inner_jobs = 1;
  std::string csv_dir = "bench_results";
  std::string json;  ///< empty = no JSON report

  static Options parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&](const char* what) -> const char* {
        if (i + 1 >= argc) {
          std::cerr << "missing value for " << what << "\n";
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--tasksets") {
        const char* v = next("--tasksets");
        opt.tasksets = flag_value(arg.c_str(), v, util::try_int<int>(v, 1),
                                  "an integer >= 1");
      } else if (arg == "--step") {
        const char* v = next("--step");
        opt.step =
            flag_value(arg.c_str(), v, util::try_double(v), "a number");
        if (opt.step <= 0) {
          std::cerr << "--step must be > 0\n";
          std::exit(2);
        }
      } else if (arg == "--seed") {
        const char* v = next("--seed");
        opt.seed = flag_value(arg.c_str(), v, util::try_u64(v),
                              "a non-negative integer");
      } else if (arg == "--jobs") {
        const char* v = next("--jobs");
        opt.jobs = flag_value(arg.c_str(), v, util::try_int<int>(v, 0),
                              "an integer >= 0, 0 = hardware concurrency");
      } else if (arg == "--inner-jobs") {
        const char* v = next("--inner-jobs");
        opt.inner_jobs =
            flag_value(arg.c_str(), v, util::try_int<int>(v, 0),
                       "an integer >= 0, 0 = hardware concurrency");
      } else if (arg == "--csv-dir") {
        opt.csv_dir = next("--csv-dir");
      } else if (arg == "--json") {
        opt.json = next("--json");
      } else if (arg == "--quick") {
        opt.tasksets = 10;
        opt.step = 0.1;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "options: --tasksets N  --step S  --seed S  --jobs N  "
                     "--inner-jobs N  --csv-dir DIR  --json PATH  --quick\n";
        std::exit(0);
      } else {
        std::cerr << "unknown option " << arg << "\n";
        std::exit(2);
      }
    }
    if (!opt.json.empty()) util::PhaseProfiler::set_enabled(true);
    return opt;
  }

  /// Ensure the CSV directory exists; returns the path for `name`.
  std::string csv_path(const std::string& name) const {
    std::error_code ec;
    std::filesystem::create_directories(csv_dir, ec);
    return csv_dir + "/" + name;
  }
};

/// Progress meter on stderr (the tables go to stdout).
inline void progress(const std::string& label, int done, int total) {
  std::cerr << "\r[" << label << "] " << done << "/" << total
            << (done == total ? "\n" : "") << std::flush;
}

/// Build the standard BenchReport for one experiment sweep: options +
/// experiment config, effort counters, merged phase profile, per-solve
/// seconds histogram and pool telemetry.
inline obs::BenchReport experiment_report(
    const std::string& name, const Options& opt,
    const core::ExperimentConfig& cfg, const core::ExperimentResult& result,
    const util::AllocCounters& counters) {
  obs::BenchReport r;
  r.name = name;
  r.git_rev = obs::build_git_rev();
  r.config["platform"] = cfg.platform.name;
  r.config["tasksets"] = std::to_string(cfg.tasksets_per_point);
  r.config["util_lo"] = std::to_string(cfg.util_lo);
  r.config["util_hi"] = std::to_string(cfg.util_hi);
  r.config["step"] = std::to_string(cfg.util_step);
  r.config["seed"] = std::to_string(opt.seed);
  r.config["jobs"] = std::to_string(cfg.jobs);
  r.config["inner_jobs"] = std::to_string(cfg.solve.inner_jobs);
  std::string solutions;
  for (const auto& s : cfg.solutions)
    solutions += (solutions.empty() ? "" : ",") + s;
  r.config["solutions"] = solutions;
  obs::set_counters(r, counters);
  r.phases = obs::merged_profile();
  r.histograms["solve_seconds"] =
      obs::HistogramSummary::of(result.solve_seconds);
  r.pool = obs::PoolSummary::of(result.pool);
  return r;
}

/// Write the report when --json was given; announces the path on stderr.
inline void maybe_write_report(const Options& opt, const obs::BenchReport& r) {
  if (opt.json.empty()) return;
  obs::write_bench_report_file(opt.json, r);
  std::cerr << "bench report: " << opt.json << "\n";
}

}  // namespace vc2m::bench

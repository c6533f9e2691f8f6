// perfbench_runner: one workload, one process, one JSON result line.
//
//   perfbench_runner --workload W --seed N --seconds S --trace 0|1
//                    [--smoke] [--out DIR] [--source-digest HEX]
//
// Runs workload W (sweep-fig4, serve-saturated, serve-churn, des-certify)
// for about S seconds on inputs generated from seed N, checks every output,
// writes a details file (host/build stamp, parameters, digests, exact
// counters, span totals) under DIR, and prints as its last stdout line
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). perfbench/README.md describes the workloads.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "obs/bench_report.h"
#include "obs/json.h"

namespace perfbench {

std::string fnv_hex(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

namespace {
volatile double g_calibration_sink = 0;  // keeps the kernel's work alive
}  // namespace

double calibration_rep_us() {
  static const std::vector<double> input = [] {
    std::vector<double> v(8192);
    std::uint64_t x = 88172645463325252ull;
    for (auto& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x >> 11);
    }
    return v;
  }();
  const auto t0 = Clock::now();
  std::vector<double> v = input;
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 2048; ++i)
    m[(i * 0x9E3779B97F4A7C15ull) >> 20] += i;
  g_calibration_sink = v[123] + static_cast<double>(m.size());
  return 1e6 * seconds_since(t0);
}

std::vector<std::pair<std::string, std::uint64_t>> exact_counters(
    const vc2m::util::AllocCounters& c) {
  return {{"analysis.dbf_evals", c.dbf_evaluations},
          {"analysis.budget_evals", c.budget_evaluations},
          {"core.kmeans.runs", c.kmeans_runs},
          {"core.kmeans.iterations", c.kmeans_iterations},
          {"core.admission_tests", c.admission_tests},
          {"util.arena_bytes", c.arena_bytes}};
}

void LayerMetrics::set_counters(const vc2m::util::AllocCounters& c) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  dbf_evals = d(c.dbf_evaluations);
  budget_evals = d(c.budget_evaluations);
  budget_hit_ratio = ratio(d(c.budget_cache_hits),
                           d(c.budget_cache_hits + c.budget_evaluations));
  kmeans_runs = d(c.kmeans_runs);
  kmeans_iterations = d(c.kmeans_iterations);
  admission_tests = d(c.admission_tests);
  admission_pass_ratio = ratio(d(c.admission_passed), d(c.admission_tests));
  load_hit_ratio = ratio(d(c.load_cache_hits), d(c.admission_tests));
  arena_bytes = d(c.arena_bytes);
}

void LayerMetrics::emit(Result& r) const {
  r.metric("workload.generate.calls", generate_calls, "count");
  r.metric("workload.generate.busy_s", generate_busy_s, "s");
  r.metric("analysis.dbf_evals", dbf_evals, "count");
  r.metric("analysis.budget_evals", budget_evals, "count");
  r.metric("analysis.budget_hit_ratio", budget_hit_ratio, "ratio");
  r.metric("analysis.min_budget.busy_s", min_budget_busy_s, "s");
  r.metric("core.kmeans.runs", kmeans_runs, "count");
  r.metric("core.kmeans.iterations", kmeans_iterations, "count");
  r.metric("core.vm_alloc.busy_s", vm_alloc_busy_s, "s");
  r.metric("core.hv_alloc.busy_s", hv_alloc_busy_s, "s");
  r.metric("core.admission_tests", admission_tests, "count");
  r.metric("core.admission_pass_ratio", admission_pass_ratio, "ratio");
  r.metric("core.load_hit_ratio", load_hit_ratio, "ratio");
  r.metric("core.admit.calls", admit_calls, "count");
  r.metric("core.admit.busy_s", admit_busy_s, "s");
  r.metric("core.admit.accept_ratio", admit_accept_ratio, "ratio");
  r.metric("core.resize.busy_s", resize_busy_s, "s");
  r.metric("core.remove.busy_s", remove_busy_s, "s");
  r.metric("service.commits", commits, "count");
  r.metric("service.journal.appends", journal_appends, "count");
  r.metric("service.journal.busy_s", journal_busy_s, "s");
  r.metric("service.snapshot.busy_s", snapshot_busy_s, "s");
  r.metric("service.loop_self_s", loop_self_s, "s");
  r.metric("sim.deploy.busy_s", deploy_busy_s, "s");
  r.metric("sim.run.busy_s", run_busy_s, "s");
  r.metric("sim.jobs_completed", jobs_completed, "count");
  r.metric("sim.vcpu_switches", vcpu_switches, "count");
  r.metric("sim.trace_events", trace_events, "count");
  r.metric("obs.trace_check.busy_s", trace_check_busy_s, "s");
  r.metric("util.pool.executed", pool_executed, "count");
  r.metric("util.pool.idle_s", pool_idle_s, "s");
  r.metric("util.arena_bytes", arena_bytes, "bytes");
  r.metric("trace.unattributed_s", unattributed_s, "s");
  r.metric("trace.overhead_frac", overhead_frac, "ratio");
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.3f, \"dur\": %.3f",
                  1e-3 * static_cast<double>(s.start_ns),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    os << (i ? ",\n" : "") << "{\"name\": \""
       << vc2m::obs::json::escape(names_[s.name])
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << buf
       << ", \"args\": {\"request\": " << s.request
       << ", \"parent\": " << s.parent << "}}";
  }
  os << "\n]}\n";
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_runner: " << why
            << "\nusage: perfbench_runner --workload "
               "sweep-fig4|serve-saturated|serve-churn|des-certify "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out DIR] "
               "[--source-digest HEX]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long x = 0;
  try {
    x = std::stoull(v, &used, 10);
  } catch (const std::exception&) {
    used = 0;
  }
  if (v.empty() || used != v.size() || v[0] == '-')
    usage(flag + ": bad value '" + v + "'");
  return x;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  return "unknown";
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's pages when it exec'd the runner.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  return 0;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using vc2m::obs::json::escape;

void write_details(const std::string& path, const Options& opt,
                   const std::string& source_digest, const Result& r,
                   bool correct) {
  std::ofstream os(path);
  os << "{\n  \"schema\": \"vc2m-perfbench-run/1\",\n"
     << "  \"workload\": \"" << escape(opt.workload) << "\",\n"
     << "  \"seed\": " << opt.seed << ",\n"
     << "  \"seconds\": " << num(opt.seconds) << ",\n"
     << "  \"trace\": " << (opt.trace ? "true" : "false") << ",\n"
     << "  \"smoke\": " << (opt.smoke ? "true" : "false") << ",\n"
     << "  \"host\": {\"cpu_model\": \"" << escape(cpu_model())
     << "\", \"nproc\": " << std::thread::hardware_concurrency() << "},\n"
     << "  \"build\": {\"compiler\": \"" << escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << escape(PERFBENCH_BUILD_TYPE)
     << "\", \"git_rev\": \"" << escape(vc2m::obs::build_git_rev())
     << "\", \"source_digest\": \"" << escape(source_digest) << "\"},\n"
     << "  \"params\": {";
  for (std::size_t i = 0; i < r.params.size(); ++i)
    os << (i ? ", " : "") << "\"" << escape(r.params[i].first) << "\": \""
       << escape(r.params[i].second) << "\"";
  os << "},\n  \"correct\": " << (correct ? "true" : "false")
     << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": "
     << r.failed << ",\n  \"error_rate\": "
     << num(ratio(static_cast<double>(r.failed),
                  static_cast<double>(r.attempted)))
     << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << "\"" << escape(r.failures[i]) << "\"";
  os << "],\n  \"digest\": \"" << r.digest << "\",\n  \"exact\": {";
  for (std::size_t i = 0; i < r.exact.size(); ++i)
    os << (i ? ", " : "") << "\"" << escape(r.exact[i].first)
       << "\": " << r.exact[i].second;
  os << "},\n  \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    os << (i ? ", " : "") << "\"" << escape(r.metrics[i].name)
       << "\": " << num(r.metrics[i].value);
  os << "},\n  \"workload_metrics\": {";
  for (std::size_t i = 0; i < r.named.size(); ++i)
    os << (i ? ", " : "") << "\"" << escape(r.named[i].name)
       << "\": {\"value\": " << num(r.named[i].value) << ", \"unit\": \""
       << escape(r.named[i].unit) << "\"}";
  os << "},\n  \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const auto& s = r.spans[i];
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \"" << escape(s.name)
       << "\", \"calls\": " << s.calls << ", \"busy_s\": " << num(s.busy_s)
       << ", \"self_s\": " << num(s.self_s) << "}";
  }
  os << "],\n  \"span_file\": \"" << escape(opt.trace ? opt.span_file : "")
     << "\"\n}\n";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string out_dir = ".";
  std::string source_digest = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = parse_u64(a, next());
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(a, next()));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = next();
      if (v != "0" && v != "1") usage("--trace: bad value '" + v + "'");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--out") {
      out_dir = next();
    } else if (a == "--source-digest") {
      source_digest = next();
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (opt.seconds < 1) usage("--seconds must be >= 1");
  if (opt.seed >= kMaxSeed) usage("--seed must be below 2^53");

  Result (*fn)(const Options&) = nullptr;
  if (opt.workload == "sweep-fig4") fn = run_sweep;
  else if (opt.workload == "serve-saturated" || opt.workload == "serve-churn")
    fn = run_serve;
  else if (opt.workload == "des-certify") fn = run_des;
  else usage("unknown workload '" + opt.workload + "'");

  const std::string tag = opt.workload + "-s" + std::to_string(opt.seed) +
                          (opt.smoke ? "-smoke" : "");
  opt.work_dir = out_dir + "/" + tag + ".tmp";
  opt.span_file = out_dir + "/" + tag + ".spans.json";
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::cerr << "perfbench_runner: cannot create " << opt.work_dir << ": "
              << ec.message() << "\n";
    return 1;
  }

  Result r;
  try {
    r = fn(opt);
  } catch (const std::exception& e) {
    // Set-up failed (the measured operations catch their own exceptions
    // and count them as failures): there is nothing to report.
    std::cerr << "perfbench_runner: " << opt.workload << ": " << e.what()
              << "\n";
    return 1;
  }
  if (!opt.trace) r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::filesystem::remove_all(opt.work_dir, ec);

  const bool correct = r.failed == 0 && r.attempted > 0;
  const std::string details = out_dir + "/" + tag + "-trace" +
                              (opt.trace ? "1" : "0") + ".json";
  write_details(details, opt, source_digest, r, correct);

  std::cerr << "perfbench: " << opt.workload << " seed " << opt.seed
            << (correct ? " OK" : " FAILED") << ": " << r.attempted
            << " attempted, " << r.failed << " failed; digest " << r.digest
            << "; details in " << details << "\n";
  for (const auto& f : r.failures) std::cerr << "  failure: " << f << "\n";

  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    line << (i ? ", " : "") << "\"" << r.metrics[i].name
         << "\": {\"value\": " << num(r.metrics[i].value) << ", \"unit\": \""
         << r.metrics[i].unit << "\"}";
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}

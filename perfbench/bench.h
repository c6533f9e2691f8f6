// Shared pieces of the end-to-end benchmark runner: options, the result a
// workload hands back, an in-memory span tracer, and small statistics
// helpers. Each workload lives in its own translation unit (sweep.cpp,
// serve.cpp, des.cpp) and is a plain function from Options to Result.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/instrument.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seeds are below 2^53 so that reports storing them as JSON numbers
/// (vc2m-serve-report/1) read them back exactly.
inline constexpr std::uint64_t kMaxSeed = std::uint64_t{1} << 53;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Tiny input sizes for the benchmark's own tests.
  bool smoke = false;
  /// Scratch directory inside the checkout (journals, snapshots).
  std::string work_dir;
  /// Where a traced run writes its spans (Chrome trace JSON).
  std::string span_file;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one; the rest
/// lands in the run's details file only.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  std::vector<Metric> metrics;
  /// The workload's own names for its end-to-end metrics (solves_per_s,
  /// req_per_s, ...), mirrored from `metrics` for readers of the details.
  std::vector<Metric> named;
  std::vector<std::pair<std::string, std::string>> params;
  /// Counters that must repeat bit for bit for a given seed.
  std::vector<std::pair<std::string, std::uint64_t>> exact;
  std::string digest;  ///< output digest (reported, never gated)
  /// Per-span-name totals of a traced run, for the details file.
  struct SpanTotal {
    std::string name;
    std::uint64_t calls = 0;
    double busy_s = 0;
    double self_s = 0;
  };
  std::vector<SpanTotal> spans;

  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 8) failures.push_back(what);
  }
  void param(std::string key, std::string value) {
    params.emplace_back(std::move(key), std::move(value));
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Spans kept in memory during a traced pass and written out at the end.
/// A span is one call into a layer's public function, timed from the
/// benchmark's own code; `parent` is the enclosing span (-1 at top level)
/// and `request` the unit of work (cell, request, allocation) it served.
class Tracer {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t request = 0;
  };

  Tracer() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

  /// RAII span around one layer call.
  class Scope {
   public:
    Scope(Tracer& t, std::string_view name, std::uint64_t request)
        : t_(t), index_(t.open(name, request)) {}
    ~Scope() { t_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::size_t index_;
  };

  /// Calls, busy time and self time (busy minus the part of the interval
  /// its child spans cover) per span name, in first-use order.
  std::vector<Result::SpanTotal> totals() const {
    std::vector<Result::SpanTotal> out(names_.size());
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& t = out[s.name];
      t.calls += 1;
      t.busy_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      t.self_s += 1e-9 * static_cast<double>(s.end_ns - s.start_ns -
                                             child_ns[i]);
    }
    for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
    return out;
  }

  /// Wall time covered by top-level spans.
  double top_level_s() const {
    std::int64_t ns = 0;
    for (const Span& s : spans_)
      if (s.parent < 0) ns += s.end_ns - s.start_ns;
    return 1e-9 * static_cast<double>(ns);
  }

  /// Chrome trace_event JSON (one complete event per span; opens in
  /// ui.perfetto.dev). Parents are implied by nesting on the one thread.
  void write_chrome_trace(const std::string& path) const;

 private:
  std::size_t open(std::string_view name, std::uint64_t request) {
    std::uint32_t id = 0;
    while (id < names_.size() && names_[id] != name) ++id;
    if (id == names_.size()) names_.emplace_back(name);
    Span s;
    s.name = id;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ns = now_ns();
    stack_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back(s);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::int32_t> stack_;
};

/// Exact quantile of `v` by linear interpolation between order statistics
/// (the q-th quantile of the sorted samples); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One repetition of the host-speed calibration kernel (a fixed sort and
/// hash-map workload owned by the benchmark, not the program under test),
/// in microseconds.
double calibration_rep_us();

/// Calibration kernel time, in microseconds, on the host the bounds in
/// BENCHMARK.json were set on: the reference of the host-speed factor.
inline constexpr double kReferenceCalibrationUs = 700;

/// Per-operation samples bucketed into one-second windows of the measured
/// loop. Rates and quantiles are taken per window and the median across
/// windows is reported, so a burst of interference from the rest of the
/// host spoils a few windows rather than the whole estimate. Windows with
/// fewer than kMinSamples operations are ignored; if none qualifies (tiny
/// smoke runs) all samples form one window.
///
/// Shared hosts also drift in speed over minutes, which no window can
/// average away. tick() therefore times the calibration kernel between
/// operations, and every window's rate and latencies are scaled by its
/// host-speed factor (calibration time / kReferenceCalibrationUs): the
/// numbers read as if measured at the reference host's speed. A change to
/// the program moves them; a change in the host's speed, mostly, does not.
class Windowed {
 public:
  static constexpr std::size_t kMinSamples = 100;
  static constexpr double kCalibrateEvery_s = 0.2;

  explicit Windowed(Clock::time_point start) : start_(start) {}

  /// One operation: its wall time (us), the work it completed (ops, jobs)
  /// and the busy seconds to charge to the window.
  void add(double op_us, double work, double busy_s) {
    put(seconds_since(start_), op_us, work, busy_s);
  }
  /// Busy time spent on the window's work outside any sampled operation.
  void charge(double busy_s) { put(seconds_since(start_), -1, 0, busy_s); }
  /// Call between operations: samples the host's speed at most every
  /// kCalibrateEvery_s.
  /// A window without samples of its own uses the latest earlier window's.
  void tick() {
    if (calibrated_ && seconds_since(last_cal_) < kCalibrateEvery_s) return;
    auto& cal = window_at(seconds_since(start_)).cal_us;
    for (int i = 0; i < 2; ++i) {
      const double us = calibration_rep_us();
      cal.push_back(us);
      all_cal_us_.push_back(us);
    }
    last_cal_ = Clock::now();
    calibrated_ = true;
  }

  /// Host-speed factor of the whole run (1 = the reference host's speed;
  /// 1.2 = this run's host was 20% slower).
  double host_factor() const {
    return all_cal_us_.empty() ? 1
                               : median(all_cal_us_) / kReferenceCalibrationUs;
  }
  /// Work per busy second, at the reference host's speed.
  double rate() const {
    std::vector<double> v;
    for (const auto& [w, f] : qualified())
      v.push_back(ratio(w.work, w.busy_s) * f);
    return median(v);
  }
  /// Latency quantile (us), at the reference host's speed.
  double quantile_us(double q) const {
    std::vector<double> v;
    for (const auto& [w, f] : qualified()) v.push_back(quantile(w.op_us, q) / f);
    return median(v);
  }
  std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& w : windows_) n += w.op_us.size();
    return n;
  }

 private:
  struct Window {
    std::vector<double> op_us;
    std::vector<double> cal_us;
    double work = 0, busy_s = 0;
  };
  Window& window_at(double at_s) {
    const auto w = static_cast<std::size_t>(std::max(0.0, at_s));
    if (w >= windows_.size()) windows_.resize(w + 1);
    return windows_[w];
  }
  void put(double at_s, double op_us, double work, double busy_s) {
    auto& win = window_at(at_s);
    if (op_us >= 0) win.op_us.push_back(op_us);
    win.work += work;
    win.busy_s += busy_s;
  }
  /// Windows with enough operations, each with its host-speed factor.
  std::vector<std::pair<Window, double>> qualified() const {
    std::vector<std::pair<Window, double>> out;
    Window all;
    double f = host_factor();
    for (const auto& w : windows_) {
      if (!w.cal_us.empty()) f = median(w.cal_us) / kReferenceCalibrationUs;
      if (w.op_us.size() >= kMinSamples) out.emplace_back(w, f);
      all.op_us.insert(all.op_us.end(), w.op_us.begin(), w.op_us.end());
      all.work += w.work;
      all.busy_s += w.busy_s;
    }
    if (out.empty()) out.emplace_back(std::move(all), host_factor());
    return out;
  }

  Clock::time_point start_;
  Clock::time_point last_cal_;
  bool calibrated_ = false;
  std::vector<Window> windows_;
  std::vector<double> all_cal_us_;
};

/// FNV-1a 64 over a byte string, as 16 hex digits.
std::string fnv_hex(std::string_view bytes);

/// Set-up is repeated this many times per run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Fill the per-layer metric list every traced run reports, in the order
/// BENCHMARK.json lists them. Layers a workload does not exercise read 0.
struct LayerMetrics {
  double generate_calls = 0, generate_busy_s = 0;
  double dbf_evals = 0, budget_evals = 0, budget_hit_ratio = 0,
         min_budget_busy_s = 0;
  double kmeans_runs = 0, kmeans_iterations = 0, vm_alloc_busy_s = 0,
         hv_alloc_busy_s = 0;
  double admission_tests = 0, admission_pass_ratio = 0, load_hit_ratio = 0;
  double admit_calls = 0, admit_busy_s = 0, admit_accept_ratio = 0,
         resize_busy_s = 0, remove_busy_s = 0;
  double commits = 0, journal_appends = 0, journal_busy_s = 0,
         snapshot_busy_s = 0, loop_self_s = 0;
  double deploy_busy_s = 0, run_busy_s = 0, jobs_completed = 0,
         vcpu_switches = 0, trace_events = 0, trace_check_busy_s = 0;
  double pool_executed = 0, pool_idle_s = 0, arena_bytes = 0;
  double unattributed_s = 0, overhead_frac = 0;

  /// The analysis, core and arena entries, from the effort counters of
  /// the traced pass.
  void set_counters(const vc2m::util::AllocCounters& c);
  void emit(Result& r) const;
};

/// The effort counters that repeat bit for bit for a given input.
std::vector<std::pair<std::string, std::uint64_t>> exact_counters(
    const vc2m::util::AllocCounters& c);

Result run_sweep(const Options& opt);
Result run_serve(const Options& opt);
Result run_des(const Options& opt);

}  // namespace perfbench

#include "obs/bench_report.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <ostream>

#include "obs/json.h"
#include "util/error.h"

namespace vc2m::obs {

namespace {

/// Counters where growth means the run did *better* (more reuse, more
/// admissions) or that measure solution quality rather than effort — the
/// diff gate must not flag them as regressions.
bool counter_exempt(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::string suf(suffix);
    return name.size() >= suf.size() &&
           name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  // arena_bytes tracks scratch reuse (higher = more work routed through the
  // arena, not more effort); inner_tasks counts batched queries, which the
  // legacy kernels report as zero.
  return ends_with("cache_hits") || ends_with("passed") ||
         ends_with("final_shift") || ends_with("arena_bytes") ||
         ends_with("inner_tasks");
}

}  // namespace

PoolSummary PoolSummary::of(const util::PoolTelemetry& t) {
  PoolSummary out;
  out.workers.reserve(t.workers.size());
  for (const auto& w : t.workers)
    out.workers.push_back({w.executed, w.steals,
                           static_cast<double>(w.idle_ns) * 1e-9,
                           static_cast<std::uint64_t>(w.max_queue)});
  return out;
}

std::string build_git_rev() {
#ifdef VC2M_GIT_REV
  return VC2M_GIT_REV;
#else
  return "unknown";
#endif
}

void set_counters(BenchReport& r, const util::AllocCounters& c) {
  r.counters["kmeans_runs"] = static_cast<double>(c.kmeans_runs);
  r.counters["kmeans_iterations"] = static_cast<double>(c.kmeans_iterations);
  r.counters["kmeans_final_shift"] = c.kmeans_final_shift;
  r.counters["admission_tests"] = static_cast<double>(c.admission_tests);
  r.counters["admission_passed"] = static_cast<double>(c.admission_passed);
  r.counters["dbf_evaluations"] = static_cast<double>(c.dbf_evaluations);
  r.counters["budget_evaluations"] =
      static_cast<double>(c.budget_evaluations);
  r.counters["budget_cache_hits"] = static_cast<double>(c.budget_cache_hits);
  r.counters["load_cache_hits"] = static_cast<double>(c.load_cache_hits);
  r.counters["arena_bytes"] = static_cast<double>(c.arena_bytes);
  r.counters["soa_rebuilds"] = static_cast<double>(c.soa_rebuilds);
  r.counters["inner_tasks"] = static_cast<double>(c.inner_tasks);
  r.counters["candidate_packings"] =
      static_cast<double>(c.candidate_packings);
  r.counters["partition_grants"] = static_cast<double>(c.partition_grants);
  r.counters["vcpu_migrations"] = static_cast<double>(c.vcpu_migrations);
  r.counters["vm_alloc_seconds"] = c.vm_alloc_seconds;
  r.counters["hv_alloc_seconds"] = c.hv_alloc_seconds;
}

BenchReport read_bench_report(std::istream& is,
                              std::vector<std::string>* notes) {
  BenchReport r = json::read<BenchReport>(is, "bench report", notes);
  VC2M_CHECK_MSG(r.schema == kBenchReportSchema,
                 "not a vc2m bench report (schema '" << r.schema << "')");
  return r;
}

std::vector<std::string> unlike_config(const BenchReport& base,
                                       const BenchReport& current) {
  std::vector<std::string> out;
  for (const auto& [key, value] : base.config) {
    const auto it = current.config.find(key);
    if (it != current.config.end() && it->second != value)
      out.push_back(key + ": '" + value + "' vs '" + it->second + "'");
  }
  return out;
}

PerfDiffResult diff_reports(const BenchReport& base, const BenchReport& current,
                            const PerfDiffOptions& opt) {
  PerfDiffResult d;
  const auto regressed = [&](double b, double c, double floor) {
    return c > b * (1.0 + opt.max_regress) && c - b > floor;
  };

  // Phases: compare total wall seconds per path.
  std::map<std::string, FlatPhase> base_phases, cur_phases;
  for (const auto& p : flatten_profile(base.phases)) base_phases[p.path] = p;
  for (const auto& p : flatten_profile(current.phases)) cur_phases[p.path] = p;
  for (const auto& [path, bp] : base_phases) {
    const auto it = cur_phases.find(path);
    if (it == cur_phases.end()) {
      d.notes.push_back("phase '" + path + "' only in base report");
      continue;
    }
    PerfDiffEntry e;
    e.kind = "phase";
    e.key = path;
    e.base = bp.total_sec;
    e.current = it->second.total_sec;
    e.regression = regressed(e.base, e.current, opt.min_abs_sec);
    d.entries.push_back(e);
  }
  for (const auto& [path, cp] : cur_phases)
    if (!base_phases.count(path))
      d.notes.push_back("phase '" + path + "' only in current report");

  // Counters: effort must not grow; more-is-better counters are exempt.
  for (const auto& [name, b] : base.counters) {
    const auto it = current.counters.find(name);
    if (it == current.counters.end()) {
      d.notes.push_back("counter '" + name + "' only in base report");
      continue;
    }
    if (counter_exempt(name)) continue;
    PerfDiffEntry e;
    e.kind = "counter";
    e.key = name;
    e.base = b;
    e.current = it->second;
    const bool is_time = name.size() >= 8 &&
                         name.compare(name.size() - 8, 8, "_seconds") == 0;
    e.regression = regressed(e.base, e.current,
                             is_time ? opt.min_abs_sec : opt.min_abs_count);
    d.entries.push_back(e);
  }
  for (const auto& [name, c] : current.counters)
    if (!base.counters.count(name))
      d.notes.push_back("counter '" + name + "' only in current report");

  // Histograms: gate the p95 (tail latency), report mean informationally.
  for (const auto& [name, b] : base.histograms) {
    const auto it = current.histograms.find(name);
    if (it == current.histograms.end()) {
      d.notes.push_back("histogram '" + name + "' only in base report");
      continue;
    }
    PerfDiffEntry p95;
    p95.kind = "histogram";
    p95.key = name + ".p95";
    p95.base = b.p95;
    p95.current = it->second.p95;
    p95.regression = regressed(p95.base, p95.current, opt.min_abs_sec);
    d.entries.push_back(p95);
    PerfDiffEntry mean;
    mean.kind = "histogram";
    mean.key = name + ".mean";
    mean.base = b.mean;
    mean.current = it->second.mean;
    mean.regression = false;  // informational; the p95 is the gate
    d.entries.push_back(mean);
  }
  for (const auto& [name, c] : current.histograms)
    if (!base.histograms.count(name))
      d.notes.push_back("histogram '" + name + "' only in current report");

  // Pool telemetry: informational only — steals and idle time depend on OS
  // scheduling, so they never gate.
  if (!base.pool.empty() && !current.pool.empty()) {
    std::uint64_t be = 0, bs = 0, ce = 0, cs = 0;
    for (const auto& w : base.pool.workers) {
      be += w.executed;
      bs += w.steals;
    }
    for (const auto& w : current.pool.workers) {
      ce += w.executed;
      cs += w.steals;
    }
    PerfDiffEntry exec{"pool", "total_executed", static_cast<double>(be),
                       static_cast<double>(ce), false};
    PerfDiffEntry steals{"pool", "total_steals", static_cast<double>(bs),
                         static_cast<double>(cs), false};
    d.entries.push_back(exec);
    d.entries.push_back(steals);
  }

  return d;
}

void write_perfdiff(std::ostream& os, const PerfDiffResult& d) {
  const auto saved_flags = os.flags();
  const auto saved_precision = os.precision();
  std::size_t key_width = 8;
  for (const auto& e : d.entries)
    key_width = std::max(key_width, e.kind.size() + 1 + e.key.size());
  key_width += 2;
  os << "quantity" << std::string(key_width - 8, ' ') << std::setw(14)
     << "base" << std::setw(14) << "current" << std::setw(10) << "delta"
     << "\n";
  for (const auto& e : d.entries) {
    const std::string label = e.kind + ":" + e.key;
    double pct = 0;
    if (e.base != 0)
      pct = (e.current - e.base) / e.base * 100.0;
    else if (e.current != 0)
      pct = 100.0;
    char delta[24];
    std::snprintf(delta, sizeof delta, "%+.1f%%", pct);
    os << label << std::string(key_width - label.size(), ' ') << std::setw(14)
       << std::fixed << std::setprecision(4) << e.base << std::setw(14)
       << e.current << std::setw(10) << delta
       << (e.regression ? "  REGRESS" : "") << "\n";
  }
  for (const auto& n : d.notes) os << "note: " << n << "\n";
  os.flags(saved_flags);
  os.precision(saved_precision);
}

}  // namespace vc2m::obs

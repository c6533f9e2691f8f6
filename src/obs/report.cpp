#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>

#include "util/table.h"

namespace vc2m::obs {

namespace {

std::string pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100.0);
  return buf;
}

std::string fmt(double v, int precision = 3) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace

void write_report(std::ostream& os, const sim::SimConfig& cfg,
                  const sim::SimStats& stats, const MetricsRegistry& registry,
                  util::Time duration, const util::AllocCounters* alloc) {
  os << "Simulated " << duration.to_ms() << " ms on " << cfg.num_cores
     << " core" << (cfg.num_cores == 1 ? "" : "s") << ": "
     << stats.jobs_released << " jobs released, " << stats.jobs_completed
     << " completed, " << stats.deadline_misses << " deadline miss"
     << (stats.deadline_misses == 1 ? "" : "es");
  if (stats.deadline_misses > 0)
    os << " (max tardiness " << stats.max_tardiness.to_ms() << " ms)";
  os << ".\n\n";

  {
    util::Table t({"core", "busy", "throttled", "idle", "throttles"});
    for (std::size_t k = 0; k < stats.core_busy_fraction.size(); ++k) {
      const double busy = stats.core_busy_fraction[k];
      const double throttled =
          duration.is_zero() || k >= stats.core_throttled_time.size()
              ? 0.0
              : stats.core_throttled_time[k].ratio(duration);
      const auto* throttles =
          registry.find_counter("core." + std::to_string(k) + ".throttles");
      t.add_row(k, pct(busy), pct(throttled),
                pct(std::max(0.0, 1.0 - busy - throttled)),
                throttles ? throttles->value() : 0);
    }
    t.print(os, "Cores");
    os << '\n';
  }

  {
    util::Table t({"task", "released", "completed", "misses", "max resp ms",
                   "max ratio", "mean ratio", "p95 ratio"});
    for (std::size_t i = 0; i < stats.per_task.size(); ++i) {
      const auto& ts = stats.per_task[i];
      const util::Time period =
          i < cfg.tasks.size() ? cfg.tasks[i].period : util::Time::zero();
      const double max_ratio =
          period.is_zero() ? 0.0 : ts.max_response.ratio(period);
      const auto* h = registry.find_histogram(
          "task." + std::to_string(i) + ".response_ratio");
      t.add_row(i, ts.released, ts.completed, ts.deadline_misses,
                fmt(ts.max_response.to_ms()), fmt(max_ratio),
                h ? fmt(h->mean()) : "-", h ? fmt(h->quantile(0.95)) : "-");
    }
    t.print(os, "Tasks (response time / period; ratio > 1 = deadline miss)");
    os << '\n';
  }

  {
    util::Table t({"vcpu", "core", "releases", "overruns", "consumed ms",
                   "mean budget frac"});
    for (std::size_t j = 0; j < stats.per_vcpu.size(); ++j) {
      const auto& vs = stats.per_vcpu[j];
      const auto* h = registry.find_histogram(
          "vcpu." + std::to_string(j) + ".budget_fraction");
      t.add_row(j, j < cfg.vcpus.size()
                       ? std::to_string(cfg.vcpus[j].core)
                       : std::string("-"),
                vs.releases, vs.exhaustions, fmt(vs.budget_consumed.to_ms()),
                h ? fmt(h->mean()) : "-");
    }
    t.print(os, "VCPUs (periodic servers)");
    os << '\n';
  }

  if (alloc) {
    write_alloc_effort(os, *alloc);
    os << '\n';
  }
}

void write_alloc_effort(std::ostream& os, const util::AllocCounters& c) {
  util::Table t({"allocator metric", "value"});
  t.add_row("k-means runs", c.kmeans_runs);
  t.add_row("k-means iterations", c.kmeans_iterations);
  t.add_row("k-means final shift", fmt(c.kmeans_final_shift, 6));
  t.add_row("candidate packings", c.candidate_packings);
  t.add_row("admission tests", c.admission_tests);
  t.add_row("admission passed", c.admission_passed);
  t.add_row("dbf evaluations", c.dbf_evaluations);
  t.add_row("min-budget searches", c.budget_evaluations);
  t.add_row("budget memo hits", c.budget_cache_hits);
  t.add_row("core-load memo hits", c.load_cache_hits);
  t.add_row("arena bytes", c.arena_bytes);
  t.add_row("checkpoint set builds", c.soa_rebuilds);
  t.add_row("batched budget queries", c.inner_tasks);
  t.add_row("partition grants", c.partition_grants);
  t.add_row("vcpu migrations", c.vcpu_migrations);
  t.add_row("VM-level alloc seconds", fmt(c.vm_alloc_seconds, 6));
  t.add_row("HV-level alloc seconds", fmt(c.hv_alloc_seconds, 6));
  t.print(os, "Allocator effort");
}

}  // namespace vc2m::obs

#include "obs/recorder.h"

#include "sim/faults.h"

namespace vc2m::obs {

namespace {

std::string task_metric(std::size_t i, const char* what) {
  return "task." + std::to_string(i) + "." + what;
}
std::string vcpu_metric(std::size_t j, const char* what) {
  return "vcpu." + std::to_string(j) + "." + what;
}
std::string core_metric(std::size_t k, const char* what) {
  return "core." + std::to_string(k) + "." + what;
}

}  // namespace

const std::vector<double>& ratio_bounds() {
  static const std::vector<double> kBounds = {
      0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0, 5.0};
  return kBounds;
}

void MetricsRecorder::on_job_complete(std::size_t task, util::Time response,
                                      util::Time period, bool missed) {
  const double ratio = period.is_zero() ? 0.0 : response.ratio(period);
  reg_.histogram(task_metric(task, "response_ratio"), ratio_bounds())
      .add(ratio);
  reg_.histogram("sim.response_ratio", ratio_bounds()).add(ratio);
  if (missed) reg_.counter(task_metric(task, "misses")).inc();
}

void MetricsRecorder::on_vcpu_period_end(std::size_t vcpu,
                                         util::Time consumed,
                                         util::Time budget, bool exhausted) {
  const double fraction =
      budget.is_zero() ? 0.0 : consumed.ratio(budget);
  reg_.histogram(vcpu_metric(vcpu, "budget_fraction"), ratio_bounds())
      .add(fraction);
  if (exhausted) reg_.counter(vcpu_metric(vcpu, "overruns")).inc();
}

void MetricsRecorder::on_throttle_end(std::size_t core,
                                      util::Time duration) {
  reg_.counter(core_metric(core, "throttles")).inc();
  reg_.counter(core_metric(core, "throttled_ns"))
      .inc(static_cast<std::uint64_t>(duration.raw_ns()));
}

void MetricsRecorder::on_fault_injected(sim::FaultKind kind) {
  reg_.counter("fault." + sim::to_string(kind)).inc();
  reg_.counter("sim.faults_injected").inc();
}

void MetricsRecorder::on_job_killed(std::size_t task) {
  reg_.counter(task_metric(task, "killed")).inc();
  reg_.counter("enforce.jobs_killed").inc();
}

void MetricsRecorder::on_job_deferred(std::size_t task) {
  reg_.counter(task_metric(task, "deferred")).inc();
  reg_.counter("enforce.jobs_deferred").inc();
}

void MetricsRecorder::on_task_suspended(std::size_t task) {
  (void)task;
  reg_.counter("enforce.task_suspensions").inc();
}

void MetricsRecorder::on_task_resumed(std::size_t task) {
  (void)task;
  reg_.counter("enforce.task_resumes").inc();
}

void MetricsRecorder::on_vcpu_budget_overrun(std::size_t vcpu,
                                             util::Time overdraw) {
  (void)overdraw;
  reg_.counter(vcpu_metric(vcpu, "budget_overruns")).inc();
  reg_.counter("enforce.vcpu_budget_overruns").inc();
}

void MetricsRecorder::finalize(const sim::SimStats& stats) {
  reg_.counter("sim.jobs_released").inc(stats.jobs_released);
  reg_.counter("sim.jobs_completed").inc(stats.jobs_completed);
  reg_.counter("sim.deadline_misses").inc(stats.deadline_misses);
  reg_.counter("sim.vcpu_context_switches").inc(stats.vcpu_context_switches);
  reg_.counter("sim.task_dispatches").inc(stats.task_dispatches);
  reg_.counter("sim.throttles").inc(stats.throttles);
  reg_.counter("sim.bw_refills").inc(stats.refills);
  reg_.counter("sim.jobs_killed").inc(stats.jobs_killed);
  reg_.counter("sim.jobs_deferred").inc(stats.jobs_deferred);
  reg_.counter("sim.task_suspensions").inc(stats.task_suspensions);
  reg_.counter("sim.vcpu_budget_overruns").inc(stats.vcpu_budget_overruns);
}

void record_alloc_counters(MetricsRegistry& registry,
                           const util::AllocCounters& counters) {
  registry.counter("alloc.kmeans_runs").inc(counters.kmeans_runs);
  registry.counter("alloc.kmeans_iterations").inc(counters.kmeans_iterations);
  registry.counter("alloc.admission_tests").inc(counters.admission_tests);
  registry.counter("alloc.admission_passed").inc(counters.admission_passed);
  registry.counter("alloc.dbf_evaluations").inc(counters.dbf_evaluations);
  registry.counter("alloc.budget_evaluations").inc(counters.budget_evaluations);
  registry.counter("alloc.budget_cache_hits").inc(counters.budget_cache_hits);
  registry.counter("alloc.load_cache_hits").inc(counters.load_cache_hits);
  registry.counter("alloc.arena_bytes").inc(counters.arena_bytes);
  registry.counter("alloc.soa_rebuilds").inc(counters.soa_rebuilds);
  registry.counter("alloc.inner_tasks").inc(counters.inner_tasks);
  registry.counter("alloc.candidate_packings").inc(counters.candidate_packings);
  registry.counter("alloc.partition_grants").inc(counters.partition_grants);
  registry.counter("alloc.vcpu_migrations").inc(counters.vcpu_migrations);
}

}  // namespace vc2m::obs

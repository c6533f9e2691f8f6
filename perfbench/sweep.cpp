// sweep-fig4: the paper's Fig-4 sweep, run serially — the offline
// allocation path users take to get a certified CPU/cache/BW allocation.
//
// Platform A, uniform utilization 0.1..2.0 step 0.05, 50 tasksets per
// point, the five paper solutions: 9 750 core::solve calls per pass. RNG
// streams are forked exactly as core::run_schedulability_experiment forks
// them, so a pass reproduces `vc2m experiment` verdict for verdict; like
// the experiment runner, the measured loop generates each taskset before
// its solves. Tasksets are visited in a seeded random order so that a
// pass cut short by the time limit is still a fair sample of the sweep's
// cost; the first pass is always completed, it yields the verdict table
// and its digest, and every later pass must reproduce it.
//
// The traced pass calls the two policy levels directly, the way
// core::solve composes them, and must reach solve's verdict on every cell.
#include <cstring>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/schedulability.h"
#include "bench.h"
#include "core/strategy.h"
#include "util/instrument.h"
#include "util/phase_profiler.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace vc2m;

struct Sweep {
  model::PlatformSpec platform = model::PlatformSpec::A();
  double util_lo = 0.1, util_hi = 2.0, util_step = 0.05;
  int tasksets_per_point = 50;
  std::vector<const core::Strategy*> strategies;
  core::SolveConfig solve;  // inner_jobs = 1: the serial sweep

  struct Item {
    double util = 0;
    util::Rng gen;
    std::vector<util::Rng> solve;
  };
  std::vector<Item> items;           ///< (point, taskset) in sweep order
  std::vector<std::size_t> order;    ///< measured visiting order
};

model::Taskset generate(const Sweep& s, const Sweep::Item& it) {
  workload::GeneratorConfig gen;
  gen.grid = s.platform.grid;
  gen.target_ref_utilization = it.util;
  util::Rng rng = it.gen;
  return workload::generate_taskset(gen, rng);
}

Sweep make_sweep(const Options& opt) {
  Sweep s;
  if (opt.smoke) {
    s.util_step = 0.5;
    s.tasksets_per_point = 3;
  }
  for (const auto& key : core::default_solution_keys())
    s.strategies.push_back(&core::StrategyRegistry::instance().require(key));
  const int n_points =
      static_cast<int>((s.util_hi - s.util_lo) / s.util_step + 1e-9) + 1;
  // The fork order of core::run_schedulability_experiment: per (point,
  // taskset), one generator stream, then one stream per solution.
  util::Rng master(opt.seed);
  s.items.reserve(static_cast<std::size_t>(n_points) * s.tasksets_per_point);
  for (int pi = 0; pi < n_points; ++pi)
    for (int rep = 0; rep < s.tasksets_per_point; ++rep) {
      Sweep::Item it;
      it.util = s.util_lo + s.util_step * pi;
      it.gen = master.fork();
      for (std::size_t si = 0; si < s.strategies.size(); ++si)
        it.solve.push_back(master.fork());
      s.items.push_back(std::move(it));
    }
  util::Rng perm(opt.seed ^ 0x5157454550ull);
  s.order = perm.permutation(s.items.size());
  // Warm-up: the first taskset of every point, with every solution, so
  // code, caches and the allocator are warm before anything is timed. A
  // taskset per point keeps the warm-up's cost from hanging on one seed.
  for (std::size_t ti = 0; ti < s.items.size();
       ti += static_cast<std::size_t>(s.tasksets_per_point)) {
    const model::Taskset tasks = generate(s, s.items[ti]);
    for (std::size_t si = 0; si < s.strategies.size(); ++si) {
      util::Rng rng = s.items[ti].solve[si];
      core::solve(*s.strategies[si], tasks, s.platform, s.solve, rng);
    }
  }
  return s;
}

/// A schedulable verdict must come with a mapping that places every VCPU
/// exactly once, fits the platform's cores and partition pools, and passes
/// the per-core EDF test at the granted partitions. Empty string = valid.
std::string check_mapping(const core::SolveResult& res,
                          const model::PlatformSpec& platform) {
  if (!res.schedulable) return {};
  const auto& m = res.mapping;
  if (m.vcpus_on_core.size() > platform.cores)
    return "mapping uses more cores than the platform has";
  if (m.cache.size() != m.vcpus_on_core.size() ||
      m.bw.size() != m.vcpus_on_core.size())
    return "partition vectors do not match the core count";
  if (m.total_cache() > platform.total_cache() ||
      m.total_bw() > platform.total_bw())
    return "partition grants exceed the platform pools";
  std::vector<int> placed(res.vcpus.size(), 0);
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    for (const std::size_t v : m.vcpus_on_core[k]) {
      if (v >= placed.size()) return "mapping names an unknown VCPU";
      ++placed[v];
    }
    if (!analysis::core_schedulable(res.vcpus, m.vcpus_on_core[k], m.cache[k],
                                    m.bw[k]))
      return "a core of a schedulable mapping fails the EDF test";
  }
  for (const int p : placed)
    if (p != 1) return "a VCPU is placed " + std::to_string(p) + " times";
  return {};
}

/// Wall seconds the src phase profiler recorded under phases named `name`
/// (outermost occurrences only, so nested repeats are not double counted).
double profiled_seconds(const util::PhaseNode& n, const std::string& name) {
  if (n.name == name) return 1e-9 * static_cast<double>(n.total_ns);
  double s = 0;
  for (const auto& [k, child] : n.children) s += profiled_seconds(*child, name);
  return s;
}

}  // namespace

Result run_sweep(const Options& opt) {
  Result r;
  std::vector<double> setup_s;
  Sweep s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    s = make_sweep(opt);
    setup_s.push_back(seconds_since(t0));
  }
  const std::size_t n_sol = s.strategies.size();
  const std::size_t n_cells = s.items.size() * n_sol;
  r.param("platform", "A");
  r.param("util", "0.1..2.0 step " + std::to_string(s.util_step));
  r.param("tasksets_per_point", std::to_string(s.tasksets_per_point));
  r.param("solutions", "flat,ovf,existing,even,baseline");
  r.param("jobs", "1");
  r.param("inner_jobs", "1");
  r.param("cells_per_pass", std::to_string(n_cells));

  // ---- untraced measurement -------------------------------------------
  std::vector<std::int8_t> verdict(n_cells, -1);  // first-pass verdicts
  util::AllocCounters first_pass;
  double first_pass_s = 0;
  const auto start = Clock::now();
  Windowed win(start);
  for (int pass = 0;; ++pass) {
    bool out_of_time = false;
    for (std::size_t oi = 0; oi < s.order.size() && !out_of_time; ++oi) {
      const std::size_t ti = s.order[oi];
      const Sweep::Item& it = s.items[ti];
      model::Taskset tasks;
      try {
        const auto g0 = Clock::now();
        tasks = generate(s, it);
        win.charge(seconds_since(g0));
      } catch (const std::exception& e) {
        r.fail("taskset " + std::to_string(ti) + ": " + e.what(), n_sol);
        r.attempted += n_sol;
        continue;
      }
      for (std::size_t si = 0; si < n_sol; ++si) {
        if (pass > 0 && seconds_since(start) >= opt.seconds) {
          out_of_time = true;
          break;
        }
        const std::size_t cell = ti * n_sol + si;
        ++r.attempted;
        try {
          util::Rng rng = it.solve[si];
          const auto t0 = Clock::now();
          const core::SolveResult res =
              core::solve(*s.strategies[si], tasks, s.platform, s.solve, rng);
          const double dt = seconds_since(t0);
          win.add(1e6 * dt, 1, dt);
          win.tick();
          if (pass == 0) {
            first_pass_s += dt;
            first_pass.merge(res.counters);
          }
          if (const std::string bad = check_mapping(res, s.platform);
              !bad.empty()) {
            r.fail("cell " + std::to_string(cell) + ": " + bad);
            continue;
          }
          const std::int8_t v = res.schedulable ? 1 : 0;
          if (pass == 0) {
            verdict[cell] = v;
          } else if (verdict[cell] != v) {
            r.fail("cell " + std::to_string(cell) +
                   ": verdict differs from the first pass");
          }
        } catch (const std::exception& e) {
          r.fail("cell " + std::to_string(cell) + ": " + e.what());
        }
      }
    }
    if (out_of_time) break;
  }

  std::size_t schedulable = 0;
  std::string table(n_cells, '?');
  for (std::size_t c = 0; c < n_cells; ++c) {
    schedulable += verdict[c] == 1 ? 1 : 0;
    if (verdict[c] >= 0) table[c] = static_cast<char>('0' + verdict[c]);
  }
  r.digest = fnv_hex(table);
  r.exact = exact_counters(first_pass);

  const double solves_per_s = win.rate();
  const double sched_frac = ratio(static_cast<double>(schedulable),
                                  static_cast<double>(n_cells));
  const double p50 = win.quantile_us(0.5), p99 = win.quantile_us(0.99);
  r.named = {{"solves_per_s", solves_per_s, "1/s"},
             {"solve_ms_p50", p50 / 1000, "ms"},
             {"solve_ms_p99", p99 / 1000, "ms"},
             {"sched_frac", sched_frac, "ratio"},
             {"solve_samples", static_cast<double>(win.samples()), "count"},
             {"host_factor", win.host_factor(), "ratio"}};

  if (!opt.trace) {
    r.metric("ops_per_s", solves_per_s, "1/s");
    r.metric("op_p50_us", p50, "us");
    r.metric("op_p99_us", p99, "us");
    r.metric("accept_frac", sched_frac, "ratio");
    r.metric("setup_s", median(setup_s) / win.host_factor(), "s");
    return r;
  }

  // ---- traced pass: every cell once, in sweep order ----------------------
  Tracer tr;
  util::AllocCounters traced;
  util::PhaseProfiler::reset();
  util::PhaseProfiler::set_enabled(true);
  const auto t_start = Clock::now();
  for (std::size_t ti = 0; ti < s.items.size(); ++ti) {
    const Sweep::Item& it = s.items[ti];
    try {
      model::Taskset tasks;
      {
        Tracer::Scope sp(tr, "workload.generate", ti);
        tasks = generate(s, it);
      }
      for (std::size_t si = 0; si < n_sol; ++si) {
        const std::size_t cell = ti * n_sol + si;
        ++r.attempted;
        try {
          const core::Strategy& strat = *s.strategies[si];
          util::Rng rng = it.solve[si];
          // The composition core::solve performs.
          model::Taskset inflated = tasks;
          analysis::inflate_tasks(inflated, s.solve.task_inflation);
          bool ok = false;
          {
            analysis::AnalysisContext ctx;
            ctx.set_inner_parallelism(nullptr, 1);
            std::vector<model::Vcpu> vcpus;
            {
              Tracer::Scope sp(tr, "core.vm_alloc", cell);
              vcpus = strat.vm->allocate(inflated, s.platform, s.solve, ctx,
                                         rng);
            }
            if (!vcpus.empty()) {
              analysis::inflate_vcpus(vcpus, s.solve.vcpu_inflation);
              Tracer::Scope sp(tr, "core.hv_alloc", cell);
              ok = strat.hv->allocate(vcpus, s.platform, s.solve, ctx, rng)
                       .schedulable;
            }
            traced.merge(ctx.counters());
          }
          if ((ok ? 1 : 0) != verdict[cell])
            r.fail("cell " + std::to_string(cell) +
                   ": traced verdict differs from core::solve");
        } catch (const std::exception& e) {
          r.fail("traced cell " + std::to_string(cell) + ": " + e.what());
        }
      }
    } catch (const std::exception& e) {
      r.fail("traced taskset " + std::to_string(ti) + ": " + e.what(), n_sol);
      r.attempted += n_sol;
    }
  }
  const double traced_s = seconds_since(t_start);
  util::PhaseProfiler::set_enabled(false);

  double min_budget_s = 0;
  for (const auto& tree : util::PhaseProfiler::trees())
    min_budget_s += profiled_seconds(*tree, "min_budget") +
                    profiled_seconds(*tree, "min_budget_surface");
  util::PhaseProfiler::reset();

  if (exact_counters(traced) != r.exact)
    r.fail("traced pass effort counters differ from core::solve's");

  r.spans = tr.totals();
  // Min-budget search runs inside the VM-level policy; move its time from
  // core.vm_alloc's self time to the analysis layer.
  for (auto& t : r.spans)
    if (t.name == "core.vm_alloc") t.self_s -= min_budget_s;
  r.spans.push_back({"analysis.min_budget", 0, min_budget_s, min_budget_s});
  tr.write_chrome_trace(opt.span_file);

  LayerMetrics m;
  for (const auto& t : r.spans) {
    if (t.name == "workload.generate") {
      m.generate_calls = static_cast<double>(t.calls);
      m.generate_busy_s = t.busy_s;
    } else if (t.name == "core.vm_alloc") {
      m.vm_alloc_busy_s = t.busy_s;
    } else if (t.name == "core.hv_alloc") {
      m.hv_alloc_busy_s = t.busy_s;
    }
  }
  m.set_counters(traced);
  m.min_budget_busy_s = min_budget_s;
  m.unattributed_s = traced_s - tr.top_level_s();
  // The untraced first pass's time is its solves'; so is this ratio's.
  m.overhead_frac = ratio(traced_s - m.generate_busy_s, first_pass_s) - 1;
  m.emit(r);
  return r;
}

}  // namespace perfbench

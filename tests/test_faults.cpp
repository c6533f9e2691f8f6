// Fault-injection & enforcement suite: FaultSpec parsing, the four
// enforcement policies (strict/kill/throttle/degrade), each fault class
// end to end, trace-level determinism, and the experiment fault validator.
//
// Suite names matter: scripts/check.sh runs everything matching
// ^FaultValidatorParallel under TSan alongside the parallel-engine suites.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/audit.h"
#include "obs/trace_check.h"
#include "sim/enforcement.h"
#include "sim/faults.h"
#include "sim/simulation.h"
#include "util/error.h"

namespace vc2m {
namespace {

using sim::EnforcementPolicy;
using sim::FaultSpec;
using sim::SimConfig;
using sim::SimTaskSpec;
using sim::SimVcpuSpec;
using util::Time;

// ------------------------------------------------------- spec parsing ----

TEST(FaultSpecParse, AcceptsTheFullKeySet) {
  const auto f = sim::parse_fault_spec(
      "overrun-factor=1.5,overrun-prob=0.25,jitter-ms=2,jitter-prob=0.5,"
      "revoke-interval-ms=10,revoke-window-ms=3,revoke-ways=2,"
      "refill-delay-ms=0.5,refill-prob=0.75,low-crit-frac=0.4,seed=99");
  EXPECT_DOUBLE_EQ(f.overrun_factor, 1.5);
  EXPECT_DOUBLE_EQ(f.overrun_prob, 0.25);
  EXPECT_EQ(f.max_release_jitter, Time::ms(2));
  EXPECT_DOUBLE_EQ(f.jitter_prob, 0.5);
  EXPECT_EQ(f.revoke_interval, Time::ms(10));
  EXPECT_EQ(f.revoke_window, Time::ms(3));
  EXPECT_EQ(f.revoke_ways, 2u);
  EXPECT_EQ(f.max_refill_delay, Time::us(500));
  EXPECT_DOUBLE_EQ(f.refill_delay_prob, 0.75);
  EXPECT_DOUBLE_EQ(f.low_crit_frac, 0.4);
  EXPECT_EQ(f.seed, 99u);
}

TEST(FaultSpecParse, DefaultPlanIsInert) {
  // Every class is off by default: no overrun factor, no jitter, no
  // revocation interval, no refill delay.
  const FaultSpec f;
  EXPECT_EQ(f.overrun_factor, 1.0);
  EXPECT_EQ(f.max_release_jitter, Time::zero());
  EXPECT_EQ(f.revoke_interval, Time::zero());
  EXPECT_EQ(f.max_refill_delay, Time::zero());
  // overrun-factor alone activates the class, since its probability
  // defaults to 1; a zero probability deactivates it again.
  EXPECT_DOUBLE_EQ(sim::parse_fault_spec("overrun-factor=1.2").overrun_prob,
                   1.0);
  EXPECT_DOUBLE_EQ(
      sim::parse_fault_spec("overrun-factor=1.2,overrun-prob=0").overrun_prob,
      0.0);
}

TEST(FaultSpecParse, RejectsMalformedSpecs) {
  const auto bad = [](const std::string& s) {
    EXPECT_THROW(sim::parse_fault_spec(s), util::Error) << s;
  };
  bad("overrun-factor");             // missing '='
  bad("=1.2");                       // empty key
  bad("bogus-key=1");                // unknown key
  bad("overrun-factor=abc");         // non-numeric
  bad("overrun-factor=1.2x");        // trailing characters
  bad("overrun-factor=nan");         // non-finite
  bad("overrun-factor=inf");
  bad("overrun-factor=0.5");         // < 1 is not an overrun
  bad("overrun-factor=1000");        // absurd
  bad("overrun-prob=1.5");           // probability out of range
  bad("overrun-prob=-0.1");
  bad("jitter-ms=-1");               // negative time
  bad("revoke-ways=-1");             // negative count
  bad("seed=1.5");                   // non-integer seed
  bad("");                           // empty items, anywhere
  bad("overrun-factor=1.2,");
  bad(",overrun-factor=1.2");
  bad("overrun-factor=1.2,,seed=3");
}

// ------------------------------------------------ enforcement policies ----

SimTaskSpec cpu_task(Time period, Time work, std::size_t vcpu = 0) {
  SimTaskSpec t;
  t.period = period;
  t.cpu_work = work;
  t.vcpu = vcpu;
  return t;
}

SimVcpuSpec server(Time period, Time budget, std::size_t core = 0) {
  SimVcpuSpec v;
  v.period = period;
  v.budget = budget;
  v.core = core;
  return v;
}

/// One core, one full-budget VCPU, one task that *always* overruns to
/// twice its modeled 2 ms WCET — the canonical enforcement scenario.
SimConfig overrun_cfg(EnforcementPolicy policy) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(10))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  cfg.faults.overrun_factor = 2.0;
  cfg.faults.overrun_prob = 1.0;
  cfg.faults.seed = 7;
  cfg.enforcement.policy = policy;
  cfg.capture_trace = true;
  return cfg;
}

TEST(Enforcement, StrictLetsOverrunsRunToCompletion) {
  // Under strict the job budget is not enforced: the 4 ms of real work run
  // inside the 10 ms server budget, so jobs complete (late only if > p).
  sim::Simulation s(overrun_cfg(EnforcementPolicy::kStrict));
  s.run(Time::ms(100));
  const auto st = s.stats();
  EXPECT_EQ(st.jobs_completed, 10u);
  EXPECT_EQ(st.jobs_killed, 0u);
  EXPECT_EQ(st.deadline_misses, 0u);  // 4 ms < 10 ms deadline
  EXPECT_GT(st.faults_injected, 0u);  // overruns were still injected
}

TEST(Enforcement, KillAbortsTheJobAtItsBudget) {
  sim::Simulation s(overrun_cfg(EnforcementPolicy::kKill));
  s.run(Time::ms(100));
  const auto st = s.stats();
  // Every job overruns, so every job is killed exactly at its 2 ms
  // allowance — none completes, and a killed job cannot miss.
  EXPECT_EQ(st.jobs_completed, 0u);
  EXPECT_EQ(st.jobs_killed, 10u);
  EXPECT_EQ(st.deadline_misses, 0u);
  EXPECT_EQ(st.per_task[0].killed, 10u);
}

TEST(Enforcement, ThrottleDefersToTheNextReplenishment) {
  sim::Simulation s(overrun_cfg(EnforcementPolicy::kThrottle));
  s.run(Time::ms(100));
  const auto st = s.stats();
  // The job is parked at 2 ms, resumes with a fresh allowance at the next
  // VCPU replenishment (10 ms), and finishes at 12 ms — past its deadline
  // but without starving the rest of the system.
  EXPECT_GT(st.jobs_deferred, 0u);
  EXPECT_GT(st.jobs_completed, 0u);
  EXPECT_GT(st.deadline_misses, 0u);
  EXPECT_EQ(st.jobs_killed, 0u);
}

TEST(Enforcement, DegradeShedsOnlyLowCriticalityTasks) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(10))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2)),   // the overrunner
               cpu_task(Time::ms(10), Time::ms(1))};  // the shedding victim
  cfg.tasks[1].criticality = 0;
  cfg.faults.overrun_factor = 3.0;
  cfg.faults.overrun_prob = 1.0;
  cfg.faults.seed = 7;
  cfg.enforcement.policy = EnforcementPolicy::kDegrade;
  cfg.enforcement.degrade_resume_after = Time::ms(25);
  cfg.capture_trace = true;
  sim::Simulation s(cfg);
  s.run(Time::ms(200));
  const auto st = s.stats();
  EXPECT_GT(st.task_suspensions, 0u);
  // The critical task is never shed and keeps releasing every period; the
  // sheddable one skips releases while suspended.
  EXPECT_EQ(st.per_task[0].released, 21u);
  EXPECT_LT(st.per_task[1].released, 21u);
  EXPECT_EQ(st.task_criticality[0], 1);
  EXPECT_EQ(st.task_criticality[1], 0);
}

TEST(Enforcement, PolicyNamesRoundTrip) {
  // The product only parses policy names (--policy, scenario files): each
  // name maps back to its own policy.
  const std::pair<const char*, EnforcementPolicy> names[] = {
      {"strict", EnforcementPolicy::kStrict},
      {"kill", EnforcementPolicy::kKill},
      {"throttle", EnforcementPolicy::kThrottle},
      {"degrade", EnforcementPolicy::kDegrade}};
  for (const auto& [name, p] : names) {
    const auto back = sim::enforcement_policy_from_string(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(sim::enforcement_policy_from_string("lenient").has_value());
}

// -------------------------------------------------------- fault classes ----

TEST(Faults, InertPlanLeavesTheTraceUntouched) {
  auto base = overrun_cfg(EnforcementPolicy::kStrict);
  base.faults = FaultSpec{};  // inert
  auto faulty = base;
  faulty.faults.overrun_factor = 2.0;
  faulty.faults.overrun_prob = 0.0;  // class disabled by probability

  sim::Simulation a(base), b(faulty);
  a.run(Time::ms(100));
  b.run(Time::ms(100));
  const auto ea = a.trace().events();
  const auto eb = b.trace().events();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].when, eb[i].when) << i;
    EXPECT_EQ(ea[i].kind, eb[i].kind) << i;
  }
}

TEST(Faults, ReleaseJitterDelaysArrivalsOnANominalGrid) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(10))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  cfg.faults.max_release_jitter = Time::ms(3);
  cfg.faults.jitter_prob = 1.0;
  cfg.faults.seed = 11;
  cfg.capture_trace = true;
  sim::Simulation s(cfg);
  s.run(Time::ms(100));
  const auto st = s.stats();
  // Jitter delays each arrival but the release *grid* stays nominal, so
  // the task still releases 10 full jobs over 100 ms (the job released at
  // the horizon may be jittered past it).
  EXPECT_GE(st.jobs_released, 10u);
  EXPECT_GT(st.faults_injected, 0u);
  EXPECT_EQ(st.deadline_misses, 0u);  // 2 + 3 ms worst case fits 10 ms
  bool saw_jitter = false;
  for (const auto& ev : s.trace().events())
    if (ev.kind == sim::TraceKind::kFaultReleaseJitter) {
      saw_jitter = true;
      EXPECT_GT(ev.job, 0);  // the payload is the delay in ns
      EXPECT_LT(ev.job, Time::ms(3).raw_ns() + 1);
    }
  EXPECT_TRUE(saw_jitter);
}

TEST(Faults, PartitionRevocationShrinksThenRestores) {
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_partitions = 8;
  cfg.cache_alloc = {4, 3};  // disjoint: the hw::Cat mirror engages
  cfg.vcpus = {server(Time::ms(10), Time::ms(10), 0),
               server(Time::ms(10), Time::ms(10), 1)};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2), 0),
               cpu_task(Time::ms(10), Time::ms(2), 1)};
  // Give the tasks a memory component so revocation actually changes
  // requirements via the miss curve.
  for (auto& t : cfg.tasks) {
    t.mem_work_ref = Time::ms(1);
    t.mem_requests_ref = 100;
  }
  cfg.faults.revoke_interval = Time::ms(15);
  cfg.faults.revoke_window = Time::ms(5);
  cfg.faults.revoke_ways = 1;
  cfg.faults.seed = 13;
  cfg.capture_trace = true;
  sim::Simulation s(cfg);
  s.run(Time::ms(200));

  std::size_t revokes = 0, restores = 0, cos_programs = 0;
  for (const auto& ev : s.trace().events()) {
    if (ev.kind == sim::TraceKind::kPartitionRevoke) {
      ++revokes;
      EXPECT_EQ(ev.job, 1);  // shrunk to revoke_ways
    }
    if (ev.kind == sim::TraceKind::kPartitionRestore) ++restores;
    if (ev.kind == sim::TraceKind::kCosProgram) ++cos_programs;
  }
  EXPECT_GT(revokes, 0u);
  // Every window closes except possibly the one straddling the horizon.
  EXPECT_GE(restores + 1, revokes);
  EXPECT_LE(restores, revokes);
  EXPECT_GE(cos_programs, revokes + restores);  // each reprograms the CAT

  const auto check = obs::check_trace(
      s.trace().events(), obs::TraceCheckConfig::from_sim(cfg, Time::ms(200)));
  EXPECT_TRUE(check.ok()) << check.summary();
}

TEST(Faults, RefillDelayPerturbsTheRegulatorPeriod) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.bw_regulation = true;
  cfg.bw_alloc = {2};
  cfg.vcpus = {server(Time::ms(10), Time::ms(10))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  cfg.tasks[0].mem_work_ref = Time::ms(1);
  cfg.tasks[0].mem_requests_ref = 500;
  cfg.faults.max_refill_delay = Time::us(300);
  cfg.faults.refill_delay_prob = 1.0;
  cfg.faults.seed = 17;
  cfg.capture_trace = true;
  sim::Simulation s(cfg);
  s.run(Time::ms(100));
  const auto st = s.stats();
  EXPECT_GT(st.faults_injected, 0u);
  // Every refill is armed late, so strictly fewer than 100 periods fit.
  EXPECT_LT(st.refills, 100u);
  EXPECT_GT(st.refills, 0u);
  bool saw_delay = false;
  for (const auto& ev : s.trace().events())
    if (ev.kind == sim::TraceKind::kFaultRefillDelay) saw_delay = true;
  EXPECT_TRUE(saw_delay);
}

// --------------------------------------------------------- determinism ----

std::string trace_fingerprint(const sim::Simulation& s) {
  std::ostringstream os;
  for (const auto& ev : s.trace().events())
    os << ev.when.raw_ns() << '|' << static_cast<int>(ev.kind) << '|'
       << ev.core << '|' << ev.vcpu << '|' << ev.task << '|' << ev.job
       << '\n';
  return os.str();
}

SimConfig chaotic_cfg(std::uint64_t fault_seed) {
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_partitions = 8;
  cfg.cache_alloc = {4, 3};
  cfg.vcpus = {server(Time::ms(10), Time::ms(6), 0),
               server(Time::ms(20), Time::ms(8), 1)};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2), 0),
               cpu_task(Time::ms(20), Time::ms(3), 1),
               cpu_task(Time::ms(40), Time::ms(4), 1)};
  cfg.tasks[1].mem_work_ref = Time::ms(1);
  cfg.tasks[1].mem_requests_ref = 200;
  cfg.faults = sim::parse_fault_spec(
      "overrun-factor=1.5,overrun-prob=0.4,jitter-ms=1,jitter-prob=0.3,"
      "revoke-interval-ms=25,revoke-ways=1,low-crit-frac=0.5");
  cfg.faults.seed = fault_seed;
  cfg.enforcement.policy = EnforcementPolicy::kDegrade;
  cfg.capture_trace = true;
  return cfg;
}

TEST(Faults, SameSeedReproducesABitIdenticalTrace) {
  sim::Simulation a(chaotic_cfg(21)), b(chaotic_cfg(21)), c(chaotic_cfg(22));
  a.run(Time::ms(400));
  b.run(Time::ms(400));
  c.run(Time::ms(400));
  EXPECT_EQ(trace_fingerprint(a), trace_fingerprint(b));
  EXPECT_NE(trace_fingerprint(a), trace_fingerprint(c));
}

TEST(Faults, EveryPolicyYieldsADistinctCheckerCleanTrace) {
  std::vector<std::string> prints;
  for (const auto p :
       {EnforcementPolicy::kStrict, EnforcementPolicy::kKill,
        EnforcementPolicy::kThrottle, EnforcementPolicy::kDegrade}) {
    auto cfg = overrun_cfg(p);
    cfg.tasks.push_back(cpu_task(Time::ms(20), Time::ms(1)));
    cfg.tasks[1].criticality = 0;
    sim::Simulation s(cfg);
    s.run(Time::ms(100));
    const auto check = obs::check_trace(
        s.trace().events(),
        obs::TraceCheckConfig::from_sim(cfg, Time::ms(100)));
    EXPECT_TRUE(check.ok()) << "policy " << static_cast<int>(p) << ": "
                            << check.summary();
    prints.push_back(trace_fingerprint(s));
  }
  for (std::size_t i = 0; i < prints.size(); ++i)
    for (std::size_t j = i + 1; j < prints.size(); ++j)
      EXPECT_NE(prints[i], prints[j]) << "policies " << i << " and " << j;
}

// ------------------------------------------- experiment fault validator ----

core::ExperimentConfig validator_cfg(int jobs) {
  core::ExperimentConfig cfg;
  cfg.util_lo = 0.4;
  cfg.util_hi = 0.6;
  cfg.util_step = 0.1;
  cfg.tasksets_per_point = 3;
  cfg.seed = 5;
  cfg.jobs = jobs;
  cfg.solutions = {"flat", "baseline"};
  sim::EnforcementConfig enf;
  enf.policy = EnforcementPolicy::kDegrade;
  cfg.validate = obs::make_fault_validator(
      cfg.platform,
      sim::parse_fault_spec(
          "overrun-factor=1.1,overrun-prob=0.3,low-crit-frac=0.5"),
      enf, /*hyperperiods=*/1);
  return cfg;
}

TEST(FaultValidatorParallel, ValidatedCountsAreBitIdenticalAcrossJobs) {
  const auto run = [](int jobs) {
    return core::run_schedulability_experiment(validator_cfg(jobs));
  };
  const auto r1 = run(1), r2 = run(2), r8 = run(8);
  ASSERT_EQ(r1.points.size(), r2.points.size());
  ASSERT_EQ(r1.points.size(), r8.points.size());
  bool any_validated = false;
  for (std::size_t pi = 0; pi < r1.points.size(); ++pi) {
    for (std::size_t si = 0; si < r1.points[pi].per_solution.size(); ++si) {
      const auto& a = r1.points[pi].per_solution[si];
      const auto& b = r2.points[pi].per_solution[si];
      const auto& c = r8.points[pi].per_solution[si];
      EXPECT_EQ(a.schedulable, b.schedulable) << pi << "," << si;
      EXPECT_EQ(a.schedulable, c.schedulable) << pi << "," << si;
      EXPECT_EQ(a.validated, b.validated) << pi << "," << si;
      EXPECT_EQ(a.validated, c.validated) << pi << "," << si;
      EXPECT_LE(a.validated, a.schedulable) << pi << "," << si;
      if (a.validated > 0) any_validated = true;
    }
  }
  EXPECT_TRUE(any_validated) << "mild fault plan should pass somewhere";
  // The rendered table (including the +f columns) is bit-identical too.
  std::ostringstream t1, t8;
  r1.to_table().print(t1);
  r8.to_table().print(t8);
  EXPECT_EQ(t1.str(), t8.str());
}

TEST(FaultValidator, FlatIsValidatedWithReleaseSync) {
  // The validator audits Flat in the deployment Theorem 1 certifies: task
  // and VCPU releases synchronized by hypercall. Under the simulator's
  // 1 us hypercall latency 4 of these 20 certified allocations miss a
  // critical deadline; with a zero latency, or deployed without
  // synchronization, all 20 pass.
  core::ExperimentConfig cfg;
  cfg.util_lo = 1.0;
  cfg.util_hi = 1.0;
  cfg.tasksets_per_point = 20;
  cfg.jobs = 2;
  cfg.solutions = {"flat"};
  sim::EnforcementConfig enf;
  enf.policy = EnforcementPolicy::kDegrade;
  cfg.validate = obs::make_fault_validator(
      cfg.platform, sim::parse_fault_spec("low-crit-frac=0.5"), enf, 2);
  const auto r = core::run_schedulability_experiment(cfg);
  ASSERT_EQ(r.points.size(), 1u);
  const auto& flat = r.points[0].per_solution[0];
  EXPECT_EQ(flat.schedulable, 20);
  EXPECT_EQ(flat.validated, 16);
}

TEST(FaultValidatorParallel, ValidatorFailsHopelessOverruns) {
  // A 3x overrun on every job under kStrict-equivalent kill policy cannot
  // keep critical tasks miss-free: the validator must reject essentially
  // everything it accepts under the mild plan.
  auto cfg = validator_cfg(2);
  sim::EnforcementConfig enf;
  enf.policy = EnforcementPolicy::kKill;
  cfg.validate = obs::make_fault_validator(
      cfg.platform, sim::parse_fault_spec("overrun-factor=3"), enf, 1);
  const auto r = core::run_schedulability_experiment(cfg);
  for (const auto& pt : r.points)
    for (const auto& sp : pt.per_solution) EXPECT_EQ(sp.validated, 0);
}

}  // namespace
}  // namespace vc2m

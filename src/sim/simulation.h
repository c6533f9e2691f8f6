// The vC2M prototype as a discrete-event simulation.
//
// Reproduces the runtime behaviour of the paper's Xen + LITMUS^RT prototype:
//   - a hypervisor-level partitioned-EDF scheduler (the modified RTDS) over
//     periodic-server VCPUs, with the deterministic tie-break of §3.2
//     (absolute deadline, then smaller period, then smaller VCPU index) and
//     throttled-core awareness;
//   - a guest-level EDF scheduler running each VM's tasks on its VCPUs
//     (tasks are pinned to VCPUs — partitioned at both levels);
//   - the memory-bandwidth regulator (BwRegulator), driven by the per-task
//     memory request rates the execution model derives from the core's
//     cache allocation;
//   - task↔VCPU release synchronization via the customized hypercall, with
//     independent VM/hypervisor clock bases (the protocol transfers only
//     the interval L, so it is immune to clock skew);
//   - per-job deadline-miss detection and a full scheduling trace.
//
// Execution model: a job's requirement on a core with c cache partitions is
//   R(c) = cpu_work + mem_work_ref · miss(c)
// and it issues memory requests uniformly at rate
//   ρ(c) = mem_requests_ref · miss(c) / R(c)
// while it executes, where miss(c) is the workload::miss_curve. Restricted
// bandwidth does NOT change R(c); it manifests through regulator throttling,
// exactly as on the real machine — the simulator *produces* e(c,b) rather
// than consuming it (profile with sim::profile_wcet to obtain surfaces).
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "sim/bw_regulator.h"
#include "sim/enforcement.h"
#include "sim/event_queue.h"
#include "sim/faults.h"
#include "sim/hooks.h"
#include "sim/probe.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace vc2m::hw {
class Cat;
class MsrFile;
}  // namespace vc2m::hw

namespace vc2m::sim {

inline constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

struct SimTaskSpec {
  util::Time period;
  /// First release, in VM time, relative to task initialization (t = 0).
  util::Time offset = util::Time::zero();
  /// Pure-CPU portion of one job.
  util::Time cpu_work = util::Time::zero();
  /// Memory-stall portion of one job at the full cache allocation.
  util::Time mem_work_ref = util::Time::zero();
  /// Miss-curve parameters (see workload::miss_curve).
  double miss_amp = 1.0;
  double ws_decay = 4.0;
  /// Memory requests one job issues at the full cache allocation.
  double mem_requests_ref = 0.0;
  /// Sporadic arrivals: each release is delayed by a uniform random amount
  /// in [0, arrival_jitter] beyond the minimum inter-arrival `period`
  /// (zero = strictly periodic, the paper's model). Seeded by
  /// SimConfig::jitter_seed, so runs are reproducible.
  util::Time arrival_jitter = util::Time::zero();
  /// Criticality level: 0 = sheddable under EnforcementPolicy::kDegrade,
  /// >= 1 = never shed. The fault plan's low_crit_frac demotes a seeded
  /// subset of default-criticality tasks at setup.
  int criticality = 1;
  /// VCPU (index into SimConfig::vcpus) this task is pinned to.
  std::size_t vcpu = 0;
};

struct SimVcpuSpec {
  util::Time period;   ///< Π
  util::Time budget;   ///< Θ as provisioned for this VCPU's core
  std::size_t core = 0;
  int vm = 0;
  /// First release relative to t = 0 (ignored when release_sync is on —
  /// the hypercall then sets the first release).
  util::Time offset = util::Time::zero();
  /// Periodic (idling) server: consume budget even with no pending job.
  /// Required for well-regulated execution (Theorem 2); a non-idling
  /// (deferrable-style) server suspends when idle.
  bool idling_server = true;
};

struct SimConfig {
  unsigned num_cores = 1;
  /// Total cache partitions C (the miss curves need the reference point).
  unsigned cache_partitions = 20;
  /// Cache partitions allocated per core (size num_cores; defaults to C).
  std::vector<unsigned> cache_alloc;
  /// Bandwidth partitions allocated per core (size num_cores; defaults to
  /// the regulator being effectively unconstrained).
  std::vector<unsigned> bw_alloc;
  bool bw_regulation = false;
  util::Time regulation_period = util::Time::ms(1);
  double requests_per_partition = 1000.0;
  /// Shared-memory-bus contention model for *unregulated* interference
  /// studies (§3.3): when the aggregate delivered request rate of the
  /// running tasks exceeds the bus capacity, memory-active cores slow down
  /// (proportional bus shares). With BW regulation enabled and per-core
  /// budgets that sum to at most the capacity, the bus cannot saturate —
  /// which is precisely the isolation vC2M provides.
  bool bus_contention = false;
  /// Bus capacity in requests per regulation period; 0 means "the total
  /// bandwidth partitions' worth" (B · requests_per_partition).
  double bus_requests_per_period = 0;
  /// Task↔VCPU release synchronization (§3.2).
  bool release_sync = false;
  util::Time hypercall_delay = util::Time::us(1);
  /// How the release time crosses the VM/hypervisor boundary. The paper's
  /// design passes the *interval* L = vt_r − vt_0 precisely because the two
  /// clocks need not agree; passing the absolute VM-clock release time
  /// (kAbsoluteTime) mis-arms the VCPU by the clock skew.
  enum class SyncMode { kInterval, kAbsoluteTime };
  SyncMode sync_mode = SyncMode::kInterval;
  /// Offset of the VM's clock relative to the hypervisor's (wall) clock:
  /// VM time = wall time + skew. Only observable through kAbsoluteTime.
  util::Time vm_clock_skew = util::Time::zero();
  /// Cost charged (as budget + wall time) whenever a core switches to a
  /// different VCPU — models context-switch/cache-reload overhead. The
  /// analysis accounts for it by inflating VCPU budgets (§4.1 Remarks).
  util::Time vcpu_switch_cost = util::Time::zero();
  /// Record full event traces (counters are always on).
  bool capture_trace = false;
  /// Seed for sporadic arrival jitter.
  std::uint64_t jitter_seed = 1;
  /// Fault-injection plan (sim/faults.h); inert at its defaults.
  FaultSpec faults;
  /// What the scheduler does on WCET/budget overruns (sim/enforcement.h).
  EnforcementConfig enforcement;

  std::vector<SimVcpuSpec> vcpus;
  std::vector<SimTaskSpec> tasks;
};

struct TaskStats {
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  util::Time max_tardiness = util::Time::zero();
  /// Largest observed response time (completion − release) — the measured
  /// WCET in the §3.3 profiling methodology.
  util::Time max_response = util::Time::zero();
  /// Streaming response-time statistics in milliseconds (mean/stddev/min).
  util::OnlineStats response_ms;
  std::uint64_t killed = 0;    ///< jobs aborted by EnforcementPolicy::kKill
  std::uint64_t deferred = 0;  ///< jobs deferred by EnforcementPolicy::kThrottle
};

struct VcpuStats {
  std::uint64_t releases = 0;      ///< budget replenishments
  std::uint64_t exhaustions = 0;   ///< periods that ran the budget dry
  std::uint64_t switches_in = 0;   ///< times scheduled onto the core
  util::Time budget_consumed = util::Time::zero();
};

struct SimStats {
  std::uint64_t jobs_released = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  util::Time max_tardiness = util::Time::zero();
  std::uint64_t vcpu_context_switches = 0;
  std::uint64_t task_dispatches = 0;
  std::uint64_t throttles = 0;
  std::uint64_t refills = 0;
  double total_mem_requests = 0;
  std::vector<double> core_busy_fraction;
  /// Wall time each core spent throttled by the BW regulator.
  std::vector<util::Time> core_throttled_time;
  std::vector<TaskStats> per_task;
  std::vector<VcpuStats> per_vcpu;
  /// Fault-injection / enforcement activity (zero when no faults planned
  /// and the strict policy holds).
  std::uint64_t faults_injected = 0;
  std::uint64_t jobs_killed = 0;
  std::uint64_t jobs_deferred = 0;
  std::uint64_t task_suspensions = 0;
  std::uint64_t vcpu_budget_overruns = 0;
  /// Effective per-task criticality after the fault plan's low_crit_frac
  /// demotions (parallel to per_task).
  std::vector<int> task_criticality;
};

class Simulation {
 public:
  explicit Simulation(SimConfig cfg);
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Run the simulation for `duration` of simulated time (from t = 0).
  void run(util::Time duration);

  const Trace& trace() const { return trace_; }
  /// Move the captured trace events out (Trace::take_events).
  std::vector<TraceEvent> take_trace_events() { return trace_.take_events(); }
  SimStats stats() const;
  const SimConfig& config() const { return cfg_; }

  /// Host-overhead probe for the Table 1/2 benches (owned by the caller,
  /// must outlive the simulation).
  void set_probe(HostProbe* probe);

  /// Semantic-event observer (src/obs metrics recorder; owned by the
  /// caller, must outlive the simulation). May be null.
  void set_observer(SimObserver* observer) { observer_ = observer; }

  /// Dynamic cache repartitioning (the vCAT capability): at `when`, core
  /// `core_index` switches to `ways` cache partitions. In-flight jobs keep
  /// their executed progress; the *remaining* work is re-scaled to the new
  /// miss rate, and memory request rates follow. Call before or during
  /// run() with `when` in the future.
  void schedule_cache_update(util::Time when, std::size_t core_index,
                             unsigned ways);

  /// Runtime VCPU parameter change (the `xl sched-rtds` operation): the
  /// new (period, budget) take effect at the VCPU's next replenishment —
  /// the current server period runs out under the old contract, so budget
  /// accounting is never broken mid-period.
  void schedule_vcpu_update(util::Time when, std::size_t vcpu_index,
                            util::Time period, util::Time budget);

 private:
  // ----- runtime state -----
  struct Job {
    std::int64_t seq = 0;
    util::Time release;
    util::Time deadline;
    util::Time remaining;
    bool missed = false;
    /// Enforcement allowance left — the modeled WCET at release, rescaled
    /// alongside `remaining` on cache updates. Tracked only under
    /// job-budget-enforcing policies (enforces_job_budget).
    util::Time budget_left = util::Time::zero();
    bool enforced = false;  ///< allowance hit zero; enforcement applied
    bool deferred = false;  ///< kThrottle: parked until next replenishment
  };
  struct TaskRt {
    SimTaskSpec spec;
    util::Time requirement;  // R(c) on its VCPU's core
    double req_rate = 0;     // requests per ns while executing
    std::deque<Job> pending; // released, incomplete jobs (FIFO = EDF here)
    std::int64_t next_seq = 0;
    int criticality = 1;     // spec.criticality after low_crit_frac demotion
    bool suspended = false;  // shed by EnforcementPolicy::kDegrade
    TaskStats stats;
  };
  struct VcpuRt {
    SimVcpuSpec spec;
    std::vector<std::size_t> tasks;   // indices into tasks_
    bool released = false;            // in an active period with budget
    bool sync_applied = false;        // first hypercall already taken
    util::Time next_release = util::Time::max();
    util::Time deadline = util::Time::zero();
    util::Time budget_left = util::Time::zero();
    EventQueue::Id release_event = EventQueue::kInvalidId;
    /// Parameter change staged by schedule_vcpu_update; applied at the
    /// next replenishment.
    bool pending_update = false;
    util::Time pending_period = util::Time::zero();
    util::Time pending_budget = util::Time::zero();
    VcpuStats stats;
  };
  struct CoreRt {
    std::vector<std::size_t> vcpus;   // indices into vcpus_
    std::size_t running_vcpu = kNone;
    std::size_t running_task = kNone; // kNone while burning idle budget
    util::Time seg_start = util::Time::zero();
    EventQueue::Id seg_end_event = EventQueue::kInvalidId;
    bool resched_pending = false;
    util::Time busy = util::Time::zero();
    /// Remaining context-switch overhead to burn before the incoming
    /// VCPU's task may execute (consumes budget and wall time).
    util::Time overhead_left = util::Time::zero();
    util::Time throttled_time = util::Time::zero();
    util::Time throttle_start = util::Time::zero();
    unsigned cache = 0;
    unsigned bw = 0;
    /// Execution speed in (0, 1]: below 1 only when the shared bus is
    /// saturated and this core's memory requests are being stalled.
    double exec_rate = 1.0;
  };

  // ----- setup (simulation.cpp) -----
  void setup();
  void issue_release_sync(std::size_t task_index);
  /// (Re)derive a task's requirement R(c) and request rate from its
  /// landing core's current cache allocation.
  void refresh_task_model(std::size_t task_index);
  void apply_cache_update(std::size_t core_index, unsigned ways);

  // ----- hypervisor level (hypervisor.cpp) -----
  void defer_reschedule(std::size_t core_index);
  void plan_segment(std::size_t core_index);
  void recompute_bus_rates();
  void vcpu_release(std::size_t vcpu_index);
  void arm_vcpu_release(std::size_t vcpu_index, util::Time when);
  void interrupt_core(std::size_t core_index);
  void handle_boundaries(std::size_t core_index);
  void account_core(std::size_t core_index);
  void reschedule_core(std::size_t core_index);
  void segment_end(std::size_t core_index);
  std::size_t pick_vcpu(const CoreRt& core) const;
  bool vcpu_eligible(const VcpuRt& v) const;
  void on_throttle(unsigned core_index);
  void on_unthrottle(unsigned core_index);

  // ----- guest level (guest.cpp) -----
  void task_release(std::size_t task_index);
  void release_job(std::size_t task_index, util::Time nominal,
                   bool schedule_next);
  void job_deadline_check(std::size_t task_index);
  void complete_job(std::size_t task_index);
  std::size_t pick_task(const VcpuRt& v) const;
  /// Has a job the scheduler may run now (pending, not suspended by
  /// degradation, front job not deferred by throttling).
  bool task_runnable(const TaskRt& t) const;

  // ----- fault injection (faults.cpp) -----
  void setup_faults();
  util::Time draw_release_jitter(std::size_t task_index);
  double draw_overrun_factor(std::size_t task_index);
  util::Time draw_refill_delay();
  void schedule_next_revocation();
  void inject_revocation();
  void restore_revocation();

  // ----- enforcement (enforcement.cpp) -----
  /// The running job's allowance hit zero with work left: apply the
  /// configured policy. Called from handle_boundaries with accounts done.
  void enforce_job_budget(std::size_t core_index);
  void kill_job(std::size_t task_index);
  void defer_job(std::size_t task_index);
  void trigger_degrade(std::size_t core_index, bool interrupt);
  void resume_degraded(std::size_t core_index);
  void handle_vcpu_budget_overrun(std::size_t vcpu_index);

  SimConfig cfg_;
  EventQueue queue_;
  Trace trace_;
  std::unique_ptr<BwRegulator> regulator_;
  std::vector<TaskRt> tasks_;
  std::vector<VcpuRt> vcpus_;
  std::vector<CoreRt> cores_;
  util::Time duration_ = util::Time::zero();
  util::Rng jitter_rng_{1};
  std::uint64_t vcpu_switches_ = 0;
  std::uint64_t task_dispatches_ = 0;
  HostProbe* probe_ = nullptr;
  SimObserver* observer_ = nullptr;

  // ----- fault & enforcement state -----
  // Forked from Rng(cfg_.faults.seed) in a fixed order (setup_faults), so
  // the fault plan is bit-reproducible regardless of what else runs.
  util::Rng fault_overrun_rng_{1};
  util::Rng fault_jitter_rng_{1};
  util::Rng fault_revoke_rng_{1};
  util::Rng fault_refill_rng_{1};
  std::uint64_t faults_injected_ = 0;
  EnforcementStats enforce_;
  /// Per core: low-criticality tasks stay shed until this instant (zero =
  /// core not degraded).
  std::vector<util::Time> degrade_until_;
  /// CAT mirror for revocation events — kept when the deployed cache plan
  /// is disjoint (sum of ways <= C), so revocations exercise the real COS
  /// programming path.
  std::unique_ptr<hw::MsrFile> cat_msr_;
  std::unique_ptr<hw::Cat> cat_;
  bool revoke_active_ = false;
  std::size_t revoked_core_ = kNone;
  unsigned revoked_saved_ways_ = 0;
};

}  // namespace vc2m::sim

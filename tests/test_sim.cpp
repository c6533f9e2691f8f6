#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/strategy.h"
#include "generated.h"
#include "obs/audit.h"
#include "sim/event_queue.h"
#include "sim/profiling.h"
#include "sim/simulation.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/rng.h"
#include "workload/parsec.h"

// Every global operator new in this binary is counted, so a test can pin a
// code path as allocation-free.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// GCC flags free() of a new'd pointer once these inline into callers.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace vc2m::sim {
namespace {

using util::Time;

// ---------------------------------------------------------- EventQueue ----

TEST(EventQueue, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(3), [&] { order.push_back(3); });
  q.schedule(Time::ms(1), [&] { order.push_back(1); });
  q.schedule(Time::ms(2), [&] { order.push_back(2); });
  q.run_until(Time::ms(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Time::ms(10));
}

TEST(EventQueue, FifoAtEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(1), [&] { order.push_back(1); });
  q.schedule(Time::ms(1), [&] { order.push_back(2); });
  q.schedule(Time::ms(1), [&] { order.push_back(3); });
  q.run_until(Time::ms(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsDispatch) {
  EventQueue q;
  int fired = 0;
  const auto id = q.schedule(Time::ms(1), [&] { ++fired; });
  q.schedule(Time::ms(2), [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // already gone
  EXPECT_FALSE(q.cancel(EventQueue::kInvalidId));
  q.run_until(Time::ms(5));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q.schedule_after(Time::ms(1), tick);
  };
  q.schedule(Time::zero(), tick);
  q.run_until(Time::ms(10));
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(Time::ms(5), [] {});
  q.run_until(Time::ms(5));
  EXPECT_THROW(q.schedule(Time::ms(1), [] {}), util::Error);
}

TEST(EventQueue, FuzzAgainstReferenceModel) {
  // Random schedule/cancel/advance operations; dispatch order must match a
  // straightforward reference (sorted by time, FIFO within a timestamp).
  vc2m::util::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    struct Ref {
      Time when;
      std::uint64_t seq;
      int id;
      bool cancelled = false;
    };
    std::vector<Ref> ref;
    std::vector<EventQueue::Id> ids;
    std::vector<int> fired;

    const int n = 30 + static_cast<int>(rng.index(40));
    for (int i = 0; i < n; ++i) {
      const Time when = Time::us(rng.uniform_int(0, 500));
      ids.push_back(q.schedule(when, [&fired, i] { fired.push_back(i); }));
      ref.push_back({when, static_cast<std::uint64_t>(i), i});
    }
    // Cancel a random third.
    for (int i = 0; i < n / 3; ++i) {
      const auto pick = rng.index(ref.size());
      if (!ref[pick].cancelled) {
        EXPECT_TRUE(q.cancel(ids[pick]));
        ref[pick].cancelled = true;
      }
    }
    q.run_until(Time::ms(1));

    std::vector<Ref> expected;
    for (const auto& r : ref)
      if (!r.cancelled) expected.push_back(r);
    std::sort(expected.begin(), expected.end(), [](const Ref& a, const Ref& b) {
      return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    });
    ASSERT_EQ(fired.size(), expected.size()) << "round " << round;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(fired[i], expected[i].id) << "round " << round;
  }
}

TEST(EventQueue, SpentIdDoesNotCancelTheSlotsNextEvent) {
  // Firing or cancelling frees the payload slot for reuse; the old Id must
  // not reach the event that reuses it.
  EventQueue q;
  std::vector<int> order;
  const auto fired = q.schedule(Time::ms(1), [&] { order.push_back(1); });
  q.run_until(Time::ms(1));
  const auto reused = q.schedule(Time::ms(2), [&] { order.push_back(2); });
  EXPECT_FALSE(q.cancel(fired));
  const auto cancelled = q.schedule(Time::ms(3), [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(cancelled));
  q.schedule(Time::ms(3), [&] { order.push_back(4); });
  q.run_until(Time::ms(3));  // pops the cancelled entry; its slot is freed
  const auto after = q.schedule(Time::ms(4), [&] { order.push_back(5); });
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_FALSE(q.cancel(reused));
  q.run_until(Time::ms(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
  EXPECT_FALSE(q.cancel(after));
}

TEST(EventQueue, CallbacksCanCancel) {
  EventQueue q;
  std::vector<int> order;
  EventQueue::Id self = EventQueue::kInvalidId, same_instant, later;
  self = q.schedule(Time::ms(1), [&] {
    order.push_back(1);
    EXPECT_FALSE(q.cancel(self));  // already dispatching
    EXPECT_TRUE(q.cancel(same_instant));
    EXPECT_TRUE(q.cancel(later));
    EXPECT_FALSE(q.cancel(later));
  });
  same_instant = q.schedule(Time::ms(1), [&] { order.push_back(2); });
  later = q.schedule(Time::ms(2), [&] { order.push_back(3); });
  q.schedule(Time::ms(2), [&] { order.push_back(4); });
  q.run_until(Time::ms(5));
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
  q.run_until(Time::sec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
}

TEST(EventQueue, ScheduleAtNowFromACallbackRunsAfterQueuedPeers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(1), [&] {
    order.push_back(1);
    q.schedule(q.now(), [&] { order.push_back(4); });
  });
  q.schedule(Time::ms(1), [&] { order.push_back(2); });
  q.schedule(Time::ms(1), [&] { order.push_back(3); });
  q.schedule(Time::ms(2), [&] { order.push_back(5); });
  q.run_until(Time::ms(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  q.run_until(Time::ms(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, SameInstantLaneRunsAfterDuePeersAndBeforeTheNextInstant) {
  // Events scheduled at now() from a callback run after every event that
  // was scheduled earlier for this instant, in the order they were
  // scheduled (also when they schedule at now() in turn), and all of them
  // before the next instant.
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(1), [&] {
    order.push_back(1);
    q.schedule(q.now(), [&] {
      order.push_back(4);
      q.schedule(q.now(), [&] { order.push_back(6); });
    });
  });
  q.schedule(Time::ms(1), [&] {
    order.push_back(2);
    q.schedule(q.now(), [&] { order.push_back(5); });
  });
  q.schedule(Time::ms(1) + Time::ns(1), [&] { order.push_back(7); });
  q.schedule(Time::ms(1), [&] { order.push_back(3); });
  q.run_until(Time::ms(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
  q.run_until(Time::ms(1) + Time::ns(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7}));
  q.run_until(Time::sec(1));
  EXPECT_EQ(order.size(), 7u);

  // Before the first dispatch, now() is zero: events at zero take the lane
  // and still run first, FIFO.
  EventQueue z;
  order.clear();
  z.schedule(Time::ms(2), [&] { order.push_back(3); });
  z.schedule(Time::zero(), [&] { order.push_back(1); });
  z.schedule(Time::zero(), [&] { order.push_back(2); });
  z.run_until(Time::ms(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, LaneEntriesCancelAndTheirSpentIdsCancelNothing) {
  EventQueue q;
  std::vector<int> order;
  EventQueue::Id dropped = EventQueue::kInvalidId, fired = EventQueue::kInvalidId;
  q.schedule(Time::ms(1), [&] {
    dropped = q.schedule(q.now(), [&] { order.push_back(9); });
    fired = q.schedule(q.now(), [&] {
      order.push_back(1);
      // Reuses the slot that `fired` names; the spent Id must not reach it.
      const auto next = q.schedule(q.now(), [&] { order.push_back(2); });
      EXPECT_FALSE(q.cancel(fired));
      EXPECT_FALSE(q.cancel(dropped));
      EXPECT_NE(next, fired);
    });
    EXPECT_TRUE(q.cancel(dropped));
    EXPECT_FALSE(q.cancel(dropped));
  });
  q.run_until(Time::ms(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(q.cancel(fired));

  // Outside a callback too: an event at now() is a lane entry.
  const auto at_now = q.schedule(q.now(), [&] { order.push_back(9); });
  const auto later = q.schedule(q.now() + Time::ms(1),
                                [&] { order.push_back(3); });
  EXPECT_TRUE(q.cancel(at_now));
  const auto reused = q.schedule(q.now(), [&] { order.push_back(4); });
  EXPECT_FALSE(q.cancel(at_now));
  q.run_until(q.now() + Time::ms(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_FALSE(q.cancel(reused));
  EXPECT_FALSE(q.cancel(later));
}

TEST(EventQueue, ScheduleAtTheInstantRunUntilReachedIsDispatched) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ms(8), [&] { order.push_back(3); });
  q.run_until(Time::ms(5));
  ASSERT_EQ(q.now(), Time::ms(5));
  q.schedule(Time::ms(5), [&] { order.push_back(1); });
  q.run_until(Time::ms(5));  // the same instant again
  EXPECT_EQ(order, (std::vector<int>{1}));
  q.schedule(Time::ms(5), [&] { order.push_back(2); });
  q.run_until(Time::ms(5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  q.run_until(Time::ms(8));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SteadyStateDispatchAllocatesNothing) {
  // Periodic chains re-arming themselves with two-word closures (the
  // simulator's [this, index] shape), each tick cancelling and re-arming a
  // watchdog and deferring work to the end of its instant (the scheduler's
  // zero-delay re-arm), half of it cancelled again: once the queue has
  // grown its storage, nothing allocates.
  struct Chains {
    EventQueue q;
    std::uint64_t ticks = 0, expired = 0, deferred = 0, kept = 0;
    EventQueue::Id watchdog = EventQueue::kInvalidId;
    void tick(std::size_t i) {
      ++ticks;
      q.cancel(watchdog);
      watchdog = q.schedule_after(Time::us(15), [this] { ++expired; });
      const auto id = q.schedule(q.now(), [this] { ++deferred; });
      if (i % 2 == 0)
        q.cancel(id);
      else
        ++kept;
      q.schedule_after(Time::us(5 + static_cast<std::int64_t>(i % 7)),
                       [this, i] { tick(i); });
    }
  } c;
  for (std::size_t i = 0; i < 8; ++i)
    c.q.schedule(Time::zero(), [&c, i] { c.tick(i); });
  c.q.run_until(Time::ms(1));
  const std::size_t before = g_allocations.load();
  c.q.run_until(Time::ms(20));
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_GT(c.ticks, 10'000u);
  EXPECT_EQ(c.deferred, c.kept);
  EXPECT_GT(c.kept, 1'000u);
}

TEST(EventQueue, InterleavedOperationsMatchReferenceModel) {
  // 10^5 random schedule/cancel/run_until operations, with
  // callbacks that schedule and cancel in turn. Every dispatch must be the
  // earliest pending event of an ordered reference model (time, then
  // insertion sequence), and every cancel must report exactly whether the
  // event was still pending.
  using Key = std::pair<Time, std::uint64_t>;
  EventQueue q;
  vc2m::util::Rng rng(2718);
  std::map<Key, int> ref;  // pending events -> tag
  std::vector<std::pair<EventQueue::Id, Key>> issued;
  std::uint64_t seq = 0;
  std::size_t dispatched = 0;
  std::function<void(Time)> add;

  const auto cancel_random = [&] {
    if (issued.empty()) return;
    // Half the picks among the latest ids, mostly still pending, so stale
    // entries pile up in the heap; the rest among every id ever issued.
    const std::size_t n = issued.size();
    const std::size_t pick = rng.uniform01() < 0.5
                                 ? n - 1 - rng.index(std::min<std::size_t>(n, 100))
                                 : rng.index(n);
    const auto& [id, key] = issued[pick];
    const bool pending = ref.erase(key) > 0;
    ASSERT_EQ(q.cancel(id), pending);
  };
  add = [&](Time when) {
    const Key key{when, seq++};
    const int tag = static_cast<int>(key.second);
    const auto id = q.schedule(when, [&, key, tag] {
      ASSERT_FALSE(ref.empty());
      ASSERT_EQ(ref.begin()->first, key);
      ASSERT_EQ(ref.begin()->second, tag);
      ASSERT_EQ(q.now(), key.first);
      ref.erase(ref.begin());
      ++dispatched;
      // Some callbacks schedule (possibly at now()) or cancel in turn.
      if (tag % 5 == 0) add(q.now() + Time::us(tag % 3));
      if (tag % 7 == 0) cancel_random();
    });
    ref.emplace(key, tag);
    issued.emplace_back(id, key);
  };

  for (int op = 0; op < 100'000; ++op) {
    // Every other block of 5000 operations is a cancel storm, in which
    // cancelled entries come to outnumber the live ones.
    const bool storm = (op / 5000) % 2 == 1;
    const double r = rng.uniform01();
    if (r < (storm ? 0.40 : 0.45)) {
      add(q.now() + Time::us(rng.uniform_int(0, 2000)));
    } else if (r < (storm ? 0.95 : 0.75)) {
      cancel_random();
      if (rng.uniform01() < 0.05) {
        EXPECT_FALSE(q.cancel(EventQueue::kInvalidId));
      }
    } else if (r < (storm ? 0.98 : 0.92)) {
      // Run to the earliest pending instant: at least its first event
      // fires, and nothing pending is left due by then.
      if (ref.empty()) continue;
      const std::size_t before = dispatched;
      const Time next = ref.begin()->first.first;
      q.run_until(next);
      ASSERT_GT(dispatched, before);
      ASSERT_TRUE(ref.empty() || ref.begin()->first.first > next);
    } else {
      const Time t = q.now() + Time::us(rng.uniform_int(0, 150));
      q.run_until(t);
      ASSERT_EQ(q.now(), t);
      ASSERT_TRUE(ref.empty() || ref.begin()->first.first > t);
    }
    if (HasFatalFailure()) return;
  }
  q.run_until(q.now() + Time::ms(10));
  EXPECT_TRUE(ref.empty());
  EXPECT_GT(dispatched, 20'000u);
}

// ------------------------------------------------------- basic running ----

/// The captured events of one kind, in recorded (time) order.
std::vector<TraceEvent> events_of(const Trace& trace, TraceKind kind) {
  std::vector<TraceEvent> out;
  for (const auto& ev : trace.events())
    if (ev.kind == kind) out.push_back(ev);
  return out;
}

SimTaskSpec cpu_task(Time period, Time work, std::size_t vcpu = 0,
                     Time offset = Time::zero()) {
  SimTaskSpec t;
  t.period = period;
  t.offset = offset;
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

TEST(Simulation, SingleTaskOnDedicatedVcpuCompletesEveryJob) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(10))};  // full budget
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  Simulation sim(cfg);
  sim.run(Time::ms(100));
  const auto s = sim.stats();
  // Releases at 0, 10, ..., 100 (the release at the horizon still fires).
  EXPECT_EQ(s.jobs_released, 11u);
  EXPECT_EQ(s.jobs_completed, 10u);
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.per_task[0].max_response, Time::ms(2));
  EXPECT_NEAR(s.core_busy_fraction[0], 1.0, 1e-9);  // idling server burns all
}

TEST(Simulation, NonIdlingServerOnlyRunsWithWork) {
  SimConfig cfg;
  cfg.num_cores = 1;
  auto v = server(Time::ms(10), Time::ms(10));
  v.idling_server = false;
  cfg.vcpus = {v};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  Simulation sim(cfg);
  sim.run(Time::ms(100));
  EXPECT_NEAR(sim.stats().core_busy_fraction[0], 0.2, 1e-9);
}

TEST(Simulation, BudgetSmallerThanDemandMissesDeadlines) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(2))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(3))};  // needs 3, gets 2
  Simulation sim(cfg);
  sim.run(Time::ms(200));
  const auto s = sim.stats();
  EXPECT_GT(s.deadline_misses, 0u);
  EXPECT_GT(s.max_tardiness, Time::zero());
}

TEST(Simulation, ExactBudgetMeetsDeadlinesWhenAligned) {
  // Theorem 1 with synchronized (zero) offsets: Θ = e, Π = p.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(6))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(6))};
  Simulation sim(cfg);
  sim.run(Time::ms(500));
  const auto s = sim.stats();
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_EQ(s.jobs_completed, 50u);
}

// ---------------------------------------------------- release synchron. ----

TEST(Simulation, UnsyncedOffsetCausesPersistentMisses) {
  // Task released at 0 but its VCPU (Π = p, Θ = e) released at 5ms: every
  // job finishes 1ms late — the abstraction overhead in action.
  SimConfig cfg;
  cfg.num_cores = 1;
  auto v = server(Time::ms(10), Time::ms(6));
  v.offset = Time::ms(5);
  cfg.vcpus = {v};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(6))};
  Simulation sim(cfg);
  sim.run(Time::ms(300));
  const auto s = sim.stats();
  EXPECT_GT(s.deadline_misses, 20u);
}

TEST(Simulation, ReleaseSyncRemovesTheMisses) {
  // Same scenario but with the hypercall-based synchronization: the VCPU's
  // first release tracks the task's offset (plus the tiny hypercall delay).
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.release_sync = true;
  cfg.hypercall_delay = Time::us(1);
  auto v = server(Time::ms(10), Time::ms(6));
  v.offset = Time::ms(5);  // ignored: the hypercall re-arms the release
  cfg.vcpus = {v};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(6), 0, /*offset=*/Time::ms(3))};
  Simulation sim(cfg);
  sim.run(Time::ms(300));
  const auto s = sim.stats();
  EXPECT_EQ(s.deadline_misses, 0u);
  EXPECT_GT(s.jobs_completed, 25u);
  EXPECT_GE(sim.trace().count(TraceKind::kHypercall), 1u);
}

TEST(Simulation, IntervalSyncIsImmuneToClockSkew) {
  // VM clock 3.7s ahead of the hypervisor: the interval protocol still
  // aligns the VCPU perfectly (only L crosses the boundary).
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.release_sync = true;
  cfg.vm_clock_skew = Time::ms(3'700);
  cfg.vcpus = {server(Time::ms(10), Time::ms(6))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(6), 0, Time::ms(4))};
  Simulation sim(cfg);
  sim.run(Time::ms(300));
  EXPECT_EQ(sim.stats().deadline_misses, 0u);
}

TEST(Simulation, AbsoluteTimeSyncBreaksUnderClockSkew) {
  // The naive protocol the paper rejects: passing the absolute VM-time
  // release mis-arms the VCPU by the skew, and the tight budget misses.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.release_sync = true;
  cfg.sync_mode = SimConfig::SyncMode::kAbsoluteTime;
  cfg.vm_clock_skew = Time::ms(7);  // VM clock 7ms ahead
  cfg.vcpus = {server(Time::ms(10), Time::ms(6))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(6), 0, Time::ms(4))};
  Simulation sim(cfg);
  sim.run(Time::ms(300));
  EXPECT_GT(sim.stats().deadline_misses, 10u);

  // With synchronized clocks the same protocol works.
  cfg.vm_clock_skew = Time::zero();
  Simulation aligned(cfg);
  aligned.run(Time::ms(300));
  EXPECT_EQ(aligned.stats().deadline_misses, 0u);
}

TEST(Simulation, SyncToleratesLargeTaskOffsets) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.release_sync = true;
  cfg.vcpus = {server(Time::ms(20), Time::ms(5))};
  cfg.tasks = {cpu_task(Time::ms(20), Time::ms(5), 0, Time::ms(17))};
  Simulation sim(cfg);
  sim.run(Time::ms(600));
  EXPECT_EQ(sim.stats().deadline_misses, 0u);
}

// --------------------------------------------------------- EDF details ----

TEST(Simulation, HypervisorEdfPreemptsOnEarlierDeadline) {
  // VCPU 1 (Π = 40) starts first; VCPU 0 (Π = 10) released at t = 0 too but
  // with an earlier deadline, so it runs first; when it exhausts, VCPU 1
  // resumes.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  cfg.vcpus = {server(Time::ms(10), Time::ms(4)),
               server(Time::ms(40), Time::ms(8))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(4), 0),
               cpu_task(Time::ms(40), Time::ms(8), 1)};
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  EXPECT_EQ(s.deadline_misses, 0u);
  const auto scheds = events_of(sim.trace(), TraceKind::kVcpuSchedule);
  ASSERT_GE(scheds.size(), 2u);
  EXPECT_EQ(scheds[0].vcpu, 0);  // earlier deadline first
  EXPECT_EQ(scheds[1].vcpu, 1);
}

TEST(Simulation, TieBreakBySmallerPeriodThenIndex) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  // Same absolute deadline at t=0 (Π equal for 1 & 2; VCPU 0 has smaller Π
  // — wait: all must share the deadline): use Π = 20 everywhere except
  // VCPU 0 with Π = 20 as well; distinguish via index.
  cfg.vcpus = {server(Time::ms(20), Time::ms(2)),
               server(Time::ms(20), Time::ms(2)),
               server(Time::ms(20), Time::ms(2))};
  cfg.tasks = {cpu_task(Time::ms(20), Time::ms(1), 0),
               cpu_task(Time::ms(20), Time::ms(1), 1),
               cpu_task(Time::ms(20), Time::ms(1), 2)};
  Simulation sim(cfg);
  sim.run(Time::ms(20));
  const auto scheds = events_of(sim.trace(), TraceKind::kVcpuSchedule);
  ASSERT_GE(scheds.size(), 3u);
  EXPECT_EQ(scheds[0].vcpu, 0);
  EXPECT_EQ(scheds[1].vcpu, 1);
  EXPECT_EQ(scheds[2].vcpu, 2);
}

TEST(Simulation, GuestEdfPreemptsWithinVcpu) {
  // Long task starts; a short-deadline task released later preempts it
  // inside the same VCPU.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(40), Time::ms(40))};
  cfg.tasks = {cpu_task(Time::ms(40), Time::ms(20), 0),
               cpu_task(Time::ms(10), Time::ms(2), 0, Time::ms(1))};
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  EXPECT_EQ(s.deadline_misses, 0u);
  // The short task would miss without preemption (20ms head start).
  EXPECT_EQ(s.per_task[1].completed, s.per_task[1].released);
}

TEST(Simulation, WellRegulatedVcpuPatternRepeatsEachPeriod) {
  // Harmonic periods, same offset, idling servers, deterministic tie-break:
  // each VCPU's schedule/deschedule times repeat modulo its period
  // (well-regulated execution, the Theorem 2 prerequisite).
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  cfg.vcpus = {server(Time::ms(10), Time::ms(3)),
               server(Time::ms(20), Time::ms(8)),
               server(Time::ms(40), Time::ms(12))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2), 0),
               cpu_task(Time::ms(20), Time::ms(7), 1),
               cpu_task(Time::ms(40), Time::ms(11), 2)};
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  EXPECT_EQ(sim.stats().deadline_misses, 0u);

  // Collect per-VCPU busy intervals and check period-translation symmetry.
  std::map<int, std::vector<std::pair<Time, Time>>> busy;
  std::map<int, Time> open;
  for (const auto& ev : sim.trace().events()) {
    if (ev.kind == TraceKind::kVcpuSchedule) open[ev.vcpu] = ev.when;
    if (ev.kind == TraceKind::kVcpuDeschedule && open.count(ev.vcpu)) {
      busy[ev.vcpu].push_back({open[ev.vcpu], ev.when});
      open.erase(ev.vcpu);
    }
  }
  const Time horizon = Time::ms(400);
  for (std::size_t vi = 0; vi < cfg.vcpus.size(); ++vi) {
    const Time pi = cfg.vcpus[vi].period;
    // Build the busy signature of period k as offsets within the period.
    std::map<std::int64_t, std::vector<std::pair<Time, Time>>> by_period;
    for (const auto& [a, b] : busy[static_cast<int>(vi)]) {
      if (b > horizon - pi) continue;  // skip the final partial period
      by_period[a / pi].push_back({a % pi, a % pi + (b - a)});
    }
    ASSERT_GE(by_period.size(), 3u);
    const auto& first = by_period.begin()->second;
    for (const auto& [k, sig] : by_period)
      EXPECT_EQ(sig, first) << "VCPU " << vi << " period " << k;
  }
}

// ----------------------------------------------- context-switch overhead ----

TEST(SwitchOverhead, ChargedOncePerVcpuSwitch) {
  // Two VCPUs alternating on one core; every switch burns 100µs of budget
  // and wall time during which no task progresses.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpu_switch_cost = Time::us(100);
  cfg.vcpus = {server(Time::ms(10), Time::ms(4)),
               server(Time::ms(10), Time::ms(4))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(3), 0),
               cpu_task(Time::ms(10), Time::ms(3), 1)};
  Simulation sim(cfg);
  sim.run(Time::ms(100));
  const auto s = sim.stats();
  // 4ms budget - 0.1ms switch = 3.9ms service ≥ 3ms demand: still meets.
  EXPECT_EQ(s.deadline_misses, 0u);
  // Each job's response includes the switch overhead.
  EXPECT_GE(s.per_task[0].max_response, Time::ms(3) + Time::us(100));
}

TEST(SwitchOverhead, UnaccountedOverheadBreaksTightBudgets) {
  // Budgets exactly equal to demand: the switch cost makes jobs late —
  // the overhead the analysis must inflate for (§4.1 Remarks).
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpu_switch_cost = Time::us(200);
  cfg.vcpus = {server(Time::ms(10), Time::ms(5)),
               server(Time::ms(10), Time::ms(5))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(5), 0),
               cpu_task(Time::ms(10), Time::ms(5), 1)};
  Simulation broken(cfg);
  broken.run(Time::ms(200));
  EXPECT_GT(broken.stats().deadline_misses, 0u);

  // Inflating the budgets by the per-period overhead (and shrinking the
  // demand accordingly, as the analysis would require util <= 1) fixes it.
  cfg.vcpus[0].budget = Time::ms(5);
  cfg.vcpus[1].budget = Time::ms(5);
  cfg.tasks[0].cpu_work = Time::ms(5) - Time::us(400);
  cfg.tasks[1].cpu_work = Time::ms(5) - Time::us(400);
  Simulation inflated(cfg);
  inflated.run(Time::ms(200));
  EXPECT_EQ(inflated.stats().deadline_misses, 0u);
}

TEST(SwitchOverhead, IdleCoreChargesNothing) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpu_switch_cost = Time::us(100);
  cfg.vcpus = {server(Time::ms(10), Time::ms(2))};
  auto v = cfg.vcpus[0];
  cfg.vcpus[0].idling_server = false;
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(1), 0)};
  Simulation sim(cfg);
  sim.run(Time::ms(100));
  // One switch per period (idle -> VCPU): busy = (1ms work + 0.1ms switch)
  // per 10ms.
  EXPECT_NEAR(sim.stats().core_busy_fraction[0], 0.11, 0.005);
  (void)v;
}

// ------------------------------------------- Theorem 2 property checks ----

// Random harmonic tasksets served by well-regulated VCPUs with bandwidth
// exactly equal to taskset utilization must never miss (Theorem 2), even
// with several such VCPUs competing on one core under the deterministic
// tie-break.
class Theorem2PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(Theorem2PropertyTest, RegulatedVcpusAtExactUtilizationNeverMiss) {
  vc2m::util::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  const std::int64_t base_ms = rng.uniform_int(4, 9);
  const std::int64_t menu_ms[] = {base_ms, base_ms * 2, base_ms * 4};

  SimConfig cfg;
  cfg.num_cores = 1;
  double core_util = 0;
  // 2-3 VCPUs, each serving 1-4 harmonic tasks.
  const std::size_t n_vcpus = 2 + rng.index(2);
  for (std::size_t vi = 0; vi < n_vcpus; ++vi) {
    const std::size_t n_tasks = 1 + rng.index(4);
    // Build the task specs first, then the Theorem-2 budget.
    std::vector<SimTaskSpec> specs;
    double vcpu_util = 0;
    Time pi = Time::max();
    for (std::size_t t = 0; t < n_tasks; ++t) {
      SimTaskSpec spec;
      spec.period = Time::ms(menu_ms[rng.index(3)]);
      const double u = rng.uniform(0.02, 0.25 / static_cast<double>(n_tasks));
      spec.cpu_work = Time::ns(static_cast<std::int64_t>(
          u * static_cast<double>(spec.period.raw_ns())));
      if (spec.cpu_work < Time::us(10)) spec.cpu_work = Time::us(10);
      spec.vcpu = cfg.vcpus.size();
      vcpu_util += spec.cpu_work.ratio(spec.period);
      pi = util::min(pi, spec.period);
      specs.push_back(spec);
    }
    if (core_util + vcpu_util > 0.98) break;
    core_util += vcpu_util;

    // Θ = Π · Σ e_i/p_i, rounded up (the Theorem 2 budget).
    std::int64_t theta_ns = 0;
    for (const auto& spec : specs)
      theta_ns += spec.cpu_work.raw_ns() / (spec.period / pi);
    SimVcpuSpec v;
    v.period = pi;
    v.budget = Time::ns(theta_ns) + Time::ns(static_cast<std::int64_t>(specs.size()));
    v.core = 0;
    v.idling_server = true;  // periodic server: well-regulated execution
    cfg.vcpus.push_back(v);
    for (auto& spec : specs) cfg.tasks.push_back(spec);
  }
  ASSERT_FALSE(cfg.tasks.empty());

  Simulation sim(cfg);
  sim.run(Time::ms(menu_ms[2] * 50));
  const auto s = sim.stats();
  EXPECT_EQ(s.deadline_misses, 0u)
      << "seed " << GetParam() << " core_util " << core_util;
  EXPECT_GT(s.jobs_completed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem2PropertyTest,
                         ::testing::Range(0, 12));

TEST(Simulation, NonIdlingServersBreakWellRegulation) {
  // Design choice §3.2(i): periodic (idling) servers are required for
  // well-regulated execution. A deferrable-style (non-idling) server's
  // busy pattern shifts with task arrivals, so it does NOT repeat each
  // period when a task arrives mid-period.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  auto v0 = server(Time::ms(10), Time::ms(4));
  v0.idling_server = false;
  cfg.vcpus = {v0, server(Time::ms(20), Time::ms(8))};
  // VCPU 0's only task arrives 3ms into every second period of the VCPU.
  cfg.tasks = {cpu_task(Time::ms(20), Time::ms(3), 0, Time::ms(3)),
               cpu_task(Time::ms(20), Time::ms(7), 1)};
  Simulation sim(cfg);
  sim.run(Time::ms(200));

  // Collect VCPU 0's busy signature per period; it must differ between
  // periods with and without an arrival.
  std::map<std::int64_t, Time> busy_per_period;
  Time open = Time::max();
  for (const auto& ev : sim.trace().events()) {
    if (ev.vcpu != 0) continue;
    if (ev.kind == TraceKind::kVcpuSchedule) open = ev.when;
    if (ev.kind == TraceKind::kVcpuDeschedule && open != Time::max()) {
      busy_per_period[open / Time::ms(10)] += ev.when - open;
      open = Time::max();
    }
  }
  // Even-indexed VCPU periods host an arrival; odd ones are empty.
  EXPECT_GT(busy_per_period[0], Time::zero());
  EXPECT_EQ(busy_per_period.count(1), 0u);  // no work, no execution
}

// ------------------------------------------------------- cache scaling ----

TEST(Simulation, FewerCachePartitionsInflateExecution) {
  auto run_with_cache = [](unsigned ways) {
    SimConfig cfg;
    cfg.num_cores = 1;
    cfg.cache_partitions = 20;
    cfg.cache_alloc = {ways};
    cfg.vcpus = {server(Time::ms(50), Time::ms(50))};
    SimTaskSpec t;
    t.period = Time::ms(50);
    t.cpu_work = Time::ms(2);
    t.mem_work_ref = Time::ms(3);
    t.miss_amp = 3.0;
    t.ws_decay = 4.0;
    cfg.tasks = {t};
    Simulation sim(cfg);
    sim.run(Time::ms(500));
    return sim.stats().per_task[0].max_response;
  };
  const Time full = run_with_cache(20);
  const Time half = run_with_cache(10);
  const Time min = run_with_cache(2);
  EXPECT_EQ(full, Time::ms(5));  // 2 + 3·1.0
  EXPECT_GT(half, full);
  EXPECT_GT(min, half);
}

// ---------------------------------------------- runtime VCPU parameters ----

TEST(VcpuUpdate, BudgetIncreaseStopsMisses) {
  // Under-provisioned server (2ms for a 3ms task): misses until the
  // runtime update raises the budget at t = 200ms.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  cfg.vcpus = {server(Time::ms(10), Time::ms(2))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(3))};
  Simulation sim(cfg);
  sim.schedule_vcpu_update(Time::ms(200), 0, Time::ms(10), Time::ms(5));
  sim.run(Time::ms(600));

  std::uint64_t misses_before = 0, misses_after = 0;
  for (const auto& ev : events_of(sim.trace(), TraceKind::kDeadlineMiss))
    (ev.when <= Time::ms(250) ? misses_before : misses_after) += 1;
  EXPECT_GT(misses_before, 10u);
  // A backlog drains shortly after the update; steady state is clean.
  EXPECT_LT(misses_after, 5u);
}

TEST(VcpuUpdate, TakesEffectAtNextReleaseNotMidPeriod) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  cfg.vcpus = {server(Time::ms(10), Time::ms(2))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  Simulation sim(cfg);
  // Staged mid-period at t = 13ms; the period starting at 20ms uses it.
  sim.schedule_vcpu_update(Time::ms(13), 0, Time::ms(20), Time::ms(8));
  sim.run(Time::ms(100));
  // Releases: 0, 10, 20 (old 10ms period until then), then 40, 60, 80, 100
  // under the new 20ms period.
  const auto releases = events_of(sim.trace(), TraceKind::kVcpuRelease);
  ASSERT_GE(releases.size(), 6u);
  EXPECT_EQ(releases[1].when, Time::ms(10));
  EXPECT_EQ(releases[2].when, Time::ms(20));
  EXPECT_EQ(releases[3].when, Time::ms(40));
}

TEST(VcpuUpdate, RejectsInvalidParameters) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(2))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(1))};
  Simulation sim(cfg);
  EXPECT_THROW(sim.schedule_vcpu_update(Time::ms(1), 5, Time::ms(10),
                                        Time::ms(2)),
               util::Error);
  EXPECT_THROW(sim.schedule_vcpu_update(Time::ms(1), 0, Time::ms(10),
                                        Time::ms(11)),
               util::Error);
}

// ---------------------------------------------------- sporadic arrivals ----

TEST(Sporadic, JitterStretchesInterArrivals) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.jitter_seed = 5;
  cfg.vcpus = {server(Time::ms(10), Time::ms(10))};
  auto t = cpu_task(Time::ms(10), Time::ms(1));
  t.arrival_jitter = Time::ms(5);
  cfg.tasks = {t};
  Simulation sim(cfg);
  sim.run(Time::ms(1'000));
  const auto released = sim.stats().jobs_released;
  // Expected inter-arrival 12.5ms: ~80 jobs instead of 100.
  EXPECT_LT(released, 95u);
  EXPECT_GT(released, 65u);
  EXPECT_EQ(sim.stats().deadline_misses, 0u);
}

TEST(Sporadic, JitterIsSeededAndReproducible) {
  auto releases = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.num_cores = 1;
    cfg.jitter_seed = seed;
    cfg.vcpus = {server(Time::ms(10), Time::ms(10))};
    auto t = cpu_task(Time::ms(10), Time::ms(1));
    t.arrival_jitter = Time::ms(4);
    cfg.tasks = {t};
    Simulation sim(cfg);
    sim.run(Time::ms(500));
    return sim.stats().jobs_released;
  };
  EXPECT_EQ(releases(7), releases(7));
  // (Different seeds usually differ, but equality is not impossible;
  // assert only determinism.)
}

TEST(Sporadic, FlatteningBudgetIsRobustToSporadicArrivals) {
  // Theorem 1's interface (Θ = e, Π = p) keeps meeting deadlines when the
  // task turns sporadic: arrivals are at least p apart, so each job finds
  // at least one full budget window before its deadline.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.jitter_seed = 11;
  cfg.vcpus = {server(Time::ms(10), Time::ms(6))};
  auto t = cpu_task(Time::ms(10), Time::ms(6));
  t.arrival_jitter = Time::ms(7);
  cfg.tasks = {t};
  Simulation sim(cfg);
  sim.run(Time::sec(2));
  EXPECT_EQ(sim.stats().deadline_misses, 0u);
  EXPECT_GT(sim.stats().jobs_completed, 80u);
}

TEST(Sporadic, RegulatedMultiTaskVcpuToleratesJitter) {
  // A harmonic pair on one Theorem-2 VCPU (Θ = Π·U) with sporadic
  // arrivals: the regulated supply analysis covers sporadic dbf too.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.jitter_seed = 13;
  cfg.vcpus = {server(Time::ms(10), Time::ms(4))};  // U = 0.2 + 0.2
  auto a = cpu_task(Time::ms(10), Time::ms(2));
  a.arrival_jitter = Time::ms(3);
  auto b = cpu_task(Time::ms(20), Time::ms(4));
  b.arrival_jitter = Time::ms(6);
  cfg.tasks = {a, b};
  Simulation sim(cfg);
  sim.run(Time::sec(2));
  EXPECT_EQ(sim.stats().deadline_misses, 0u);
}

// ------------------------------------------- dynamic cache repartition ----

TEST(CacheRepartition, MoreWaysShrinkResponseTimes) {
  // Cache-sensitive task starts with 2 ways; at t = 250ms the core is
  // repartitioned to all 20 (a vCAT region resize). Responses shrink.
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.cache_partitions = 20;
  cfg.cache_alloc = {2};
  cfg.vcpus = {server(Time::ms(50), Time::ms(50))};
  SimTaskSpec t;
  t.period = Time::ms(50);
  t.cpu_work = Time::ms(2);
  t.mem_work_ref = Time::ms(4);
  t.miss_amp = 3.0;
  cfg.tasks = {t};
  Simulation sim(cfg);
  sim.schedule_cache_update(Time::ms(250), 0, 20);
  sim.run(Time::ms(500));

  const auto events = sim.trace().count(TraceKind::kJobComplete);
  EXPECT_GE(events, 9u);
  // Requirement with 2 ways: 2 + 4·miss(2) > 2 + 4 = 6ms; with 20 ways
  // exactly 6ms. Max response reflects the early phase; after the switch
  // jobs complete in 6ms — check via stats on a second run without update.
  SimConfig rich = cfg;
  rich.cache_alloc = {20};
  Simulation rich_sim(rich);
  rich_sim.run(Time::ms(500));
  EXPECT_GT(sim.stats().per_task[0].max_response,
            rich_sim.stats().per_task[0].max_response);
}

TEST(CacheRepartition, InFlightJobKeepsExecutedFraction) {
  // A 10ms-cpu + 10ms-mem job under full cache; halfway through, the core
  // is cut to 1 way (miss_amp 2 → remaining work doubles its memory part).
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.cache_partitions = 20;
  cfg.cache_alloc = {20};
  cfg.vcpus = {server(Time::ms(100), Time::ms(100))};
  SimTaskSpec t;
  t.period = Time::ms(100);
  t.cpu_work = Time::ms(10);
  t.mem_work_ref = Time::ms(10);
  t.miss_amp = 2.0;
  cfg.tasks = {t};
  Simulation sim(cfg);
  sim.schedule_cache_update(Time::ms(10), 0, 1);
  sim.run(Time::ms(100));
  // R(20) = 20ms; at 10ms half remains; new R(1) = 10 + 10·2 = 30ms, so
  // remaining 0.5 · 30 = 15ms → completion at 25ms.
  EXPECT_EQ(sim.stats().per_task[0].max_response, Time::ms(25));
}

TEST(CacheRepartition, RejectsBadArguments) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(5))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2))};
  Simulation sim(cfg);
  EXPECT_THROW(sim.schedule_cache_update(Time::ms(1), 7, 4), util::Error);
  EXPECT_THROW(sim.schedule_cache_update(Time::ms(1), 0, 0), util::Error);
  EXPECT_THROW(sim.schedule_cache_update(Time::ms(1), 0, 99), util::Error);
}

// ------------------------------------------------------- BW regulation ----

SimConfig memory_hog_config(unsigned bw_partitions) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.cache_partitions = 20;
  cfg.bw_regulation = true;
  cfg.bw_alloc = {bw_partitions};
  cfg.regulation_period = Time::ms(1);
  cfg.requests_per_partition = 1000;
  cfg.vcpus = {server(Time::ms(100), Time::ms(100))};
  SimTaskSpec t;
  t.period = Time::ms(100);
  t.cpu_work = Time::ms(5);
  t.mem_work_ref = Time::ms(15);
  t.mem_requests_ref = 200'000;  // 10k requests/ms while executing
  cfg.tasks = {t};
  return cfg;
}

TEST(Simulation, TightBandwidthBudgetThrottles) {
  Simulation sim(memory_hog_config(2));  // 2k requests/ms vs 10k demanded
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  EXPECT_GT(s.throttles, 50u);
  EXPECT_GT(s.refills, 300u);
  // Throttling leaves the core idle: busy fraction well below 1.
  EXPECT_LT(s.core_busy_fraction[0], 0.9);
}

TEST(Simulation, AmpleBandwidthBudgetNeverThrottles) {
  Simulation sim(memory_hog_config(15));  // 15k requests/ms vs 10k
  sim.run(Time::ms(400));
  EXPECT_EQ(sim.stats().throttles, 0u);
}

TEST(Simulation, RegulatorEnforcesPerPeriodBudget) {
  // Total requests can never exceed budget · (periods + 1).
  Simulation sim(memory_hog_config(3));
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  const double budget_per_period = 3 * 1000;
  EXPECT_LE(s.total_mem_requests,
            budget_per_period * static_cast<double>(s.refills + 1) + 1.0);
  EXPECT_GT(s.total_mem_requests, 0.0);
}

TEST(Simulation, ThrottlingStretchesResponseTimes) {
  Simulation tight(memory_hog_config(2));
  tight.run(Time::ms(400));
  Simulation ample(memory_hog_config(15));
  ample.run(Time::ms(400));
  EXPECT_GT(tight.stats().per_task[0].max_response,
            ample.stats().per_task[0].max_response);
}

TEST(Simulation, IsolationAcrossCores) {
  // A memory hog on core 0 must not delay a CPU-bound task on core 1.
  SimConfig cfg = memory_hog_config(2);
  cfg.num_cores = 2;
  cfg.cache_alloc = {10, 10};
  cfg.bw_alloc = {2, 10};
  cfg.vcpus.push_back(server(Time::ms(10), Time::ms(10), /*core=*/1));
  cfg.tasks.push_back(cpu_task(Time::ms(10), Time::ms(3), /*vcpu=*/1));
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  EXPECT_EQ(s.per_task[1].deadline_misses, 0u);
  EXPECT_EQ(s.per_task[1].max_response, Time::ms(3));
}

// ------------------------------------------------------- bus contention ----

SimConfig contention_pair(bool regulated, bool contention) {
  // Two streaming tasks, each demanding ~8k requests/ms while running, on a
  // bus that carries 10k/ms total.
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_partitions = 10;
  cfg.cache_alloc = {5, 5};
  cfg.bw_alloc = {5, 5};
  cfg.requests_per_partition = 1000;
  cfg.bw_regulation = regulated;
  cfg.bus_contention = contention;
  cfg.bus_requests_per_period = 10'000;
  for (unsigned k = 0; k < 2; ++k) {
    cfg.vcpus.push_back(server(Time::ms(40), Time::ms(40), k));
    SimTaskSpec t;
    t.period = Time::ms(40);
    t.cpu_work = Time::ms(2);
    t.mem_work_ref = Time::ms(8);
    t.mem_requests_ref = 80'000;  // 8k/ms while executing
    t.vcpu = k;
    cfg.tasks.push_back(t);
  }
  return cfg;
}

TEST(BusContention, UnregulatedSharingStretchesBothTasks) {
  // Run the pair: aggregate demand 16k/ms > 10k/ms capacity → both slow.
  Simulation pair(contention_pair(false, true));
  pair.run(Time::ms(400));
  const auto together = pair.stats().per_task[0].max_response;
  // Solo reference: same model with the second task removed.
  SimConfig solo_cfg = contention_pair(false, true);
  solo_cfg.tasks.pop_back();
  solo_cfg.vcpus.pop_back();
  solo_cfg.num_cores = 1;
  solo_cfg.cache_alloc = {5};
  solo_cfg.bw_alloc = {5};
  Simulation solo(solo_cfg);
  solo.run(Time::ms(400));
  const auto alone_resp = solo.stats().per_task[0].max_response;
  EXPECT_EQ(alone_resp, Time::ms(10));  // 2 + 8, no stall (8k < 10k)
  EXPECT_GT(together, alone_resp + Time::ms(2));  // visible interference
}

TEST(BusContention, RegulationRestoresIsolation) {
  // With an ample bus (20k/ms) the regulator is the binding constraint:
  // each task is throttled to its own 5k/ms budget instead of stealing from
  // the other core, so response times follow the *allocated* BW only.
  SimConfig cfg = contention_pair(true, true);
  cfg.bus_requests_per_period = 20'000;
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  // Each task: demand 8k/ms vs budget 5k/ms → throttled, stretch factor
  // 8/5 on the memory-active execution → response ≈ 10ms · 1.6 ± rounding.
  EXPECT_GT(s.throttles, 0u);
  EXPECT_LT(s.per_task[0].max_response, Time::ms(18));
  EXPECT_LT(s.per_task[1].max_response, Time::ms(18));
  EXPECT_EQ(s.deadline_misses, 0u);
}

TEST(BusContention, ProportionalSharingSlowsEvenLightVictims) {
  // The bus serves requests proportionally to issue rate, so even the
  // light consumer (3k/ms) is stretched when the bus is oversubscribed
  // (3k + 8k > 10k capacity) — the interference vC2M's regulation removes.
  SimConfig cfg = contention_pair(false, true);
  cfg.tasks[0].mem_requests_ref = 30'000;  // 3k/ms
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  EXPECT_GT(s.per_task[0].max_response, Time::ms(10));
  EXPECT_GT(s.per_task[1].max_response, Time::ms(10));
}

// ----------------------------------------------------------- profiling ----

TEST(Profiling, WorkloadFromProfileSplitsReferenceWcet) {
  const auto& p = workload::find_profile("ferret");
  ProfilingConfig cfg;
  const auto w = workload_from_profile(p, Time::ms(10), cfg);
  EXPECT_EQ(w.cpu_work + w.mem_work_ref, Time::ms(10));
  EXPECT_NEAR(w.cpu_work.to_ms(), (1.0 - p.mem_frac) * 10.0, 0.01);
  EXPECT_GT(w.mem_requests_ref, 0.0);
}

TEST(Profiling, MeasuredWcetEqualsRequirementWithoutStalls) {
  WorkloadModel w;
  w.cpu_work = Time::ms(4);
  w.mem_work_ref = Time::ms(2);
  w.miss_amp = 2.0;
  ProfilingConfig cfg;
  // Full allocation: no misses beyond reference, no throttling.
  EXPECT_EQ(profile_wcet(w, 20, 20, cfg), Time::ms(6));
}

TEST(Profiling, MeasuredSurfaceIsMonotone) {
  const auto& p = workload::find_profile("dedup");
  ProfilingConfig cfg;
  cfg.jobs = 6;  // keep the test fast
  const auto w = workload_from_profile(p, Time::ms(8), cfg);
  const model::ResourceGrid grid{2, 20, 1, 20};
  // Sample a coarse sub-grid (the full sweep belongs to the bench).
  for (const unsigned c : {2u, 8u, 20u}) {
    for (const unsigned b : {1u, 6u, 20u}) {
      const Time e_cb = profile_wcet(w, c, b, cfg);
      EXPECT_GE(e_cb, profile_wcet(w, 20, 20, cfg) - Time::us(1));
      if (c < 20) {
        EXPECT_GE(profile_wcet(w, 2, b, cfg), e_cb - Time::us(1));
      }
      if (b < 20) {
        EXPECT_GE(profile_wcet(w, c, 1, cfg), e_cb - Time::us(1));
      }
    }
  }
  (void)grid;
}

TEST(Profiling, ThrottlingDominatesAtTinyBandwidth) {
  const auto& p = workload::find_profile("streamcluster");
  ProfilingConfig cfg;
  cfg.jobs = 6;
  const auto w = workload_from_profile(p, Time::ms(8), cfg);
  const Time rich = profile_wcet(w, 20, 20, cfg);
  const Time starved = profile_wcet(w, 20, 1, cfg);
  EXPECT_GT(starved, rich * 2);  // bw_sat 5.5 → heavy stretch at b = 1
}

// ----------------------------------------------------------- accounting ----

TEST(Simulation, ResponseStatisticsAreCoherent) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(5))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2)),
               cpu_task(Time::ms(20), Time::ms(3))};
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  for (const auto& t : s.per_task) {
    ASSERT_EQ(t.response_ms.count(), t.completed);
    EXPECT_LE(t.response_ms.mean(), t.max_response.to_ms() + 1e-9);
    EXPECT_NEAR(t.response_ms.max(), t.max_response.to_ms(), 1e-9);
    EXPECT_GT(t.response_ms.min(), 0.0);
  }
  // Task 0 runs first every period (earlier deadline): constant 2ms
  // response, zero variance.
  EXPECT_NEAR(s.per_task[0].response_ms.stddev(), 0.0, 1e-9);
  EXPECT_NEAR(s.per_task[0].response_ms.mean(), 2.0, 1e-9);
}

TEST(Simulation, PerVcpuStatsTrackServerActivity) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.vcpus = {server(Time::ms(10), Time::ms(4)),
               server(Time::ms(20), Time::ms(6))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(3), 0),
               cpu_task(Time::ms(20), Time::ms(5), 1)};
  Simulation sim(cfg);
  sim.run(Time::ms(200));
  const auto s = sim.stats();
  ASSERT_EQ(s.per_vcpu.size(), 2u);
  EXPECT_EQ(s.per_vcpu[0].releases, 21u);  // 0, 10, ..., 200
  EXPECT_EQ(s.per_vcpu[1].releases, 11u);
  // Idling servers consume their whole budget every period they complete.
  EXPECT_EQ(s.per_vcpu[0].exhaustions, 20u);
  EXPECT_GE(s.per_vcpu[0].switches_in, 20u);
  // Budget consumed ≈ 20 periods · 4ms.
  EXPECT_EQ(s.per_vcpu[0].budget_consumed, Time::ms(80));
}

TEST(Simulation, ThrottledTimeAccounted) {
  Simulation sim(memory_hog_config(2));
  sim.run(Time::ms(400));
  const auto s = sim.stats();
  ASSERT_EQ(s.core_throttled_time.size(), 1u);
  // Demand 10k/ms against a 2k/ms budget: throttled ~80% of each period.
  const double frac = s.core_throttled_time[0].ratio(Time::ms(400));
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.95);
}

TEST(Simulation, StatsAreInternallyConsistent) {
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.vcpus = {server(Time::ms(10), Time::ms(5), 0),
               server(Time::ms(20), Time::ms(10), 1)};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(4), 0),
               cpu_task(Time::ms(20), Time::ms(9), 1)};
  Simulation sim(cfg);
  sim.run(Time::ms(200));
  const auto s = sim.stats();
  EXPECT_EQ(s.jobs_released, 21u + 11u);  // horizon releases included
  EXPECT_GE(s.jobs_released, s.jobs_completed);
  EXPECT_EQ(s.per_task.size(), 2u);
  EXPECT_EQ(s.core_busy_fraction.size(), 2u);
}

// --------------------------------------------------------------- trace ----

TEST(Trace, EventsOfFiltersOneKindInTimeOrder) {
  SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  cfg.vcpus = {server(Time::ms(10), Time::ms(4)),
               server(Time::ms(20), Time::ms(6))};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(3), 0),
               cpu_task(Time::ms(20), Time::ms(5), 1)};
  Simulation sim(cfg);
  sim.run(Time::ms(400));
  const auto& trace = sim.trace();
  ASSERT_GT(trace.events().size(), 100u);
  for (int k = 0; k < static_cast<int>(TraceKind::kCount_); ++k) {
    const auto kind = static_cast<TraceKind>(k);
    const auto evs = events_of(trace, kind);
    // The per-kind counter counts every captured event of its kind.
    EXPECT_EQ(evs.size(), trace.count(kind)) << to_string(kind);
    // Recorded order is time order (the DES never goes backwards).
    for (std::size_t i = 0; i + 1 < evs.size(); ++i)
      EXPECT_LE(evs[i].when, evs[i + 1].when) << to_string(kind);
  }
}

// ------------------------------------------------- golden trace digest ----
//
// A fixed matrix of runs, each folded into one FNV-1a digest over every
// captured TraceEvent and every SimStats counter. Any change in what the
// simulator does — the event engine's dispatch order included — moves a
// digest.

class Digest {
 public:
  void add(std::uint64_t v) { h_ = util::fnv1a_word(h_, v); }
  void add_signed(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add_time(Time t) { add_signed(t.raw_ns()); }
  void add_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::string hex() const { return util::hex16(h_); }

 private:
  std::uint64_t h_ = util::kFnvOffsetBasis;
};

/// "<label> <events> <digest>" for one finished run.
std::string golden_line(const std::string& label, const SimStats& s,
                        const std::vector<TraceEvent>& events) {
  Digest d;
  for (const auto& ev : events) {
    d.add_time(ev.when);
    d.add(static_cast<std::uint64_t>(ev.kind));
    d.add_signed(ev.core);
    d.add_signed(ev.vcpu);
    d.add_signed(ev.task);
    d.add_signed(ev.job);
  }
  for (const std::uint64_t v :
       {s.jobs_released, s.jobs_completed, s.deadline_misses,
        s.vcpu_context_switches, s.task_dispatches, s.throttles, s.refills,
        s.faults_injected, s.jobs_killed, s.jobs_deferred, s.task_suspensions,
        s.vcpu_budget_overruns})
    d.add(v);
  d.add_time(s.max_tardiness);
  d.add_double(s.total_mem_requests);
  for (const double f : s.core_busy_fraction) d.add_double(f);
  for (const Time t : s.core_throttled_time) d.add_time(t);
  for (const auto& t : s.per_task) {
    for (const std::uint64_t v : {t.released, t.completed, t.deadline_misses,
                                  t.killed, t.deferred})
      d.add(v);
    d.add_time(t.max_tardiness);
    d.add_time(t.max_response);
    d.add(t.response_ms.count());
    d.add_double(t.response_ms.mean());
    d.add_double(t.response_ms.variance());
  }
  for (const auto& v : s.per_vcpu) {
    for (const std::uint64_t x : {v.releases, v.exhaustions, v.switches_in})
      d.add(x);
    d.add_time(v.budget_consumed);
  }
  for (const int c : s.task_criticality) d.add_signed(c);
  return label + " " + std::to_string(events.size()) + " " + d.hex() + "\n";
}

std::string golden_line(const std::string& label, const Simulation& sim) {
  return golden_line(label, sim.stats(), sim.trace().events());
}

std::string run_golden(const std::string& label, SimConfig cfg,
                       Time horizon) {
  cfg.capture_trace = true;
  Simulation sim(cfg);
  sim.run(horizon);
  return golden_line(label, sim);
}

TEST(GoldenTrace, CertifiedAllocationsOfAllFiveSolutions) {
  // Each paper solution's allocation of three generated tasksets, audited
  // (obs::audit: CPU-only model, release sync for flattening, the default
  // hypercall latency) for one hyperperiod.
  struct Taskset {
    double util;
    int vms;
    std::uint64_t seed;
  };
  const auto platform = model::PlatformSpec::A();
  std::string got;
  for (const auto& [ref_util, vms, seed] :
       {Taskset{0.3, 1, 1}, Taskset{0.3, 1, 6}, Taskset{0.6, 2, 6}}) {
    const model::Taskset tasks = tests::generated(ref_util, seed, vms);
    for (const auto& key : core::default_solution_keys()) {
      const auto& strat = core::StrategyRegistry::instance().require(key);
      util::Rng rng(seed * 100);
      const auto res =
          core::solve(strat, tasks, platform, core::SolveConfig{}, rng);
      const std::string label =
          key + "/" + std::to_string(vms) + "/" + std::to_string(seed);
      if (!res.schedulable) {
        got += label + " unschedulable\n";
        continue;
      }
      const auto a = obs::audit(strat, tasks, platform, res);
      EXPECT_TRUE(a.check.ok()) << label << ": " << a.check.summary();
      got += golden_line(label, a.stats, a.events);
    }
  }
  EXPECT_EQ(got,
            "flat/1/1 395 feeb0d521226f8cf\n"
            "ovf/1/1 311 9b7e0b40c023e5ff\n"
            "existing/1/1 289 657e62a9fc07b33c\n"
            "even/1/1 204 69bd7be66694fde2\n"
            "baseline/1/1 271 fe2f3eb086a31613\n"
            "flat/1/6 356 c8977e20605d8f5d\n"
            "ovf/1/6 294 16c8039add70b434\n"
            "existing/1/6 293 50c7a1bbf5d1af63\n"
            "even/1/6 188 37a71b2568c24145\n"
            "baseline/1/6 217 d78842331e62ac54\n"
            "flat/2/6 528 4b08a1e76afac9ee\n"
            "ovf/2/6 450 96066317ed05e81f\n"
            "existing/2/6 unschedulable\n"
            "even/2/6 306 4ff56778d1e54071\n"
            "baseline/2/6 347 a8214499c14b8f44\n");
}

TEST(GoldenTrace, RegulationAndBusContention) {
  std::string got;
  got += run_golden("regulated", contention_pair(true, true), Time::ms(400));
  got += run_golden("unregulated", contention_pair(false, true),
                    Time::ms(400));
  got += run_golden("hog", memory_hog_config(3), Time::ms(400));
  EXPECT_EQ(got,
            "regulated 508 b559273b88c86ca4\n"
            "unregulated 108 aed08f3d5c406e5e\n"
            "hog 1740 25bcd3a8db4ccfce\n");
}

TEST(GoldenTrace, ReleaseSyncInBothModesWithOverheads) {
  std::string got;
  for (const auto mode :
       {SimConfig::SyncMode::kInterval, SimConfig::SyncMode::kAbsoluteTime}) {
    SimConfig cfg;
    cfg.num_cores = 2;
    cfg.release_sync = true;
    cfg.sync_mode = mode;
    cfg.hypercall_delay = Time::us(3);
    cfg.vcpu_switch_cost = Time::us(50);
    cfg.vm_clock_skew = Time::ms(2);
    cfg.vcpus = {server(Time::ms(10), Time::ms(5), 0),
                 server(Time::ms(20), Time::ms(6), 0),
                 server(Time::ms(15), Time::ms(9), 1)};
    cfg.tasks = {cpu_task(Time::ms(10), Time::ms(4), 0, Time::ms(3)),
                 cpu_task(Time::ms(20), Time::ms(5), 1, Time::ms(1)),
                 cpu_task(Time::ms(15), Time::ms(4), 2),
                 cpu_task(Time::ms(30), Time::ms(3), 2, Time::ms(7))};
    got += run_golden(
        mode == SimConfig::SyncMode::kInterval ? "interval" : "absolute", cfg,
        Time::ms(300));
  }
  EXPECT_EQ(got,
            "interval 545 34a8c8e1189fcbac\n"
            "absolute 535 5df206c669a7a059\n");
}

TEST(GoldenTrace, EveryEnforcementPolicyUnderAFaultPlan) {
  std::string got;
  for (const std::string name : {"strict", "kill", "throttle", "degrade"}) {
    const EnforcementPolicy policy = *enforcement_policy_from_string(name);
    SimConfig cfg;
    cfg.num_cores = 2;
    cfg.cache_partitions = 8;
    cfg.cache_alloc = {4, 3};
    cfg.bw_regulation = true;
    cfg.bw_alloc = {3, 4};
    cfg.vcpus = {server(Time::ms(10), Time::ms(6), 0),
                 server(Time::ms(20), Time::ms(8), 1),
                 server(Time::ms(40), Time::ms(10), 1)};
    cfg.tasks = {cpu_task(Time::ms(10), Time::ms(2), 0),
                 cpu_task(Time::ms(20), Time::ms(3), 1),
                 cpu_task(Time::ms(40), Time::ms(4), 1),
                 cpu_task(Time::ms(40), Time::ms(3), 2)};
    cfg.tasks[1].mem_work_ref = Time::ms(1);
    cfg.tasks[1].mem_requests_ref = 15'000;
    cfg.tasks[3].mem_work_ref = Time::ms(2);
    cfg.tasks[3].mem_requests_ref = 40'000;
    cfg.faults.overrun_factor = 1.6;
    cfg.faults.overrun_prob = 0.4;
    cfg.faults.max_release_jitter = Time::ms(1);
    cfg.faults.jitter_prob = 0.3;
    cfg.faults.revoke_interval = Time::ms(25);
    cfg.faults.revoke_window = Time::ms(4);
    cfg.faults.revoke_ways = 1;
    cfg.faults.max_refill_delay = Time::us(200);
    cfg.faults.refill_delay_prob = 0.5;
    cfg.faults.low_crit_frac = 0.5;
    cfg.faults.seed = 23;
    cfg.enforcement.policy = policy;
    cfg.capture_trace = true;
    Simulation sim(cfg);
    sim.run(Time::ms(400));
    // Every fault class fires, and so does each policy's own reaction.
    for (const auto kind :
         {TraceKind::kFaultWcetOverrun, TraceKind::kFaultReleaseJitter,
          TraceKind::kPartitionRevoke, TraceKind::kFaultRefillDelay,
          TraceKind::kCoreThrottle})
      EXPECT_GT(sim.trace().count(kind), 0u)
          << name << " " << to_string(kind);
    if (policy == EnforcementPolicy::kKill) {
      EXPECT_GT(sim.trace().count(TraceKind::kJobKilled), 0u);
    } else if (policy == EnforcementPolicy::kThrottle) {
      EXPECT_GT(sim.trace().count(TraceKind::kJobDeferred), 0u);
    } else if (policy == EnforcementPolicy::kDegrade) {
      EXPECT_GT(sim.trace().count(TraceKind::kTaskSuspend), 0u);
    }
    got += golden_line(name, sim);
  }
  EXPECT_EQ(got,
            "strict 2007 071e98ba63d75e65\n"
            "kill 1801 bc97d94ae97843c9\n"
            "throttle 2034 1a4d72058979bf79\n"
            "degrade 1846 5ac16ad91b448357\n");
}

TEST(GoldenTrace, CacheAndVcpuUpdates) {
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.cache_partitions = 20;
  cfg.cache_alloc = {2, 10};
  cfg.capture_trace = true;
  cfg.vcpus = {server(Time::ms(10), Time::ms(3), 0),
               server(Time::ms(20), Time::ms(8), 0),
               server(Time::ms(25), Time::ms(12), 1)};
  cfg.tasks = {cpu_task(Time::ms(10), Time::ms(1), 0),
               cpu_task(Time::ms(20), Time::ms(2), 1),
               cpu_task(Time::ms(25), Time::ms(3), 2)};
  for (auto& t : cfg.tasks) {
    t.mem_work_ref = Time::ms(2);
    t.miss_amp = 3.0;
  }
  Simulation sim(cfg);
  sim.schedule_cache_update(Time::ms(37), 0, 12);
  sim.schedule_cache_update(Time::ms(120), 1, 3);
  sim.schedule_cache_update(Time::ms(121), 0, 2);
  sim.schedule_vcpu_update(Time::ms(55), 1, Time::ms(20), Time::ms(11));
  sim.schedule_vcpu_update(Time::ms(90), 2, Time::ms(50), Time::ms(20));
  sim.run(Time::ms(300));
  EXPECT_EQ(golden_line("updates", sim), "updates 451 eec05fc188926497\n");
}

}  // namespace
}  // namespace vc2m::sim

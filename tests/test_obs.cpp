// Observability layer: metrics registry, trace export/import, the metrics
// recorder, the trace invariant checker, profiler merge/rendering, bench
// reports and the perfdiff gate.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "obs/bench_report.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/report.h"
#include "obs/trace_check.h"
#include "obs/trace_export.h"
#include "sim/simulation.h"
#include "util/error.h"
#include "util/log_histogram.h"

namespace vc2m::obs {
namespace {

using sim::TraceEvent;
using sim::TraceKind;
using util::Time;

// ------------------------------------------------------------ metrics ----

TEST(Histogram, BucketsAreInclusiveUpperEdges) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double x : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) h.add(x);
  ASSERT_EQ(h.num_buckets(), 4u);  // three finite + overflow
  EXPECT_EQ(h.bucket_count(0), 2u);  // 0.5, 1.0
  EXPECT_EQ(h.bucket_count(1), 2u);  // 1.5, 2.0
  EXPECT_EQ(h.bucket_count(2), 1u);  // 4.0
  EXPECT_EQ(h.bucket_count(3), 1u);  // 5.0 overflows
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 6.0);
}

TEST(Histogram, QuantileReportsBucketUpperEdge) {
  Histogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 90; ++i) h.add(0.5);
  for (int i = 0; i < 10; ++i) h.add(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 4.0);
}

TEST(Histogram, OverflowQuantileIsObservedMax) {
  Histogram h({1.0});
  h.add(7.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.5);
}

TEST(Histogram, EmptyIsZeroed) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameMetric) {
  MetricsRegistry reg;
  reg.counter("a").inc(2);
  reg.counter("a").inc(3);
  EXPECT_EQ(reg.counter("a").value(), 5u);
  reg.histogram("h", {1.0}).add(0.5);
  reg.histogram("h", {9.0}).add(0.7);  // bounds of the first call stick
  EXPECT_EQ(reg.histogram("h", {1.0}).count(), 2u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, NameCollisionAcrossKindsThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.histogram("x", {1.0}), util::Error);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_NE(reg.find_counter("x"), nullptr);
}

TEST(MetricsRecorder, StreamsSemanticEventsIntoRegistry) {
  MetricsRegistry reg;
  MetricsRecorder rec(reg);
  rec.on_job_complete(0, Time::ms(5), Time::ms(10), false);
  rec.on_job_complete(0, Time::ms(12), Time::ms(10), true);
  rec.on_vcpu_period_end(1, Time::ms(3), Time::ms(4), false);
  rec.on_vcpu_period_end(1, Time::ms(4), Time::ms(4), true);
  rec.on_throttle_end(2, Time::us(250));

  const auto* ratios = reg.find_histogram("task.0.response_ratio");
  ASSERT_NE(ratios, nullptr);
  EXPECT_EQ(ratios->count(), 2u);
  EXPECT_DOUBLE_EQ(ratios->max(), 1.2);
  EXPECT_EQ(reg.find_counter("task.0.misses")->value(), 1u);
  EXPECT_EQ(reg.find_histogram("vcpu.1.budget_fraction")->count(), 2u);
  EXPECT_EQ(reg.find_counter("vcpu.1.overruns")->value(), 1u);
  EXPECT_EQ(reg.find_counter("core.2.throttles")->value(), 1u);
  EXPECT_EQ(reg.find_counter("core.2.throttled_ns")->value(), 250'000u);
}

// ------------------------------------------------------- trace export ----

std::vector<TraceEvent> tiny_trace() {
  return {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 0},
      {Time::zero(), TraceKind::kTaskDispatch, 0, 0, 0},
      {Time::us(1), TraceKind::kJobComplete, 0, 0, 0, 0},
      {Time::us(2), TraceKind::kVcpuDeschedule, 0, 0},
  };
}

TEST(TraceExport, GoldenChromeJson) {
  // The exact serialized form is part of the contract: stable field order,
  // microsecond timestamps with three decimals, events in recorded order.
  const std::string expected =
      "{\n"
      "\"displayTimeUnit\": \"ms\",\n"
      "\"otherData\": {\"generator\": \"vc2m\", \"events\": \"5\"},\n"
      "\"vc2mEvents\": [\n"
      "{\"t\":0,\"k\":5,\"c\":0,\"v\":0,\"x\":-1,\"j\":-1},\n"
      "{\"t\":0,\"k\":0,\"c\":0,\"v\":0,\"x\":0,\"j\":0},\n"
      "{\"t\":0,\"k\":7,\"c\":0,\"v\":0,\"x\":0,\"j\":-1},\n"
      "{\"t\":1000,\"k\":1,\"c\":0,\"v\":0,\"x\":0,\"j\":0},\n"
      "{\"t\":2000,\"k\":6,\"c\":0,\"v\":0,\"x\":-1,\"j\":-1}\n"
      "],\n"
      "\"traceEvents\": [\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"cores\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"VCPUs\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"core 0\"}},\n"
      "{\"ph\":\"M\",\"pid\":2,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"vcpu 0\"}},\n"
      "{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":0.000,\"s\":\"t\","
      "\"cat\":\"job\",\"name\":\"release task 0\","
      "\"args\":{\"task\":0,\"job\":0}},\n"
      "{\"ph\":\"i\",\"pid\":2,\"tid\":0,\"ts\":1.000,\"s\":\"t\","
      "\"cat\":\"job\",\"name\":\"complete task 0\","
      "\"args\":{\"task\":0,\"job\":0}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":2.000,"
      "\"cat\":\"sched\",\"name\":\"vcpu 0\"},\n"
      "{\"ph\":\"X\",\"pid\":2,\"tid\":0,\"ts\":0.000,\"dur\":2.000,"
      "\"cat\":\"task\",\"name\":\"task 0\"}\n"
      "]\n"
      "}\n";
  std::ostringstream os;
  write_chrome_trace(os, tiny_trace());
  EXPECT_EQ(os.str(), expected);
}

void expect_same_events(const std::vector<TraceEvent>& a,
                        const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].when, b[i].when) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].core, b[i].core) << i;
    EXPECT_EQ(a[i].vcpu, b[i].vcpu) << i;
    EXPECT_EQ(a[i].task, b[i].task) << i;
    EXPECT_EQ(a[i].job, b[i].job) << i;
  }
}

TEST(TraceExport, CsvRoundTrip) {
  const auto events = tiny_trace();
  std::stringstream ss;
  write_trace_csv(ss, events);
  expect_same_events(read_trace_csv(ss), events);
}

TEST(TraceExport, ChromeJsonRoundTripViaVc2mEvents) {
  const auto events = tiny_trace();
  std::stringstream ss;
  write_chrome_trace(ss, events);
  expect_same_events(read_chrome_trace(ss), events);
}

TEST(TraceExport, CsvRejectsGarbage) {
  std::stringstream ss("not,a,trace\n1,2,3\n");
  EXPECT_THROW(read_trace_csv(ss), util::Error);
  std::stringstream js("{\"traceEvents\": []}\n");
  EXPECT_THROW(read_chrome_trace(js), util::Error);
}

/// read_chrome_trace over a document whose vc2mEvents array holds `record`.
std::vector<TraceEvent> read_one_record(const std::string& record) {
  std::stringstream ss("{\n\"vc2mEvents\": [\n" + record +
                       "\n],\n\"traceEvents\": []\n}\n");
  return read_chrome_trace(ss);
}

TEST(TraceExport, ChromeJsonRecordsParseStrictly) {
  // Extreme values in every field, then single-byte mutations of that
  // record. Each mutation was accepted by a scanf-based reader (a sign or
  // a space before a number, a digit that overflows the field, bytes after
  // the record) or breaks the record's layout.
  const std::string base =
      "{\"t\":9223372036854775807,\"k\":1,\"c\":2147483647,"
      "\"v\":-1,\"x\":0,\"j\":-9223372036854775808}";
  const auto events = read_one_record(base);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].when.raw_ns(), INT64_MAX);
  EXPECT_EQ(events[0].kind, static_cast<TraceKind>(1));
  EXPECT_EQ(events[0].core, INT32_MAX);
  EXPECT_EQ(events[0].vcpu, -1);
  EXPECT_EQ(events[0].task, 0);
  EXPECT_EQ(events[0].job, INT64_MIN);
  EXPECT_EQ(read_one_record(base + ",").size(), 1u);  // not the last record

  const auto mutate = [&](std::size_t at, std::size_t drop,
                          const std::string& insert) {
    return base.substr(0, at) + insert + base.substr(at + drop);
  };
  const std::size_t t = base.find("9223"), k = base.find(":1,") + 1,
                    c = base.find("2147"), v = base.find("-1"),
                    x = base.find(":0,") + 1, j = base.find("-9223");
  const std::string malformed[] = {
      mutate(k, 0, "+"),                    // "k":+1
      mutate(x, 0, " "),                    // "x": 0
      mutate(k + 1, 0, " "),                // "k":1 ,
      mutate(t + 19, 0, "0"),               // t overflows int64
      mutate(c + 10, 0, "0"),               // c overflows int32
      mutate(j + 20, 0, "0"),               // j underflows int64
      mutate(x, 0, "-"),                    // "x":-0
      mutate(c, 0, "0x"),                   // hex
      mutate(base.size(), 0, "x"),          // trailing byte
      mutate(base.size(), 0, ",,"),         // two commas
      mutate(base.size() - 1, 1, ""),       // no closing brace
      mutate(0, 1, ""),                     // no opening brace
      mutate(base.find("\"c\""), 1, ""),    // key unquoted
      mutate(base.find(",\"v\""), 1, ";"),  // separator
      mutate(j, 0, "1"),                    // "j":1-9223...
  };
  for (const auto& record : malformed) {
    try {
      read_one_record(record);
      ADD_FAILURE() << "accepted: " << record;
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("malformed vc2mEvents record"),
                std::string::npos)
          << record << ": " << e.what();
    }
  }

  // A mutation that stays in the grammar is a different, valid record.
  EXPECT_EQ(read_one_record(mutate(v, 1, "")).at(0).vcpu, 1);
  try {
    read_one_record(mutate(k, 0, "9"));  // "k":91 is no TraceKind
    ADD_FAILURE() << "accepted kind 91";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unknown kind 91"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceKindStrings, RoundTrip) {
  for (int k = 0; k < static_cast<int>(TraceKind::kCount_); ++k) {
    const auto kind = static_cast<TraceKind>(k);
    const auto back = sim::trace_kind_from_string(sim::to_string(kind));
    ASSERT_TRUE(back.has_value()) << sim::to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(sim::trace_kind_from_string("no-such-kind").has_value());
}

// ------------------------------------------------------------ checker ----

TEST(TraceCheck, AcceptsWellFormedTrace) {
  const auto res = check_trace(tiny_trace());
  EXPECT_TRUE(res.ok()) << res.summary();
  EXPECT_EQ(res.events, 5u);
  EXPECT_EQ(res.releases, 1u);
  EXPECT_EQ(res.completions, 1u);
}

TEST(TraceCheck, DetectsOverlappingVcpusOnOneCore) {
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::us(10), TraceKind::kVcpuSchedule, 0, 1},  // vcpu 0 never left
  };
  const auto res = check_trace(events);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("still occupies"), std::string::npos)
      << res.violations[0].what;
}

TEST(TraceCheck, DetectsDescheduleOfIdleCore) {
  const std::vector<TraceEvent> events = {
      {Time::us(5), TraceKind::kVcpuDeschedule, 0, 3},
  };
  EXPECT_FALSE(check_trace(events).ok());
}

TEST(TraceCheck, DetectsExecutionDuringThrottleWindow) {
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(1), TraceKind::kCoreThrottle, 0},
      // The VCPU keeps running for 1ms inside the throttle window.
      {Time::ms(2), TraceKind::kVcpuDeschedule, 0, 0},
      {Time::ms(3), TraceKind::kCoreUnthrottle, 0},
  };
  const auto res = check_trace(events);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("throttle window"),
            std::string::npos);
}

TEST(TraceCheck, AcceptsSameInstantThrottleDeschedule) {
  // The simulator's causal order: the throttle fires, then the scheduler
  // deschedules at the same timestamp — zero execution overlap.
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(1), TraceKind::kCoreThrottle, 0},
      {Time::ms(1), TraceKind::kVcpuDeschedule, 0, 0},
      {Time::ms(2), TraceKind::kCoreUnthrottle, 0},
      {Time::ms(2), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(3), TraceKind::kVcpuDeschedule, 0, 0},
  };
  const auto res = check_trace(events);
  EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                ? res.summary()
                                : res.violations[0].what);
}

TEST(TraceCheck, DetectsScheduleOntoThrottledCore) {
  const std::vector<TraceEvent> events = {
      {Time::ms(1), TraceKind::kCoreThrottle, 0},
      {Time::ms(1), TraceKind::kVcpuSchedule, 0, 0},
  };
  EXPECT_FALSE(check_trace(events).ok());
}

TEST(TraceCheck, DetectsBudgetOverdraw) {
  TraceCheckConfig cfg;
  cfg.vcpu_budgets = {Time::ms(4)};
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuRelease, 0, 0},
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(6), TraceKind::kVcpuDeschedule, 0, 0},  // 6ms of a 4ms budget
  };
  const auto res = check_trace(events, cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("overdrew"), std::string::npos);
  // The same trace passes without the budget configuration.
  EXPECT_TRUE(check_trace(events).ok());
}

TEST(TraceCheck, BudgetMeterResetsAtReplenishment) {
  TraceCheckConfig cfg;
  cfg.vcpu_budgets = {Time::ms(4)};
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuRelease, 0, 0},
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(3), TraceKind::kVcpuDeschedule, 0, 0},
      {Time::ms(10), TraceKind::kVcpuRelease, 0, 0},
      {Time::ms(10), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(13), TraceKind::kVcpuDeschedule, 0, 0},
  };
  EXPECT_TRUE(check_trace(events, cfg).ok());
}

TEST(TraceCheck, DetectsVcpuOnWrongCore) {
  TraceCheckConfig cfg;
  cfg.vcpu_cores = {1};  // vcpu 0 is partitioned to core 1
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
  };
  EXPECT_FALSE(check_trace(events, cfg).ok());
}

TEST(TraceCheck, DetectsCompletionWithoutRelease) {
  const std::vector<TraceEvent> events = {
      {Time::ms(1), TraceKind::kJobComplete, 0, 0, 0, 0},
  };
  const auto res = check_trace(events);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("never released"),
            std::string::npos);
}

TEST(TraceCheck, DetectsUnmatchedReleaseWithinHorizon) {
  TraceCheckConfig cfg;
  cfg.task_periods = {Time::ms(10)};
  cfg.horizon = Time::ms(100);
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 0},
  };
  const auto res = check_trace(events, cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("neither completed nor missed"),
            std::string::npos);
  // A release whose deadline lies beyond the horizon is legitimately open.
  TraceCheckConfig late = cfg;
  late.horizon = Time::ms(5);
  EXPECT_TRUE(check_trace(events, late).ok());
}

// -------------------------------------- fault / enforcement invariants ----

TEST(TraceCheck, KilledJobIsTerminal) {
  TraceCheckConfig cfg;
  cfg.task_periods = {Time::ms(10)};
  cfg.horizon = Time::ms(100);
  // A kill satisfies the horizon invariant on its own...
  const std::vector<TraceEvent> killed_only = {
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 0},
      {Time::ms(2), TraceKind::kJobKilled, 0, 0, 0, 0},
  };
  EXPECT_TRUE(check_trace(killed_only, cfg).ok());
  // ...but the killed job must never execute afterwards.
  const std::vector<TraceEvent> kill_then_complete = {
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 0},
      {Time::ms(2), TraceKind::kJobKilled, 0, 0, 0, 0},
      {Time::ms(4), TraceKind::kJobComplete, 0, 0, 0, 0},
  };
  const auto res = check_trace(kill_then_complete, cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("after being killed"),
            std::string::npos)
      << res.violations[0].what;
  // A kill of a job that was never released is bogus too.
  const std::vector<TraceEvent> phantom = {
      {Time::ms(2), TraceKind::kJobKilled, 0, 0, 0, 7},
  };
  EXPECT_FALSE(check_trace(phantom, cfg).ok());
}

TEST(TraceCheck, KilledJobCannotMissItsDeadline) {
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 0},
      {Time::ms(2), TraceKind::kJobKilled, 0, 0, 0, 0},
      {Time::ms(10), TraceKind::kDeadlineMiss, 0, 0, 0, 0},
  };
  const auto res = check_trace(events);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("after being killed"),
            std::string::npos);
}

TEST(TraceCheck, SuspendedTaskMustNotBeDispatched) {
  const std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(1), TraceKind::kTaskSuspend, 0, 0, 3},
      {Time::ms(2), TraceKind::kTaskDispatch, 0, 0, 3},
  };
  const auto res = check_trace(events);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("while suspended"),
            std::string::npos);
  // After a resume, dispatching the task is legitimate again.
  const std::vector<TraceEvent> resumed = {
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(1), TraceKind::kTaskSuspend, 0, 0, 3},
      {Time::ms(2), TraceKind::kTaskResume, 0, 0, 3},
      {Time::ms(3), TraceKind::kTaskDispatch, 0, 0, 3},
  };
  EXPECT_TRUE(check_trace(resumed).ok());
}

TEST(TraceCheck, SuspendResumePairingIsEnforced) {
  const std::vector<TraceEvent> double_suspend = {
      {Time::ms(1), TraceKind::kTaskSuspend, 0, 0, 3},
      {Time::ms(2), TraceKind::kTaskSuspend, 0, 0, 3},
  };
  EXPECT_FALSE(check_trace(double_suspend).ok());
  const std::vector<TraceEvent> orphan_resume = {
      {Time::ms(1), TraceKind::kTaskResume, 0, 0, 3},
  };
  EXPECT_FALSE(check_trace(orphan_resume).ok());
}

TEST(TraceCheck, RevokedPartitionMustNotReappearInCosBindings) {
  // While core 0 is revoked to 1 way, a COS binding granting it 4 ways is
  // a violation; the post-restore rebinding is fine.
  const std::vector<TraceEvent> events = {
      {Time::ms(1), TraceKind::kPartitionRevoke, 0, -1, -1, 1},
      {Time::ms(1), TraceKind::kCosProgram, 0, -1, -1, 1},   // shrink: ok
      {Time::ms(2), TraceKind::kCosProgram, 0, -1, -1, 4},   // regrow: bad
      {Time::ms(3), TraceKind::kPartitionRestore, 0, -1, -1, 4},
      {Time::ms(3), TraceKind::kCosProgram, 0, -1, -1, 4},   // restored: ok
  };
  const auto res = check_trace(events);
  EXPECT_EQ(res.total_violations, 1u);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("revoked"), std::string::npos);
}

TEST(TraceCheck, RevocationWindowsCannotNestOrDangle) {
  const std::vector<TraceEvent> nested = {
      {Time::ms(1), TraceKind::kPartitionRevoke, 0, -1, -1, 1},
      {Time::ms(2), TraceKind::kPartitionRevoke, 0, -1, -1, 1},
  };
  EXPECT_FALSE(check_trace(nested).ok());
  const std::vector<TraceEvent> dangling = {
      {Time::ms(1), TraceKind::kPartitionRestore, 0, -1, -1, 4},
  };
  EXPECT_FALSE(check_trace(dangling).ok());
}

TEST(TraceCheck, DeclaredVcpuOverrunLicensesTheOverdraw) {
  TraceCheckConfig cfg;
  cfg.vcpu_budgets = {Time::ms(4)};
  // 6 ms of a 4 ms budget, but the simulator declared the overrun (a
  // non-strict enforcement run): no violation until the next period.
  const std::vector<TraceEvent> declared = {
      {Time::zero(), TraceKind::kVcpuRelease, 0, 0},
      {Time::zero(), TraceKind::kVcpuSchedule, 0, 0},
      {Time::ms(5), TraceKind::kVcpuBudgetOverrun, 0, 0},
      {Time::ms(6), TraceKind::kVcpuDeschedule, 0, 0},
  };
  EXPECT_TRUE(check_trace(declared, cfg).ok());
  // The license expires at the next replenishment.
  std::vector<TraceEvent> next_period = declared;
  next_period.push_back({Time::ms(10), TraceKind::kVcpuRelease, 0, 0});
  next_period.push_back({Time::ms(10), TraceKind::kVcpuSchedule, 0, 0});
  next_period.push_back({Time::ms(16), TraceKind::kVcpuDeschedule, 0, 0});
  const auto res = check_trace(next_period, cfg);
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.violations[0].what.find("overdrew"), std::string::npos);
}

TEST(TraceCheck, ViolationReportingIsCapped) {
  TraceCheckConfig cfg;
  cfg.max_violations = 3;
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i)
    events.push_back({Time::us(i), TraceKind::kJobComplete, 0, 0, i, 0});
  const auto res = check_trace(events, cfg);
  EXPECT_EQ(res.total_violations, 10u);
  EXPECT_EQ(res.violations.size(), 3u);
}

TEST(TraceCheck, OutOfDomainIdsAreViolationsNotCrashes) {
  // Every id an event indexes by must be a valid table index; otherwise the
  // event is reported and skipped.
  const std::vector<std::pair<TraceEvent, std::string>> cases = {
      {{Time::zero(), TraceKind::kVcpuSchedule, -1, 0},
       "vcpu-schedule references invalid core -1"},
      {{Time::zero(), TraceKind::kVcpuRelease, 0, -1},
       "vcpu-release references invalid vcpu -1"},
      {{Time::zero(), TraceKind::kVcpuSchedule, 2'000'000'000, 0},
       "vcpu-schedule references invalid core 2000000000"},
      {{Time::zero(), TraceKind::kCoreThrottle, 65'536},
       "core-throttle references invalid core 65536"},
      {{Time::zero(), TraceKind::kVcpuBudgetOverrun, 0, -7},
       "vcpu-budget-overrun references invalid vcpu -7"},
      {{Time::zero(), TraceKind::kTaskDispatch, 0, 0, -1},
       "task-dispatch references invalid task -1"},
      {{Time::zero(), TraceKind::kJobRelease, 0, 0, 70'000, 0},
       "job-release references invalid task 70000"},
      {{Time::zero(), TraceKind::kJobComplete, 0, 0, 0, -1},
       "job-complete references invalid job -1"},
      {{Time::zero(), TraceKind::kTaskSuspend, 0, 0, -2},
       "task-suspend references invalid task -2"},
  };
  for (const auto& [ev, what] : cases) {
    const auto res = check_trace(std::vector<TraceEvent>{ev});
    ASSERT_EQ(res.total_violations, 1u) << what;
    EXPECT_EQ(res.violations[0].what, what);
  }
  // Two bad fields, two violations; a VCPU release without a core is fine.
  const auto both = check_trace(std::vector<TraceEvent>{
      {Time::zero(), TraceKind::kVcpuDeschedule, -1, -1}});
  EXPECT_EQ(both.total_violations, 2u);
  EXPECT_TRUE(check_trace(std::vector<TraceEvent>{
                              {Time::zero(), TraceKind::kVcpuRelease, -1, 0}})
                  .ok());
  // Fields a kind does not index by are not checked (a refill-delay fault
  // carries no core, a revocation's job field is a way count).
  EXPECT_TRUE(check_trace(std::vector<TraceEvent>{
                              {Time::zero(), TraceKind::kFaultRefillDelay, -1,
                               -1, -1, 300}})
                  .ok());
}

TEST(TraceCheck, SparseJobIdsGoThroughTheFallback) {
  // Job ids far past a task's table land in the fallback; lookups see both
  // stores, and unmatched releases come out in ascending (task, job) order.
  TraceCheckConfig cfg;
  cfg.task_periods = {Time::ms(10), Time::ms(10)};
  cfg.horizon = Time::ms(100);
  const std::int64_t huge = std::int64_t{1} << 60;
  std::vector<TraceEvent> events = {
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 1, 0},
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, huge},
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 0},
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 100},  // fallback
      {Time::zero(), TraceKind::kJobRelease, 0, 0, 0, 3},
      {Time::ms(1), TraceKind::kJobComplete, 0, 0, 0, 0},
      {Time::ms(2), TraceKind::kJobComplete, 0, 0, 0, huge - 1},
  };
  // Fill the dense table up to within reach of job 100, then release 100
  // again: the fallback's copy must still be found.
  for (std::int64_t j = 4; j < 60; ++j)
    events.push_back({Time::ms(3), TraceKind::kJobRelease, 0, 0, 0, j});
  for (std::int64_t j = 4; j < 60; ++j)
    events.push_back({Time::ms(4), TraceKind::kJobComplete, 0, 0, 0, j});
  events.push_back({Time::ms(5), TraceKind::kJobRelease, 0, 0, 0, 100});
  events.push_back({Time::ms(6), TraceKind::kJobComplete, 0, 0, 0, 100});
  const auto res = check_trace(events, cfg);
  std::vector<std::string> what;
  for (const auto& v : res.violations) what.push_back(v.what);
  EXPECT_EQ(what, (std::vector<std::string>{
                      "task 0 job 1152921504606846975 completed but was "
                      "never released",
                      "task 0 job 100 released twice",
                      "task 0 job 3 released but neither completed nor "
                      "missed by the horizon",
                      "task 0 job 1152921504606846976 released but neither "
                      "completed nor missed by the horizon",
                      "task 1 job 0 released but neither completed nor "
                      "missed by the horizon",
                  }));
}

// --------------------------------------------- end to end with the sim ----

sim::SimConfig two_server_config() {
  sim::SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  sim::SimVcpuSpec v0;
  v0.period = Time::ms(10);
  v0.budget = Time::ms(4);
  sim::SimVcpuSpec v1 = v0;
  v1.budget = Time::ms(5);
  cfg.vcpus = {v0, v1};
  sim::SimTaskSpec t0;
  t0.period = Time::ms(10);
  t0.cpu_work = Time::ms(3);
  t0.vcpu = 0;
  sim::SimTaskSpec t1;
  t1.period = Time::ms(20);
  t1.cpu_work = Time::ms(8);
  t1.vcpu = 1;
  cfg.tasks = {t0, t1};
  return cfg;
}

TEST(TraceCheck, SimulatorTraceSatisfiesAllInvariants) {
  auto cfg = two_server_config();
  sim::Simulation s(cfg);
  const auto horizon = Time::ms(200);
  s.run(horizon);
  const auto res = check_trace(s.trace().events(),
                               TraceCheckConfig::from_sim(cfg, horizon));
  EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                ? res.summary()
                                : res.violations[0].what);
  EXPECT_GT(res.releases, 20u);
}

TEST(TraceCheck, RegulatedSimulatorTraceSatisfiesAllInvariants) {
  // Bandwidth-starved workload: dozens of throttle windows; the trace must
  // still show zero execution inside them.
  sim::SimConfig cfg;
  cfg.num_cores = 1;
  cfg.capture_trace = true;
  cfg.bw_regulation = true;
  cfg.bw_alloc = {2};
  cfg.regulation_period = Time::ms(1);
  cfg.requests_per_partition = 1000;
  sim::SimVcpuSpec v;
  v.period = Time::ms(100);
  v.budget = Time::ms(100);
  cfg.vcpus = {v};
  sim::SimTaskSpec t;
  t.period = Time::ms(100);
  t.cpu_work = Time::ms(5);
  t.mem_work_ref = Time::ms(15);
  t.mem_requests_ref = 200'000;
  cfg.tasks = {t};

  sim::Simulation s(cfg);
  const auto horizon = Time::ms(400);
  s.run(horizon);
  EXPECT_GT(s.stats().throttles, 50u);
  const auto res = check_trace(s.trace().events(),
                               TraceCheckConfig::from_sim(cfg, horizon));
  EXPECT_TRUE(res.ok()) << (res.violations.empty()
                                ? res.summary()
                                : res.violations[0].what);
}

TEST(TraceCheck, CorruptedSimulatorTraceIsRejected) {
  auto cfg = two_server_config();
  sim::Simulation s(cfg);
  s.run(Time::ms(100));
  auto events = s.trace().events();
  // Corrupt the trace: clone a schedule event onto an occupied core.
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind == TraceKind::kVcpuSchedule) {
      TraceEvent dup = events[i];
      dup.vcpu = dup.vcpu == 0 ? 1 : 0;
      events.insert(events.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                    dup);
      break;
    }
  }
  EXPECT_FALSE(check_trace(events).ok());
}

TEST(Recorder, EndToEndWithSimulator) {
  auto cfg = two_server_config();
  MetricsRegistry reg;
  MetricsRecorder rec(reg);
  sim::Simulation s(cfg);
  s.set_observer(&rec);
  const auto horizon = Time::ms(200);
  s.run(horizon);
  rec.finalize(s.stats());

  const auto* ratios = reg.find_histogram("task.0.response_ratio");
  ASSERT_NE(ratios, nullptr);
  EXPECT_EQ(ratios->count(), s.stats().per_task[0].completed);
  EXPECT_GT(ratios->max(), 0.0);
  EXPECT_LE(ratios->max(), 1.0);  // schedulable setup: no overruns
  EXPECT_EQ(reg.find_counter("sim.jobs_completed")->value(),
            s.stats().jobs_completed);

  std::ostringstream report;
  write_report(report, cfg, s.stats(), reg, horizon);
  EXPECT_NE(report.str().find("## Cores"), std::string::npos);
  EXPECT_NE(report.str().find("## Tasks"), std::string::npos);
}

// -------------------------------------------- profiler merge & reports ----

/// Hand-built per-thread tree: root -> {phases...} with given counts and
/// per-phase total nanoseconds.
std::shared_ptr<util::PhaseNode> thread_tree(
    const std::vector<std::pair<std::string, std::int64_t>>& phases) {
  auto root = std::make_shared<util::PhaseNode>();
  for (const auto& [name, ns] : phases) {
    auto* n = root->child(name);
    ++n->count;
    n->total_ns += ns;
  }
  return root;
}

TEST(ProfilerMerge, StructureAndCountsAreOrderInvariant) {
  // Worker threads register trees in a nondeterministic order; the merged
  // result must not depend on it.
  const auto a = thread_tree({{"solve", 4'000'000}, {"generate", 1'000'000}});
  const auto b = thread_tree({{"solve", 6'000'000}});
  auto* deep = a->child("solve")->child("hv_alloc");
  deep->count = 4;
  deep->total_ns = 3'000'000;

  const auto ab = merge_trees({a, b});
  const auto ba = merge_trees({b, a});
  const auto fa = flatten_profile(ab);
  const auto fb = flatten_profile(ba);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].path, fb[i].path);
    EXPECT_EQ(fa[i].count, fb[i].count);
    EXPECT_DOUBLE_EQ(fa[i].total_sec, fb[i].total_sec);
  }
  // Children are name-sorted, counts and times sum across threads.
  ASSERT_EQ(fa.size(), 3u);
  EXPECT_EQ(fa[0].path, "generate");
  EXPECT_EQ(fa[1].path, "solve");
  EXPECT_EQ(fa[2].path, "solve/hv_alloc");
  EXPECT_EQ(fa[1].count, 2u);  // one "solve" entry on each thread
  EXPECT_DOUBLE_EQ(fa[1].total_sec, 0.010);
  EXPECT_EQ(fa[2].count, 4u);
}

TEST(ProfilerMerge, SelfTimeIsTotalMinusChildren) {
  const auto t = thread_tree({{"outer", 10'000'000}});
  auto* inner = t->child("outer")->child("inner");
  inner->count = 2;
  inner->total_ns = 4'000'000;
  const auto merged = merge_trees({t});
  ASSERT_EQ(merged.children.size(), 1u);
  const auto& outer = merged.children[0];
  EXPECT_DOUBLE_EQ(outer.total_sec, 0.010);
  EXPECT_DOUBLE_EQ(outer.self_sec, 0.006);
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_DOUBLE_EQ(outer.children[0].self_sec, 0.004);
}

TEST(ProfilerMerge, WriteProfileRendersIndentedTable) {
  const auto t = thread_tree({{"experiment", 2'000'000}});
  t->child("experiment")->child("sweep")->count = 1;
  t->child("experiment")->child("sweep")->total_ns = 1'000'000;
  std::ostringstream os;
  write_profile(os, merge_trees({t}));
  const std::string out = os.str();
  EXPECT_NE(out.find("experiment"), std::string::npos);
  EXPECT_NE(out.find("  sweep"), std::string::npos);  // indented child
  EXPECT_NE(out.find("0.0020"), std::string::npos);
  EXPECT_NE(out.find("0.0010"), std::string::npos);
}

/// A fully-populated report with values that survive %.9g round-trips.
BenchReport sample_report() {
  BenchReport r;
  r.name = "unit";
  r.git_rev = "deadbeef0123";
  r.config["platform"] = "A";
  r.config["note"] = "quotes \" and \\ and\nnewlines";
  r.counters["dbf_evaluations"] = 8192;
  r.counters["vm_alloc_seconds"] = 0.125;
  r.counters["budget_cache_hits"] = 512;
  PhaseStats solve;
  solve.name = "solve";
  solve.count = 9;
  solve.total_sec = 1.5;
  solve.self_sec = 0.25;
  PhaseStats inner;
  inner.name = "hv_alloc";
  inner.count = 9;
  inner.total_sec = 1.25;
  inner.self_sec = 1.25;
  solve.children.push_back(inner);
  r.phases.children.push_back(solve);
  HistogramSummary h;
  h.count = 100;
  h.mean = 0.5;
  h.min = 0.125;
  h.max = 2.0;
  h.p50 = 0.5;
  h.p90 = 1.0;
  h.p95 = 1.5;
  h.p99 = 2.0;
  r.histograms["solve_seconds"] = h;
  r.pool.workers.push_back({40, 3, 0.25, 17});
  r.pool.workers.push_back({38, 5, 0.5, 12});
  return r;
}

TEST(BenchReport, JsonRoundTrip) {
  const auto r = sample_report();
  std::stringstream ss;
  json::write(ss, r);
  const auto back = read_bench_report(ss);
  EXPECT_EQ(back.schema, r.schema);
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.git_rev, r.git_rev);
  EXPECT_EQ(back.config, r.config);
  EXPECT_EQ(back.counters, r.counters);
  ASSERT_EQ(back.phases.children.size(), 1u);
  EXPECT_EQ(back.phases.children[0].name, "solve");
  EXPECT_EQ(back.phases.children[0].count, 9u);
  EXPECT_DOUBLE_EQ(back.phases.children[0].total_sec, 1.5);
  ASSERT_EQ(back.phases.children[0].children.size(), 1u);
  EXPECT_EQ(back.phases.children[0].children[0].name, "hv_alloc");
  ASSERT_EQ(back.histograms.count("solve_seconds"), 1u);
  const auto& h = back.histograms.at("solve_seconds");
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.p95, 1.5);
  ASSERT_EQ(back.pool.workers.size(), 2u);
  EXPECT_EQ(back.pool.workers[1].executed, 38u);
  EXPECT_DOUBLE_EQ(back.pool.workers[1].idle_sec, 0.5);
  EXPECT_EQ(back.pool.workers[0].max_queue, 17u);
}

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(BenchReport, ReaderRejectsGarbageAndForeignSchemas) {
  std::stringstream garbage("this is not json");
  EXPECT_THROW(read_bench_report(garbage), util::Error);
  std::stringstream wrong("{\"schema\": \"somebody-elses/9\"}");
  EXPECT_THROW(read_bench_report(wrong), util::Error);
  // Only the version this reader speaks.
  std::stringstream newer(replaced(
      [] {
        std::stringstream ss;
        json::write(ss, sample_report());
        return ss.str();
      }(),
      "vc2m-bench-report/1", "vc2m-bench-report/2"));
  EXPECT_THROW(read_bench_report(newer), util::Error);
  std::stringstream trailing("{\"schema\": \"vc2m-bench-report/1\"} junk");
  EXPECT_THROW(read_bench_report(trailing), util::Error);
}

TEST(BenchReport, ReaderRejectsDuplicateKeysWithFilePosition) {
  // A truncated-then-rewritten report would silently shadow one value under
  // a lenient parser; the reader must instead name the second occurrence.
  const std::string doc =
      "{\"schema\": \"vc2m-bench-report/1\", \"name\": \"a\", "
      "\"name\": \"b\"}";
  std::stringstream ss(doc);
  try {
    read_bench_report(ss);
    FAIL() << "duplicate key accepted";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'name'"), std::string::npos) << what;
    const std::size_t second = doc.find("\"name\": \"b\"");
    EXPECT_NE(what.find("offset " + std::to_string(second)),
              std::string::npos)
        << what;
  }
}

TEST(BenchReport, ReaderRejectsNonFiniteNumbersWithFilePosition) {
  for (const char* bad : {"NaN", "Infinity", "-Infinity", "1e999"}) {
    const std::string doc =
        std::string("{\"schema\": \"vc2m-bench-report/1\", \"x\": ") + bad +
        "}";
    std::stringstream ss(doc);
    try {
      read_bench_report(ss);
      FAIL() << "accepted " << bad;
    } catch (const util::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("non-finite number"), std::string::npos)
          << bad << ": " << what;
      EXPECT_NE(what.find("offset " + std::to_string(doc.find(bad))),
                std::string::npos)
          << bad << ": " << what;
    }
  }
}

TEST(BenchReport, CountsMustBeExactNonNegativeIntegers) {
  // A phase or histogram count that is negative, fractional, huge (1e30
  // has no uint64 value at all) or at/above 2^53 is refused by name.
  std::stringstream ss;
  json::write(ss, sample_report());
  const std::string text = ss.str();
  for (const std::string& pin : {std::string("\"count\": 9,"),
                                 std::string("\"count\": 100,")}) {
    for (const char* bad :
         {"-7.5", "1e30", "-1", "0.5", "9007199254740992"}) {
      std::stringstream in(
          replaced(text, pin, std::string("\"count\": ") + bad + ","));
      try {
        read_bench_report(in);
        ADD_FAILURE() << pin << " -> " << bad << " was accepted";
      } catch (const util::Error& e) {
        EXPECT_NE(std::string(e.what()).find("'count'"), std::string::npos)
            << e.what();
      }
    }
  }
  // Zero carries no sign.
  std::stringstream minus_zero(
      replaced(text, "\"count\": 9,", "\"count\": -0,"));
  EXPECT_THROW(read_bench_report(minus_zero), util::Error);
  std::stringstream edge(
      replaced(text, "\"count\": 100,", "\"count\": 9007199254740991,"));
  EXPECT_EQ(read_bench_report(edge).histograms.at("solve_seconds").count,
            (std::uint64_t{1} << 53) - 1);
}

TEST(ExplainReport, EventIntegersMustFitTheirFields) {
  ExplainReport r;
  DecisionEvent e;
  e.vm = 3;
  e.entity = 4;
  e.core = 1;
  e.cache = 6;
  e.bw = 5;
  r.events.push_back(e);
  std::ostringstream os;
  json::write(os, r);
  const std::string text = os.str();
  const std::pair<const char*, int> fields[] = {
      {"vm", 3}, {"entity", 4}, {"core", 1}, {"cache", 6}, {"bw", 5}};
  for (const auto& [field, value] : fields) {
    const std::string key = std::string("\"") + field + "\": ";
    const std::string pin = key + std::to_string(value);
    for (const char* bad : {"2147483648", "-2147483649", "1e10", "1.5"}) {
      std::istringstream in(replaced(text, pin, key + bad));
      EXPECT_THROW(read_explain_report(in), util::Error) << field << bad;
    }
    std::istringstream edge(replaced(text, pin, key + "-2147483648"));
    EXPECT_NO_THROW(read_explain_report(edge)) << field;
  }
  // The report-level unsigned fields refuse negatives.
  std::istringstream neg(replaced(text, "\"cores_used\": 0",
                                  "\"cores_used\": -1"));
  EXPECT_THROW(read_explain_report(neg), util::Error);
}

TEST(BenchReport, UnknownKeysAtEveryLevelAreNotesAndMapsStaySorted) {
  std::stringstream ss;
  json::write(ss, sample_report());
  const std::string text = ss.str();
  for (const char* anchor :
       {"\"schema\"", "\"name\": \"hv_alloc\"", "\"count\": 100",
        "\"workers\"", "\"executed\": 38"}) {
    std::stringstream in(
        replaced(text, anchor, std::string("\"from_the_future\": 1, ") + anchor));
    std::vector<std::string> notes;
    EXPECT_NO_THROW(read_bench_report(in, &notes)) << anchor;
    ASSERT_EQ(notes.size(), 1u) << anchor;
    EXPECT_NE(notes[0].find("from_the_future"), std::string::npos);
  }
  // Map members are written in key order; any other order is refused.
  for (const auto& [first, second] :
       {std::pair<std::string, std::string>{"\"budget_cache_hits\"",
                                            "\"dbf_evaluations\""},
        {"\"note\"", "\"platform\""}}) {
    std::string swapped =
        replaced(replaced(text, first, "@@"), second, first);
    std::stringstream in(replaced(swapped, "@@", second));
    EXPECT_THROW(read_bench_report(in), util::Error) << first;
  }
}

TEST(ExplainReport, UnknownKeysAtEveryLevelAreNotes) {
  ExplainReport r;
  r.config["cores"] = "4";
  r.headroom.cores.push_back({});
  r.rejections.push_back({});
  r.events.push_back({});
  std::ostringstream os;
  json::write(os, r);
  const std::string text = os.str();
  for (const char* anchor : {"\"schema\"", "\"spare_cache\"",
                             "\"core\": 0", "\"vm\": -1, \"constraint\"",
                             "\"kind\""}) {
    std::istringstream in(
        replaced(text, anchor, std::string("\"from_the_future\": 1, ") + anchor));
    std::vector<std::string> notes;
    EXPECT_NO_THROW(read_explain_report(in, &notes)) << anchor;
    EXPECT_EQ(notes.size(), 1u) << anchor;
  }
  std::istringstream newer(
      replaced(text, "vc2m-explain-report/1", "vc2m-explain-report/2"));
  EXPECT_THROW(read_explain_report(newer), util::Error);
}

TEST(JsonStrings, OnlyWhatEscapeWritesIsRead) {
  const std::string tricky = "tab\there\nline \\ \"q\" /";
  const std::string doc = "{\"s\": \"" + json::escape(tricky) + "\"}";
  EXPECT_EQ(json::parse(doc, "t").find("s")->str, tricky);
  // Every control byte reads back, the ones without a short escape
  // through escape()'s \u00xx.
  std::string controls;
  for (char c = 0; c < 0x20; ++c) controls.push_back(c);
  const std::string cdoc = "{\"s\": \"" + json::escape(controls) + "\"}";
  ASSERT_NE(cdoc.find("\\u001f"), std::string::npos);
  EXPECT_EQ(json::parse(cdoc, "t").find("s")->str, controls);
  // Raw control bytes, and escapes escape() does not write — `\/`, a
  // printable or short-escaped byte as \u, uppercase hex — are refused.
  for (const char* bad :
       {"{\"s\": \"a\x01" "b\"}", "{\"s\": \"a\tb\"}", "{\"s\": \"\\/\"}",
        "{\"s\": \"\\u0041\"}", "{\"s\": \"\\u000a\"}", "{\"s\": \"\\u001F\"}",
        "{\"s\": \"\\u0020\"}", "{\"s\": \"\\u00\"}"})
    EXPECT_THROW(json::parse(bad, "t"), util::Error) << bad;
}

TEST(BenchReport, SummarisesLogHistogramQuantiles) {
  util::LogHistogram lh;
  for (int i = 1; i <= 1000; ++i) lh.add(static_cast<double>(i));
  const auto s = HistogramSummary::of(lh);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  // Log-bucketed estimates: within one bucket ratio of the exact ranks.
  EXPECT_NEAR(s.p50, 500.0, 500.0 * (lh.bucket_ratio() - 1 + 1e-9));
  EXPECT_NEAR(s.p99, 990.0, 990.0 * (lh.bucket_ratio() - 1 + 1e-9));
}

// ----------------------------------------------------------- perfdiff ----

TEST(PerfDiff, SelfCompareIsClean) {
  const auto r = sample_report();
  const auto d = diff_reports(r, r);
  EXPECT_FALSE(d.has_regression());
  EXPECT_TRUE(d.notes.empty());
  EXPECT_FALSE(d.entries.empty());
  for (const auto& e : d.entries) {
    EXPECT_FALSE(e.regression) << e.kind << ":" << e.key;
    EXPECT_DOUBLE_EQ(e.base, e.current) << e.kind << ":" << e.key;
  }
}

TEST(PerfDiff, DoubledPhaseTimeTripsTheGate) {
  const auto base = sample_report();
  auto cur = base;
  cur.phases.children[0].total_sec *= 2;  // "solve": 1.5 s -> 3.0 s
  const auto d = diff_reports(base, cur);
  EXPECT_TRUE(d.has_regression());
  bool flagged = false;
  for (const auto& e : d.entries)
    if (e.kind == "phase" && e.key == "solve") {
      flagged = true;
      EXPECT_TRUE(e.regression);
      EXPECT_DOUBLE_EQ(e.base, 1.5);
      EXPECT_DOUBLE_EQ(e.current, 3.0);
    }
  EXPECT_TRUE(flagged);
  std::ostringstream os;
  write_perfdiff(os, d);
  EXPECT_NE(os.str().find("REGRESS"), std::string::npos);
  // A generous threshold lets the same pair through.
  PerfDiffOptions lax;
  lax.max_regress = 1.5;
  EXPECT_FALSE(diff_reports(base, cur, lax).has_regression());
}

TEST(PerfDiff, HistogramP95GatesButMeanIsInformational) {
  const auto base = sample_report();
  auto cur = base;
  cur.histograms["solve_seconds"].mean *= 10;
  EXPECT_FALSE(diff_reports(base, cur).has_regression());
  cur = base;
  cur.histograms["solve_seconds"].p95 *= 2;
  EXPECT_TRUE(diff_reports(base, cur).has_regression());
}

TEST(PerfDiff, ImprovementsExemptCountersAndPoolNeverTrip) {
  const auto base = sample_report();
  auto cur = base;
  cur.phases.children[0].total_sec /= 2;        // faster is fine
  cur.counters["budget_cache_hits"] = 1;        // more-is-better: exempt
  cur.pool.workers[0].steals += 1000;           // telemetry: informational
  cur.pool.workers[0].executed += 1000;
  EXPECT_FALSE(diff_reports(base, cur).has_regression());
}

TEST(PerfDiff, TinyAbsoluteDeltasAreNoise) {
  // +50% on a 20 µs phase is under the absolute floor: not a regression,
  // however large the relative growth.
  BenchReport base;
  PhaseStats p;
  p.name = "blip";
  p.count = 1;
  p.total_sec = 2e-5;
  p.self_sec = 2e-5;
  base.phases.children.push_back(p);
  auto cur = base;
  cur.phases.children[0].total_sec = 3e-5;
  EXPECT_FALSE(diff_reports(base, cur).has_regression());
}

TEST(PerfDiff, DefaultFloorIgnoresMillisecondPhaseNoise) {
  // The default floor is 10 ms: a 2 ms phase growing 4x (+6 ms) is noise,
  // and the same phase growing by more than 10 ms trips the gate.
  EXPECT_DOUBLE_EQ(PerfDiffOptions{}.min_abs_sec, 0.01);
  BenchReport base;
  PhaseStats p;
  p.name = "fork_streams";
  p.count = 1;
  p.total_sec = 2e-3;
  p.self_sec = 2e-3;
  base.phases.children.push_back(p);
  auto cur = base;
  cur.phases.children[0].total_sec = 8e-3;
  EXPECT_FALSE(diff_reports(base, cur).has_regression());
  cur.phases.children[0].total_sec = 12.5e-3;
  EXPECT_TRUE(diff_reports(base, cur).has_regression());
}

TEST(PerfDiff, OneSidedKeysBecomeNotes) {
  const auto base = sample_report();
  auto cur = base;
  cur.counters.erase("dbf_evaluations");
  cur.counters["brand_new_counter"] = 7;
  const auto d = diff_reports(base, cur);
  EXPECT_FALSE(d.has_regression());
  EXPECT_FALSE(d.notes.empty());
  bool missing = false, fresh = false;
  for (const auto& n : d.notes) {
    if (n.find("dbf_evaluations") != std::string::npos) missing = true;
    if (n.find("brand_new_counter") != std::string::npos) fresh = true;
  }
  EXPECT_TRUE(missing);
  EXPECT_TRUE(fresh);
}

TEST(PerfDiff, UnlikeConfigsNameEveryDifferingSharedKey) {
  auto base = sample_report();
  base.config = {{"jobs", "1"}, {"platform", "Platform A"}, {"seed", "42"}};
  EXPECT_TRUE(unlike_config(base, base).empty());

  // A key on one side only (a report older than the key) is not a
  // difference; the shared keys must all match.
  auto older = base;
  older.config.erase("seed");
  auto newer = base;
  newer.config["inner_jobs"] = "1";
  EXPECT_TRUE(unlike_config(older, newer).empty());

  auto cur = newer;
  cur.config["jobs"] = "4";
  cur.config["seed"] = "90127";
  EXPECT_EQ(unlike_config(base, cur),
            (std::vector<std::string>{"jobs: '1' vs '4'",
                                      "seed: '42' vs '90127'"}));
  EXPECT_EQ(unlike_config(older, cur),
            (std::vector<std::string>{"jobs: '1' vs '4'"}));
}

// ------------------------------------------------- pool counter tracks ----

TEST(TraceExport, CounterTracksRenderAsTelemetryProcess) {
  TraceMeta meta;
  meta.counters.push_back(
      {"pool/executed", {{Time::ms(1), 5.0}, {Time::ms(2), 9.0}}});
  meta.counters.push_back({"pool/pending", {{Time::ms(1), 3.0}}});
  std::ostringstream os;
  write_chrome_trace(os, {}, meta);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"process_name\",\"args\":{\"name\":"
                     "\"telemetry\"}"),
            std::string::npos);
  EXPECT_NE(out.find("{\"ph\":\"C\",\"pid\":3,\"tid\":0,\"ts\":1000.000,"
                     "\"name\":\"pool/executed\",\"args\":{\"value\":5.000}}"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"value\":9.000"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"pool/pending\""), std::string::npos);
  // Empty tracks emit nothing: the golden serialisation stays untouched.
  TraceMeta with_empty;
  with_empty.counters.push_back({"pool/executed", {}});
  std::ostringstream plain, empty_tracks;
  write_chrome_trace(plain, {});
  write_chrome_trace(empty_tracks, {}, with_empty);
  EXPECT_EQ(plain.str(), empty_tracks.str());
}

}  // namespace
}  // namespace vc2m::obs

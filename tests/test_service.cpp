// Admission-control service suite: trace generation, the write-ahead
// journal, crash-free recovery equivalence (stop_after + --recover must
// reproduce the uninterrupted run's report byte for byte), snapshot
// rotation, the overload ladder, shed policies, the pure Decider (no
// files), enum-name round trips, and the strict
// vc2m-serve-report/1 round trip. scripts/check.sh additionally crash-kills
// the real binary at every injected crash point and diffs the recovered
// report (this suite covers the in-process equivalents).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "core/admission.h"
#include "service/journal.h"
#include "service/report.h"
#include "service/service.h"
#include "service/trace_gen.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/rng.h"

namespace vc2m::service {
namespace {

std::string report_text(const ServeReport& r) {
  std::ostringstream os;
  write_serve_report(os, r);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

ServiceConfig small_config(const std::string& spec =
                               "poisson:requests=300,interarrival-us=300,"
                               "util=0.1..0.4") {
  ServiceConfig cfg;
  cfg.trace = parse_trace_spec(spec);
  cfg.seed = 7;
  return cfg;
}

// ---------------------------------------------------------------------------
// Trace generation.

TEST(TraceGen, DeterministicAndComplete) {
  const TraceConfig cfg = parse_trace_spec(
      "poisson:requests=2000,interarrival-us=250,util=0.1..0.5,"
      "remove-frac=0.3,resize-frac=0.1");
  const auto a = generate_trace(cfg, 11);
  const auto b = generate_trace(cfg, 11);
  ASSERT_EQ(a.size(), 2000u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, i);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].vm, b[i].vm);
    EXPECT_EQ(a[i].at.raw_ns(), b[i].at.raw_ns());
    EXPECT_EQ(a[i].taskset_seed, b[i].taskset_seed);
    if (i > 0) {
      EXPECT_GE(a[i].at.raw_ns(), a[i - 1].at.raw_ns());
    }
  }
  const auto c = generate_trace(cfg, 12);
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i)
    differs = a[i].kind != c[i].kind || a[i].at != c[i].at;
  EXPECT_TRUE(differs) << "seed does not influence the trace";
}

TEST(TraceGen, PatternsAndSpecErrors) {
  for (const char* p : {"poisson", "flash", "diurnal"})
    EXPECT_EQ(parse_trace_spec(p).spec, p);
  EXPECT_EQ(parse_trace_spec("flash:flash-x=12").flash_x, 12.0);
  const auto u = parse_trace_spec("poisson:util=0.2..0.6");
  EXPECT_DOUBLE_EQ(u.util_lo, 0.2);
  EXPECT_DOUBLE_EQ(u.util_hi, 0.6);
  EXPECT_THROW(parse_trace_spec("bursty"), util::Error);
  EXPECT_THROW(parse_trace_spec("poisson:wat=1"), util::Error);
  EXPECT_THROW(parse_trace_spec("poisson:requests=x"), util::Error);
  EXPECT_THROW(parse_trace_spec("poisson:util=0.5"), util::Error);
  EXPECT_THROW(parse_trace_spec("poisson:requests=0"), util::Error);
  // Every item must be key=value: an empty item anywhere is an error.
  EXPECT_NO_THROW(parse_trace_spec("poisson:requests=5,util=0.1..0.2"));
  for (const char* spec :
       {"poisson:requests=5,", "poisson:requests=5,,util=0.1..0.2",
        "poisson:,requests=5", "poisson:", "poisson:,"})
    EXPECT_THROW(parse_trace_spec(spec), util::Error) << spec;
}

// ---------------------------------------------------------------------------
// Journal framing.

TEST(Journal, RoundTripAndHeader) {
  const std::string path = testing::TempDir() + "/vc2m_journal_rt.wal";
  JournalWriter w;
  w.open_fresh(path, "cafebabecafebabe", 3);
  w.append("alpha");
  w.append("beta|gamma");
  w.close();
  const JournalScan scan = scan_journal(path);
  EXPECT_TRUE(scan.exists);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.config_digest, "cafebabecafebabe");
  EXPECT_EQ(scan.base, 3u);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], "alpha");
  EXPECT_EQ(scan.records[1], "beta|gamma");
  EXPECT_FALSE(scan.torn);
  std::remove(path.c_str());
}

TEST(Journal, TornTailYieldsValidPrefix) {
  const std::string path = testing::TempDir() + "/vc2m_journal_torn.wal";
  JournalWriter w;
  w.open_fresh(path, "d1", 0);
  w.append("one");
  w.append("two");
  w.close();
  const auto full = scan_journal(path);
  ASSERT_EQ(full.records.size(), 2u);
  // Simulate a crash mid-append: chop bytes off the last frame.
  const std::string bytes = read_file(path);
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() - 3);
  const auto torn = scan_journal(path);
  EXPECT_TRUE(torn.header_ok);
  EXPECT_TRUE(torn.torn);
  ASSERT_EQ(torn.records.size(), 1u);
  EXPECT_EQ(torn.records[0], "one");
  EXPECT_LT(torn.valid_bytes, bytes.size());
  // open_append at valid_bytes drops the tail; the next append is clean.
  JournalWriter w2;
  w2.open_append(path, torn.valid_bytes);
  w2.append("three");
  w2.close();
  const auto healed = scan_journal(path);
  EXPECT_FALSE(healed.torn);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[1], "three");
  std::remove(path.c_str());
}

TEST(Journal, CorruptByteInvalidatesFrameAndSuffix) {
  const std::string path = testing::TempDir() + "/vc2m_journal_corrupt.wal";
  JournalWriter w;
  w.open_fresh(path, "d2", 0);
  w.append("first-record");
  w.append("second-record");
  w.close();
  std::string bytes = read_file(path);
  // Flip one byte inside the first data record's payload (header frame is
  // first; find the payload text).
  const auto pos = bytes.find("first-record");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos] ^= 0x20;
  std::ofstream(path, std::ios::binary) << bytes;
  const auto scan = scan_journal(path);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_TRUE(scan.torn);
  EXPECT_TRUE(scan.records.empty());  // nothing after the bad frame counts
  std::remove(path.c_str());
}

TEST(Journal, MissingFileAndGarbageHeader) {
  const auto missing =
      scan_journal(testing::TempDir() + "/vc2m_no_such_journal.wal");
  EXPECT_FALSE(missing.exists);
  const std::string path = testing::TempDir() + "/vc2m_journal_garbage.wal";
  std::ofstream(path, std::ios::binary) << "this is not a journal at all";
  const auto scan = scan_journal(path);
  EXPECT_TRUE(scan.exists);
  EXPECT_FALSE(scan.header_ok);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Journal records & crash specs.

TEST(JournalRecord, SerializeParseRoundTrip) {
  JournalRecord r;
  r.seq = 41;
  r.attempt = 2;
  r.vm = -3;
  r.tasks = 9;
  r.events = 17;
  r.cost_ns = 123456;
  r.latency_ns = 7890;
  // Every request kind and every outcome round-trips through its name.
  for (std::size_t k = 0; k < std::size(kRequestKindNames); ++k)
    for (std::uint8_t o = 0; o <= static_cast<std::uint8_t>(
                                      Outcome::kResizeRejected);
         ++o) {
      r.kind = static_cast<RequestKind>(k);
      r.outcome = static_cast<Outcome>(o);
      const std::string text = serialize(r);
      EXPECT_EQ(text.find('?'), std::string::npos) << text;
      const JournalRecord p = parse_journal_record(text);
      EXPECT_EQ(p.seq, r.seq);
      EXPECT_EQ(p.attempt, r.attempt);
      EXPECT_EQ(p.kind, r.kind);
      EXPECT_EQ(p.outcome, r.outcome);
      EXPECT_EQ(p.vm, r.vm);
      EXPECT_EQ(p.tasks, r.tasks);
      EXPECT_EQ(p.events, r.events);
      EXPECT_EQ(p.cost_ns, r.cost_ns);
      EXPECT_EQ(p.latency_ns, r.latency_ns);
      EXPECT_EQ(serialize(p), text);
    }
}

TEST(JournalRecord, ParseRejectsMalformedPayloads) {
  const std::string good = serialize(JournalRecord{});
  EXPECT_NO_THROW(parse_journal_record(good));
  EXPECT_THROW(parse_journal_record(""), util::Error);
  EXPECT_THROW(parse_journal_record("seq=1"), util::Error);
  EXPECT_THROW(parse_journal_record(good + "|extra=1"), util::Error);
  std::string wrong_key = good;
  wrong_key.replace(wrong_key.find("seq="), 4, "sqe=");
  EXPECT_THROW(parse_journal_record(wrong_key), util::Error);
  std::string bad_outcome = good;
  const auto at = bad_outcome.find("outcome=");
  bad_outcome.replace(at, bad_outcome.find('|', at) - at, "outcome=exploded");
  EXPECT_THROW(parse_journal_record(bad_outcome), util::Error);
}

TEST(CrashSpec, ParseAndErrors) {
  EXPECT_EQ(parse_crash_spec("before-append:250").point,
            CrashPoint::kBeforeAppend);
  EXPECT_EQ(parse_crash_spec("after-append:7").at, 7u);
  EXPECT_EQ(parse_crash_spec("mid-snapshot:2").point,
            CrashPoint::kMidSnapshot);
  EXPECT_THROW(parse_crash_spec("before-append"), util::Error);
  EXPECT_THROW(parse_crash_spec("sideways:3"), util::Error);
  EXPECT_THROW(parse_crash_spec("mid-snapshot:x"), util::Error);
  // Every crash point parses back from its name; "none" is not a point.
  for (std::size_t i = 1; i < std::size(kCrashPointNames); ++i)
    EXPECT_EQ(parse_crash_spec(std::string(kCrashPointNames[i]) + ":1").point,
              static_cast<CrashPoint>(i));
  EXPECT_THROW(parse_crash_spec("none:1"), util::Error);
}

TEST(CrashSpec, CountIsAStrictUnsignedInteger) {
  // " -5" used to wrap to 2^64 - 5, so the crash never fired.
  for (const char* n : {" -5", "-5", "+3", " 3", "3 ", "", "0x10", "1e3"})
    EXPECT_THROW(parse_crash_spec(std::string("after-append:") + n),
                 util::Error)
        << "'" << n << "'";
  EXPECT_EQ(parse_crash_spec("after-append:18446744073709551615").at,
            18446744073709551615ull);
  EXPECT_THROW(parse_crash_spec("after-append:18446744073709551616"),
               util::Error);
}

// ---------------------------------------------------------------------------
// Shed policies.

TEST(ShedPolicy, VictimSelection) {
  // Build a tiny synthetic trace: seq -> (kind, util, criticality).
  std::vector<ServeRequest> trace(5);
  trace[0] = {0, util::Time::zero(), RequestKind::kAdmit, 10, 0.8, 1, 0};
  trace[1] = {1, util::Time::zero(), RequestKind::kRemove, 11, 0.0, 1, 0};
  trace[2] = {2, util::Time::zero(), RequestKind::kAdmit, 12, 0.3, 0, 0};
  trace[3] = {3, util::Time::zero(), RequestKind::kAdmit, 13, 0.5, 0, 0};
  trace[4] = {4, util::Time::zero(), RequestKind::kAdmit, 14, 0.4, 1, 0};
  const std::vector<QueueEntry> queue = {
      {0, 0, util::Time::zero()},
      {1, 0, util::Time::zero()},
      {2, 0, util::Time::zero()},
      {3, 0, util::Time::zero()},
  };
  const QueueEntry incoming{4, 0, util::Time::zero()};

  // reject-newest: always the incoming entry.
  EXPECT_EQ(shed_victim(ShedPolicy::kRejectNewest, queue, incoming, trace),
            queue.size());
  // reject-largest: seq 0 has the largest utilization (0.8).
  EXPECT_EQ(shed_victim(ShedPolicy::kRejectLargest, queue, incoming, trace),
            0u);
  // criticality: best-effort entries first — seq 3 (util 0.5) beats seq 2
  // (util 0.3); both beat every critical entry.
  EXPECT_EQ(shed_victim(ShedPolicy::kCriticality, queue, incoming, trace),
            3u);
  // Removes are never shed: a queue of only removes sheds the incoming
  // admit under reject-largest.
  const std::vector<QueueEntry> removes = {{1, 0, util::Time::zero()}};
  EXPECT_EQ(shed_victim(ShedPolicy::kRejectLargest, removes, incoming, trace),
            removes.size());
}

TEST(ShedPolicy, Names) {
  ShedPolicy p;
  EXPECT_TRUE(shed_policy_from_string("reject-largest", p));
  EXPECT_EQ(p, ShedPolicy::kRejectLargest);
  EXPECT_FALSE(shed_policy_from_string("reject-oldest", p));
  EXPECT_STREQ(to_string(ShedPolicy::kCriticality), "criticality");
  // Every policy round-trips through its name.
  for (const ShedPolicy want :
       {ShedPolicy::kRejectNewest, ShedPolicy::kRejectLargest,
        ShedPolicy::kCriticality}) {
    ShedPolicy got = ShedPolicy::kRejectNewest;
    ASSERT_TRUE(shed_policy_from_string(to_string(want), got))
        << to_string(want);
    EXPECT_EQ(got, want);
  }
}

// ---------------------------------------------------------------------------
// The Decider, without files: a pure function of (state, request, start
// time, config).

ServeRequest request(RequestKind kind, int vm, double util) {
  ServeRequest req;
  req.seq = 5;
  req.kind = kind;
  req.vm = vm;
  req.util = util;
  req.taskset_seed = 1234;
  return req;
}

TEST(Decider, AbsentVmIsNotPresentAtFixedCost) {
  const State empty;
  const ServiceConfig cfg = small_config();
  for (const RequestKind kind : {RequestKind::kRemove, RequestKind::kResize}) {
    const ServeRequest req = request(kind, 99, 0.3);
    const Decision d = decide(empty, req, {req.seq, 0, util::Time::zero()},
                              util::Time::zero(), cfg);
    EXPECT_EQ(d.rec.outcome, Outcome::kNotPresent) << to_string(kind);
    EXPECT_EQ(d.rec.cost_ns, 2'000);
    EXPECT_EQ(d.rec.seq, req.seq);
    EXPECT_EQ(d.rec.vm, 99);
    EXPECT_FALSE(d.adm.has_value());
    EXPECT_EQ(d.rec.dbf_evals + d.rec.budget_evals + d.rec.admission_tests,
              0u);
  }
}

TEST(Decider, DeadlineLadderProbesDefersAndTimesOut) {
  // An estimate far past any deadline forces the downgrade to the probe.
  State st;
  st.est_ns_per_task = 1'000'000'000;
  ServiceConfig cfg = small_config();
  cfg.deadline = util::Time::us(100);
  cfg.max_retries = 2;
  auto decide_at = [&](double util, unsigned attempt) {
    const ServeRequest req = request(RequestKind::kAdmit, 1, util);
    return decide(st, req, {req.seq, attempt, util::Time::zero()},
                  util::Time::zero(), cfg);
  };
  // Demand above the headroom of an empty 4-core platform A: a real
  // rejection, whatever the attempt.
  const Decision over = decide_at(5.0, 0);
  EXPECT_EQ(over.rec.outcome, Outcome::kProbeRejected);
  EXPECT_FALSE(over.adm.has_value());
  // Demand that fits: deferred below the retry budget, timed out at it.
  const Decision first = decide_at(0.3, 0);
  EXPECT_EQ(first.rec.outcome, Outcome::kDeferred);
  EXPECT_EQ(decide_at(0.3, 1).rec.outcome, Outcome::kDeferred);
  EXPECT_EQ(decide_at(0.3, 2).rec.outcome, Outcome::kTimedOut);
  // The probe costs its fixed model, not a solve: no allocator effort.
  EXPECT_EQ(first.rec.cost_ns,
            4'000 + 100 * static_cast<std::int64_t>(first.rec.tasks));
  EXPECT_EQ(first.rec.dbf_evals + first.rec.budget_evals, 0u);
}

TEST(Decider, AdmitMatchesDirectAdmitVm) {
  const State empty;
  const ServiceConfig cfg = small_config();
  const ServeRequest req = request(RequestKind::kAdmit, 1, 0.4);
  const QueueEntry entry{req.seq, 1, util::Time::zero()};
  const Decision d = decide(empty, req, entry, util::Time::zero(), cfg);

  util::AllocCounterScope counters;
  util::Rng rng(mix_seed(cfg.seed, entry.seq, entry.attempt));
  core::VmAllocConfig vmc = cfg.vm_cfg;
  vmc.request_id = static_cast<std::int64_t>(entry.seq);
  const core::AdmitResult r =
      core::admit_vm(empty.adm, materialize_taskset(req, cfg.platform.grid),
                     req.vm, cfg.platform, vmc, rng);
  ASSERT_TRUE(r.admitted) << "an empty platform A takes a 0.4 VM";
  EXPECT_EQ(d.rec.outcome, Outcome::kAdmitted);
  ASSERT_TRUE(d.adm.has_value());
  EXPECT_EQ(d.adm->vcpus.size(), r.state.vcpus.size());
  EXPECT_EQ(d.adm->mapping.cores_used, r.state.mapping.cores_used);
  const util::AllocCounters& ac = counters.counters();
  EXPECT_EQ(d.rec.dbf_evals, ac.dbf_evaluations);
  EXPECT_EQ(d.rec.budget_evals, ac.budget_evaluations);
  EXPECT_EQ(d.rec.admission_tests, ac.admission_tests);
  EXPECT_GT(d.rec.admission_tests, 0u);
}

// ---------------------------------------------------------------------------
// The service loop.

TEST(Service, DeterministicReports) {
  const auto a = run_service(small_config());
  const auto b = run_service(small_config());
  EXPECT_FALSE(a.interrupted);
  EXPECT_EQ(report_text(a.report), report_text(b.report));
  EXPECT_GT(a.report.admitted, 0u);
  EXPECT_GT(a.report.commits, 0u);
  // Terminal outcomes + deferrals partition the enqueued attempts.
  const auto& r = a.report;
  const std::uint64_t terminal = r.admitted + r.rejected + r.probe_rejected +
                                 r.removed + r.resized + r.resize_rejected +
                                 r.not_present + r.shed + r.timed_out;
  EXPECT_EQ(terminal + r.deferred, r.arrivals + r.retries);
  EXPECT_EQ(r.requests, 300u);
  EXPECT_EQ(r.arrivals, 300u);
}

TEST(Service, DeadlinePressureDowngrades) {
  auto cfg = small_config(
      "flash:requests=400,interarrival-us=50,flash-x=20,util=0.1..0.4");
  cfg.deadline = util::Time::us(100);
  cfg.queue_cap = 8;
  const auto res = run_service(cfg);
  const auto& r = res.report;
  EXPECT_GT(r.downgrades, 0u);
  EXPECT_GT(r.deferred + r.timed_out + r.probe_rejected, 0u);
  EXPECT_LE(r.queue_max_depth, 8u);
  // No deadline: the same trace never downgrades.
  auto relaxed = small_config(
      "flash:requests=400,interarrival-us=50,flash-x=20,util=0.1..0.4");
  const auto base = run_service(relaxed);
  EXPECT_EQ(base.report.downgrades, 0u);
  EXPECT_EQ(base.report.timed_out, 0u);
}

TEST(Service, StopAfterMarksInterrupted) {
  auto cfg = small_config();
  cfg.stop_after = 50;
  const auto res = run_service(cfg);
  EXPECT_TRUE(res.interrupted);
  EXPECT_TRUE(res.report.interrupted);
  // An interrupted report still round-trips through the strict reader.
  std::istringstream is(report_text(res.report));
  const ServeReport back = read_serve_report(is);
  EXPECT_TRUE(back.interrupted);
}

TEST(Service, RecoverAfterStopReproducesUninterruptedRun) {
  const std::string wal = testing::TempDir() + "/vc2m_service_stop.wal";
  std::remove(wal.c_str());
  std::remove((wal + ".snap").c_str());

  auto base_cfg = small_config();
  base_cfg.journal_path = wal + ".base";
  base_cfg.snapshot_every = 10;
  std::remove(base_cfg.journal_path.c_str());
  std::remove((base_cfg.journal_path + ".snap").c_str());
  const auto base = run_service(base_cfg);

  auto cfg = small_config();
  cfg.journal_path = wal;
  cfg.snapshot_every = 10;
  cfg.stop_after = 120;
  const auto cut = run_service(cfg);
  ASSERT_TRUE(cut.interrupted);

  cfg.stop_after = 0;
  cfg.recover = true;
  const auto rec = run_service(cfg);
  EXPECT_FALSE(rec.interrupted);
  EXPECT_EQ(report_text(rec.report), report_text(base.report));
  // Snapshot rotation happened: the journal's base moved past 0 and the
  // snapshot file exists.
  const auto scan = scan_journal(wal);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_GT(scan.base, 0u);
  EXPECT_TRUE(std::ifstream(wal + ".snap").good());

  // Recovering a *finished* journal is also clean and byte-identical.
  const auto again = run_service(cfg);
  EXPECT_EQ(report_text(again.report), report_text(base.report));

  std::remove(wal.c_str());
  std::remove((wal + ".snap").c_str());
  std::remove(base_cfg.journal_path.c_str());
  std::remove((base_cfg.journal_path + ".snap").c_str());
}

TEST(Service, RecoverToleratesTornTailAndForeignJournal) {
  const std::string wal = testing::TempDir() + "/vc2m_service_torn.wal";
  std::remove(wal.c_str());
  std::remove((wal + ".snap").c_str());

  auto cfg = small_config();
  cfg.journal_path = wal;
  cfg.snapshot_every = 0;
  const auto base = run_service(cfg);

  // Torn tail: recovery warns, truncates, and reproduces the full report
  // (the tail records are recomputed from the trace).
  const std::string bytes = read_file(wal);
  std::ofstream(wal, std::ios::binary)
      << bytes.substr(0, bytes.size() - 4);
  cfg.recover = true;
  const auto rec = run_service(cfg);
  EXPECT_EQ(report_text(rec.report), report_text(base.report));
  bool warned = false;
  for (const auto& w : rec.warnings)
    warned = warned || w.find("torn tail") != std::string::npos;
  EXPECT_TRUE(warned);

  // A journal from a different configuration is ignored with a warning —
  // never merged into the wrong run.
  auto other = small_config();
  other.journal_path = wal;
  other.seed = 8;
  other.recover = true;
  const auto foreign = run_service(other);
  bool ignored = false;
  for (const auto& w : foreign.warnings)
    ignored =
        ignored || w.find("different configuration") != std::string::npos;
  EXPECT_TRUE(ignored);

  std::remove(wal.c_str());
  std::remove((wal + ".snap").c_str());
}

TEST(Service, InnerJobsLeaveReportAndTimelineByteIdentical) {
  // The inner pool exists only for existing-CSA admissions (the other
  // analyses never submit to it); either way the report and the metrics
  // timeline are byte-identical at any --inner-jobs.
  for (const auto analysis :
       {core::VcpuAnalysis::kRegulated, core::VcpuAnalysis::kExistingCsa}) {
    std::string report, timeline;
    for (const int jobs : {1, 3}) {
      const std::string path = testing::TempDir() + "/vc2m_inner_jobs" +
                               std::to_string(jobs) + ".bin";
      std::remove(path.c_str());
      auto cfg = small_config(
          "poisson:requests=120,interarrival-us=300,util=0.1..0.4,"
          "remove-frac=0.3,resize-frac=0.1");
      cfg.vm_cfg.analysis = analysis;
      cfg.vm_cfg.inner_jobs = jobs;
      cfg.timeline_path = path;
      cfg.sample_every = 10;
      const auto res = run_service(cfg);
      const std::string tl = read_file(path);
      ASSERT_FALSE(tl.empty());
      if (jobs == 1) {
        report = report_text(res.report);
        timeline = tl;
      } else {
        EXPECT_EQ(report_text(res.report), report) << "inner_jobs=" << jobs;
        EXPECT_EQ(tl, timeline) << "inner_jobs=" << jobs;
      }
      std::remove(path.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Serve report artifact.

TEST(ServeReport, RoundTripAndStrictness) {
  const auto res = run_service(small_config());
  const std::string text = report_text(res.report);
  std::istringstream is(text);
  const ServeReport back = read_serve_report(is);
  EXPECT_EQ(report_text(back), text);

  // Strictness: a wrong schema or a missing section must throw.
  std::string bad_schema = text;
  bad_schema.replace(bad_schema.find(kServeReportSchema),
                     std::string(kServeReportSchema).size(),
                     "vc2m-serve-report/9");
  std::istringstream bs(bad_schema);
  EXPECT_THROW(read_serve_report(bs), util::Error);
  std::istringstream garbage("{\"schema\": \"vc2m-serve-report/1\"}");
  EXPECT_THROW(read_serve_report(garbage), util::Error);
  std::istringstream not_json("not json");
  EXPECT_THROW(read_serve_report(not_json), util::Error);
}

TEST(ServeReport, SeedBelow2To53RoundTripsExactly) {
  auto r = run_service(small_config()).report;
  r.seed = kMaxExactCount - 1;
  std::istringstream is(report_text(r));
  EXPECT_EQ(read_serve_report(is).seed, kMaxExactCount - 1);
}

TEST(ServeReport, IntegersAtOrAbove2To53AreRejectedByName) {
  // 2^53 + 1 is written exactly but would read back as 2^53: the reader
  // must refuse, naming the field, instead of returning a rounded value.
  auto r = run_service(small_config()).report;
  for (const std::uint64_t seed : {kMaxExactCount, kMaxExactCount + 1}) {
    r.seed = seed;
    std::istringstream is(report_text(r));
    try {
      read_serve_report(is);
      ADD_FAILURE() << "seed " << seed << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find("'seed'"), std::string::npos)
          << e.what();
    }
  }
  r = run_service(small_config()).report;
  r.commits = kMaxExactCount;
  std::istringstream is(report_text(r));
  EXPECT_THROW(read_serve_report(is), util::Error);
}

}  // namespace
}  // namespace vc2m::service

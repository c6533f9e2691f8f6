// Runtime-telemetry suite (docs/telemetry.md): the metrics-timeline
// artifact (exact sample round trip, tolerant scanning under truncation
// and byte corruption, bit-identity across --inner-jobs and across
// crash + --recover, no index gap when recovery cannot regenerate it),
// the span ring and its post-mortem dump (including
// fork-based real crashes at the injected kill sites, checking the dump's
// tail against the journal's tail), request-span export/check round
// trips, the request-id echo through core::admit_vm, stats-snapshot
// rendering, and the forward-compatible serve-report reader notes.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/admission.h"
#include "model/platform.h"
#include "obs/request_span.h"
#include "service/journal.h"
#include "service/report.h"
#include "service/service.h"
#include "service/telemetry.h"
#include "service/trace_gen.h"
#include "util/error.h"
#include "util/log_histogram.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace vc2m::service {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << bytes;
}

std::string report_text(const ServeReport& r) {
  std::ostringstream os;
  write_serve_report(os, r);
  return os.str();
}

ServiceConfig small_config(const std::string& spec =
                               "poisson:requests=300,interarrival-us=300,"
                               "util=0.1..0.4") {
  ServiceConfig cfg;
  cfg.trace = parse_trace_spec(spec);
  cfg.seed = 7;
  return cfg;
}

void remove_run_files(const std::string& stem) {
  std::remove(stem.c_str());
  std::remove((stem + ".snap").c_str());
  std::remove((stem + ".spans").c_str());
}

// ---------------------------------------------------------------------------
// Sample and histogram text round trips.

TEST(TelemetryText, HistogramRoundTripIsExact) {
  util::LogHistogram h;
  for (double x : {0.5, 21.4, 21.4, 1e6, 3.3, 0.0, -2.0}) h.add(x);
  const std::string text = serialize_histogram(h);
  const util::LogHistogram back = parse_histogram(text);
  EXPECT_EQ(serialize_histogram(back), text);
  EXPECT_EQ(back.count(), h.count());
  EXPECT_EQ(back.nonpositive_count(), h.nonpositive_count());
  EXPECT_DOUBLE_EQ(back.sum(), h.sum());
  EXPECT_DOUBLE_EQ(back.min(), h.min());
  EXPECT_DOUBLE_EQ(back.max(), h.max());
  EXPECT_DOUBLE_EQ(back.quantile(0.5), h.quantile(0.5));
  // Empty histograms round-trip too.
  const util::LogHistogram empty;
  EXPECT_EQ(serialize_histogram(parse_histogram(serialize_histogram(empty))),
            serialize_histogram(empty));
  // Strictness: malformed inputs throw, never mis-parse.
  EXPECT_THROW(parse_histogram(""), util::Error);
  EXPECT_THROW(parse_histogram("7 x"), util::Error);
  EXPECT_THROW(parse_histogram(text + " trailing"), util::Error);
}

TEST(TelemetryText, MetricsSampleRoundTripIsExact) {
  MetricsSample s;
  s.index = 4;
  s.served = 500;
  s.vt_ns = 123456789;
  s.queue_depth = 3;
  s.retry_depth = 1;
  s.est_ns_per_task = 4242;
  s.arrivals = 480;
  s.admitted = 40;
  s.rejected = 300;
  s.probe_rejected = 5;
  s.deferred = 12;
  s.timed_out = 2;
  s.shed = 7;
  s.downgrades = 9;
  s.backpressure = 11;
  s.commits = 77;
  s.dbf_evals = 1000;
  s.budget_evals = 2000;
  s.admission_tests = 3000;
  s.lat_admitted.add(21.5);
  s.lat_rejected.add(20.1);
  s.lat_rejected.add(33.0);
  s.lat_shed.add(5.0);
  const std::string payload = serialize(s);
  const MetricsSample back = parse_metrics_sample(payload);
  EXPECT_EQ(serialize(back), payload);
  EXPECT_EQ(back.index, 4u);
  EXPECT_EQ(back.served, 500u);
  EXPECT_EQ(back.lat_rejected.count(), 2u);
  EXPECT_THROW(parse_metrics_sample(""), util::Error);
  EXPECT_THROW(parse_metrics_sample(payload.substr(0, payload.size() / 2)),
               util::Error);
  EXPECT_THROW(parse_metrics_sample("wat=1|" + payload), util::Error);
}

// ---------------------------------------------------------------------------
// Strict record readers: every single-byte mutation of a serialized payload
// must either throw util::Error or read back as exactly the mutated bytes.
// The one tolerated difference is a mutation that leaves the number it
// touches with leading zeros ("15" -> "05" or "20800" -> "-0800" read back
// as "5" and "-800").

/// True when `back` is `mutated` minus the leading zeros of the number
/// that position `i` belongs to (or, for a '-', starts).
bool only_leading_zeros(const std::string& mutated, std::size_t i,
                        const std::string& back) {
  const auto digit = [&](std::size_t k) {
    return k < mutated.size() && mutated[k] >= '0' && mutated[k] <= '9';
  };
  std::size_t start = mutated[i] == '-' ? i + 1 : i;
  while (start > 0 && digit(start - 1)) --start;
  if (!digit(start) || mutated[start] != '0' || !digit(start + 1))
    return false;
  std::size_t end = start;
  while (digit(end + 1) && mutated[end] == '0') ++end;
  return mutated.substr(0, start) + mutated.substr(end) == back;
}

template <class Parse, class Serialize>
void expect_every_mutation_rejected(const std::string& payload, Parse parse,
                                    Serialize serialize) {
  ASSERT_EQ(serialize(parse(payload)), payload);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < payload.size(); ++i)
    for (int b = 0; b < 256; ++b) {
      std::string mutated = payload;
      mutated[i] = static_cast<char>(b);
      if (mutated == payload) continue;
      std::string back;
      try {
        back = serialize(parse(mutated));
      } catch (const util::Error&) {
        continue;
      }
      ++accepted;
      if (back != mutated && !only_leading_zeros(mutated, i, back))
        ADD_FAILURE() << "byte " << i << " -> " << b << " read as\n  "
                      << back << "\nfrom\n  " << mutated;
    }
  // Digit-for-digit substitutions and the like must still be accepted.
  EXPECT_GT(accepted, 0u);
}

TEST(RecordMutation, JournalRecordsSamplesAndSpansAreStrict) {
  JournalRecord r;
  r.seq = 1234;
  r.attempt = 2;
  r.kind = RequestKind::kResize;
  r.outcome = Outcome::kResizeRejected;
  r.vm = -17;
  r.tasks = 12;
  r.events = 305;
  r.cost_ns = 20800;
  r.latency_ns = 1500300;
  r.dbf_evals = 41;
  r.budget_evals = 9;
  r.admission_tests = 100;
  expect_every_mutation_rejected(
      serialize(r), parse_journal_record,
      [](const JournalRecord& x) { return serialize(x); });

  MetricsSample m;
  m.index = 4;
  m.served = 500;
  m.vt_ns = 123456789;
  m.queue_depth = 3;
  m.est_ns_per_task = -4242;
  m.arrivals = 480;
  m.rejected = 300;
  m.commits = 77;
  m.dbf_evals = 1000;
  for (double x : {21.5, 0.0, 3.25, 1e6}) m.lat_admitted.add(x);
  m.lat_rejected.add(20.1);
  m.lat_rejected.add(33.0);
  expect_every_mutation_rejected(
      serialize(m), parse_metrics_sample,
      [](const MetricsSample& x) { return serialize(x); });

  obs::RequestSpan sp;
  sp.seq = 77;
  sp.attempt = 1;
  sp.kind = "admit";
  sp.outcome = "deferred";
  sp.vm = 3;
  sp.queued_ns = 1000;
  sp.dequeued_ns = 2500;
  sp.solved_ns = 23300;
  sp.cost_ns = 20800;
  sp.latency_ns = -30;
  sp.wall_ns = 98765;
  expect_every_mutation_rejected(
      obs::serialize(sp), obs::parse_request_span,
      [](const obs::RequestSpan& x) { return obs::serialize(x); });
}

// ---------------------------------------------------------------------------
// The timeline artifact.

TEST(Timeline, WriteScanHeaderAndCadence) {
  const std::string path = testing::TempDir() + "/vc2m_tl_basic.bin";
  std::remove(path.c_str());
  auto cfg = small_config();
  cfg.timeline_path = path;
  cfg.sample_every = 25;
  const auto res = run_service(cfg);
  ASSERT_FALSE(res.interrupted);

  const TimelineScan tls = scan_timeline(path);
  EXPECT_TRUE(tls.exists);
  EXPECT_TRUE(tls.header_ok);
  EXPECT_EQ(tls.config_digest, config_digest(cfg));
  EXPECT_EQ(tls.every, 25u);
  EXPECT_FALSE(tls.torn);
  ASSERT_GT(tls.samples.size(), 5u);
  for (std::size_t i = 0; i < tls.samples.size(); ++i) {
    const MetricsSample& ms = tls.samples[i];
    EXPECT_EQ(ms.index, i);
    EXPECT_EQ(ms.served, (i + 1) * 25);
    if (i > 0) {
      // Cumulative counters never move backwards between samples.
      const MetricsSample& prev = tls.samples[i - 1];
      EXPECT_GE(ms.vt_ns, prev.vt_ns);
      EXPECT_GE(ms.arrivals, prev.arrivals);
      EXPECT_GE(ms.admission_tests, prev.admission_tests);
      EXPECT_GE(ms.lat_admitted.count() + ms.lat_rejected.count() +
                    ms.lat_deferred.count() + ms.lat_shed.count(),
                prev.lat_admitted.count() + prev.lat_rejected.count() +
                    prev.lat_deferred.count() + prev.lat_shed.count());
    }
  }
  // The last sample agrees with the report's cumulative totals.
  const MetricsSample& last = tls.samples.back();
  EXPECT_EQ(last.admitted, res.report.admitted);
  EXPECT_EQ(last.commits, res.report.commits);
  EXPECT_LE(last.arrivals, res.report.arrivals);
  std::remove(path.c_str());
}

TEST(Timeline, TruncationAlwaysYieldsValidPrefix) {
  const std::string path = testing::TempDir() + "/vc2m_tl_trunc.bin";
  std::remove(path.c_str());
  auto cfg = small_config();
  cfg.timeline_path = path;
  cfg.sample_every = 25;
  run_service(cfg);
  const std::string bytes = read_file(path);
  const std::size_t full_samples = scan_timeline(path).samples.size();
  ASSERT_GT(full_samples, 0u);

  const std::string cut_path = path + ".cut";
  for (std::size_t len = 0; len <= bytes.size(); len += 3) {
    write_file(cut_path, bytes.substr(0, len));
    TimelineScan tls;
    ASSERT_NO_THROW(tls = scan_timeline(cut_path)) << "len=" << len;
    EXPECT_LE(tls.valid_bytes, len);
    EXPECT_LE(tls.samples.size(), full_samples);
    if (tls.header_ok && len < bytes.size()) {
      EXPECT_TRUE(tls.torn || tls.valid_bytes == len) << "len=" << len;
    }
    for (std::size_t i = 0; i < tls.samples.size(); ++i)
      EXPECT_EQ(tls.samples[i].index, i);
  }
  std::remove(path.c_str());
  std::remove(cut_path.c_str());
}

TEST(Timeline, ByteFlipsNeverCrashTheScanner) {
  const std::string path = testing::TempDir() + "/vc2m_tl_flip.bin";
  std::remove(path.c_str());
  auto cfg = small_config();
  cfg.timeline_path = path;
  cfg.sample_every = 25;
  run_service(cfg);
  const std::string bytes = read_file(path);
  const std::size_t full_samples = scan_timeline(path).samples.size();

  const std::string flip_path = path + ".flip";
  for (std::size_t pos = 0; pos < bytes.size(); pos += 7) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5a);
    write_file(flip_path, mutated);
    TimelineScan tls;
    ASSERT_NO_THROW(tls = scan_timeline(flip_path)) << "pos=" << pos;
    // A flip either hits the header (scan rejects the file as foreign) or
    // a frame (checksum or strict parse truncates the valid prefix there);
    // samples before the flip always survive intact.
    EXPECT_LE(tls.samples.size(), full_samples);
    for (std::size_t i = 0; i < tls.samples.size(); ++i)
      EXPECT_EQ(tls.samples[i].index, i);
  }
  std::remove(path.c_str());
  std::remove(flip_path.c_str());
}

TEST(Timeline, BitIdenticalAcrossInnerJobs) {
  std::string reference;
  for (int jobs : {1, 2, 8}) {
    const std::string path = testing::TempDir() + "/vc2m_tl_jobs" +
                             std::to_string(jobs) + ".bin";
    std::remove(path.c_str());
    auto cfg = small_config();
    cfg.timeline_path = path;
    cfg.sample_every = 25;
    cfg.vm_cfg.inner_jobs = jobs;
    run_service(cfg);
    const std::string bytes = read_file(path);
    ASSERT_FALSE(bytes.empty());
    if (reference.empty())
      reference = bytes;
    else
      EXPECT_EQ(bytes, reference) << "inner_jobs=" << jobs;
    std::remove(path.c_str());
  }
}

TEST(Timeline, TelemetryPerturbsNeitherReportNorJournal) {
  const std::string plain_wal = testing::TempDir() + "/vc2m_tl_off.wal";
  const std::string telem_wal = testing::TempDir() + "/vc2m_tl_on.wal";
  const std::string tl = testing::TempDir() + "/vc2m_tl_on.bin";
  remove_run_files(plain_wal);
  remove_run_files(telem_wal);
  std::remove(tl.c_str());

  auto plain = small_config();
  plain.journal_path = plain_wal;
  plain.snapshot_every = 10;
  const auto base = run_service(plain);

  auto telem = small_config();
  telem.journal_path = telem_wal;
  telem.snapshot_every = 10;
  telem.timeline_path = tl;
  telem.sample_every = 25;
  telem.stats_every = 50;
  std::ostringstream stats;
  telem.stats_out = &stats;
  telem.collect_spans = true;
  const auto full = run_service(telem);

  EXPECT_EQ(report_text(full.report), report_text(base.report));
  EXPECT_EQ(read_file(telem_wal), read_file(plain_wal));
  EXPECT_EQ(read_file(telem_wal + ".snap"), read_file(plain_wal + ".snap"));
  EXPECT_FALSE(stats.str().empty());
  EXPECT_FALSE(full.spans.empty());
  remove_run_files(plain_wal);
  remove_run_files(telem_wal);
  std::remove(tl.c_str());
}

TEST(Timeline, RecoverReproducesUninterruptedTimeline) {
  const std::string base_wal = testing::TempDir() + "/vc2m_tl_rec_base.wal";
  const std::string base_tl = testing::TempDir() + "/vc2m_tl_rec_base.bin";
  const std::string wal = testing::TempDir() + "/vc2m_tl_rec.wal";
  const std::string tl = testing::TempDir() + "/vc2m_tl_rec.bin";
  remove_run_files(base_wal);
  remove_run_files(wal);
  std::remove(base_tl.c_str());
  std::remove(tl.c_str());

  auto base_cfg = small_config();
  base_cfg.journal_path = base_wal;
  base_cfg.snapshot_every = 10;
  base_cfg.timeline_path = base_tl;
  base_cfg.sample_every = 25;
  run_service(base_cfg);
  const std::string want = read_file(base_tl);
  ASSERT_FALSE(want.empty());

  auto cfg = small_config();
  cfg.journal_path = wal;
  cfg.snapshot_every = 10;
  cfg.timeline_path = tl;
  cfg.sample_every = 25;
  cfg.stop_after = 120;
  const auto cut = run_service(cfg);
  ASSERT_TRUE(cut.interrupted);
  ASSERT_NE(read_file(tl), want);

  cfg.stop_after = 0;
  cfg.recover = true;
  const auto rec = run_service(cfg);
  EXPECT_FALSE(rec.interrupted);
  EXPECT_EQ(read_file(tl), want);

  // Recovering a finished run regenerates the samples past the snapshot
  // and leaves the file byte-identical, without a warning.
  const auto again = run_service(cfg);
  EXPECT_EQ(read_file(tl), want);
  for (const auto& w : again.warnings) ADD_FAILURE() << w;

  remove_run_files(base_wal);
  remove_run_files(wal);
  std::remove(base_tl.c_str());
  std::remove(tl.c_str());
}

TEST(Timeline, DivergentSampleIsRewrittenFromThatPoint) {
  const std::string wal = testing::TempDir() + "/vc2m_tl_div.wal";
  const std::string tl = testing::TempDir() + "/vc2m_tl_div.bin";
  remove_run_files(wal);
  std::remove(tl.c_str());

  auto cfg = small_config();
  cfg.journal_path = wal;
  cfg.snapshot_every = 0;  // keep the full journal so replay covers run 0
  cfg.timeline_path = tl;
  cfg.sample_every = 25;
  run_service(cfg);
  const std::string want = read_file(tl);

  // Rewrite the file with one mid-stream sample altered but still
  // checksummed and parseable. Without a snapshot nothing is folded, so
  // recovery regenerates every sample and reproduces the pristine bytes.
  TimelineScan tls = scan_timeline(tl);
  ASSERT_GT(tls.samples.size(), 3u);
  const std::size_t victim = tls.samples.size() / 2;
  MetricsSample doctored = tls.samples[victim];
  doctored.queue_depth += 1;
  JournalWriter w;
  w.open_with_header(tl, timeline_header_payload(tls.config_digest,
                                                 tls.every));
  for (std::size_t i = 0; i < tls.raw.size(); ++i)
    w.append(i == victim ? serialize(doctored) : tls.raw[i]);
  w.close();
  ASSERT_NE(read_file(tl), want);

  cfg.recover = true;
  run_service(cfg);
  EXPECT_EQ(read_file(tl), want);

  // A timeline from a different configuration is restarted, not merged.
  auto foreign = cfg;
  foreign.seed = 8;
  foreign.journal_path.clear();
  const auto other = run_service(foreign);
  bool restarted = false;
  for (const auto& w2 : other.warnings)
    restarted =
        restarted || w2.find("does not match") != std::string::npos;
  EXPECT_TRUE(restarted);
  EXPECT_EQ(scan_timeline(tl).config_digest, config_digest(foreign));

  remove_run_files(wal);
  std::remove(tl.c_str());
}

TEST(Timeline, RecoverNeverWritesAnIndexGap) {
  // The snapshot of a cut run folds k0 samples' worth of decisions. When
  // the surviving timeline is missing, foreign, or shorter than k0
  // samples, the first sample recovery could write would carry index k0:
  // it must warn, leave the file as it is, and write no samples.
  const std::string wal = testing::TempDir() + "/vc2m_tl_gap.wal";
  const std::string tl = testing::TempDir() + "/vc2m_tl_gap.bin";
  for (const std::string damage : {"missing", "foreign", "short"}) {
    SCOPED_TRACE(damage);
    remove_run_files(wal);
    std::remove(tl.c_str());
    auto cfg = small_config();
    cfg.journal_path = wal;
    cfg.snapshot_every = 10;
    cfg.timeline_path = tl;
    cfg.sample_every = 25;
    cfg.stop_after = 200;
    ASSERT_TRUE(run_service(cfg).interrupted);
    if (damage == "missing") {
      std::remove(tl.c_str());
    } else if (damage == "foreign") {
      write_file(tl, "not a timeline");
    } else {
      const TimelineScan tls = scan_timeline(tl);
      ASSERT_GE(tls.raw.size(), 2u);
      JournalWriter w;
      w.open_with_header(tl, timeline_header_payload(tls.config_digest,
                                                     tls.every));
      w.append(tls.raw[0]);
    }
    const bool existed = std::ifstream(tl).good();
    const std::string before = read_file(tl);

    cfg.stop_after = 0;
    cfg.recover = true;
    const auto rec = run_service(cfg);
    EXPECT_FALSE(rec.interrupted);
    bool warned = false;
    for (const auto& w : rec.warnings)
      warned = warned || w.find("cannot be reproduced") != std::string::npos;
    EXPECT_TRUE(warned);
    EXPECT_EQ(std::ifstream(tl).good(), existed);
    EXPECT_EQ(read_file(tl), before);
    if (existed) {
      EXPECT_TRUE(scan_timeline(tl).warnings.empty());
    }
  }
  remove_run_files(wal);
  std::remove(tl.c_str());
}

// ---------------------------------------------------------------------------
// The span ring and its post-mortem dump.

TEST(SpanRing, EvictsOldestAndDumpsInOrder) {
  SpanRing ring(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    obs::RequestSpan s;
    s.seq = i;
    s.kind = "admit";
    s.outcome = "admitted";
    ring.push(s);
  }
  ASSERT_EQ(ring.size(), 4u);
  const auto spans = ring.snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].seq, i + 3) << "oldest-first order";

  SpanRing off(0);
  off.push(obs::RequestSpan{});
  EXPECT_EQ(off.size(), 0u);

  const std::string path = testing::TempDir() + "/vc2m_ring_dump.spans";
  write_span_dump(path, ring);
  const auto back = read_span_dump(path);
  ASSERT_EQ(back.size(), 4u);
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_EQ(obs::serialize(back[i]), obs::serialize(spans[i]));
  write_file(path, "vc2m-span-dump/9 1\n");
  EXPECT_THROW(read_span_dump(path), util::Error);
  std::remove(path.c_str());
}

/// Fork-based crash matrix: really kill the process at the injected kill
/// sites and check that the ring dump next to the journal matches the
/// journal's surviving tail record for record — the dump never claims a
/// decision the journal does not have, and vice versa within ring
/// capacity. scripts/check.sh runs the same check against the binary.
TEST(SpanRing, CrashDumpMatchesJournalTail) {
  struct Case {
    const char* spec;
    std::uint64_t snapshot_every;
  };
  const Case cases[] = {
      {"before-append:3", 0},   {"after-append:3", 0},
      {"before-append:57", 0},  {"after-append:57", 0},
      {"before-append:130", 0}, {"after-append:130", 0},
      {"mid-snapshot:2", 10},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.spec);
    const std::string wal = testing::TempDir() + "/vc2m_crash_tail.wal";
    remove_run_files(wal);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: run until the injected kill site fires. Any other exit is
      // a test failure the parent detects through the status code.
      try {
        auto cfg = small_config();
        cfg.journal_path = wal;
        cfg.snapshot_every = c.snapshot_every;
        cfg.span_ring = 16;
        cfg.crash = parse_crash_spec(c.spec);
        run_service(cfg);
      } catch (...) {
      }
      std::_Exit(42);  // crash point never fired
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137) << "injected crash did not fire";

    const JournalScan scan = scan_journal(wal);
    ASSERT_TRUE(scan.header_ok);
    std::vector<obs::RequestSpan> dump;
    ASSERT_NO_THROW(dump = read_span_dump(wal + ".spans"));
    ASSERT_FALSE(dump.empty());
    const std::size_t overlap = std::min(dump.size(), scan.records.size());
    ASSERT_GT(overlap, 0u);
    for (std::size_t i = 0; i < overlap; ++i) {
      const obs::RequestSpan& span = dump[dump.size() - overlap + i];
      const JournalRecord rec = parse_journal_record(
          scan.records[scan.records.size() - overlap + i]);
      EXPECT_EQ(span.seq, rec.seq);
      EXPECT_EQ(span.attempt, rec.attempt);
      EXPECT_EQ(span.kind, to_string(rec.kind));
      EXPECT_EQ(span.outcome, to_string(rec.outcome));
      EXPECT_EQ(span.cost_ns, rec.cost_ns);
      EXPECT_EQ(span.latency_ns, rec.latency_ns);
    }
    remove_run_files(wal);
  }
}

// ---------------------------------------------------------------------------
// Request spans: round trips, the Perfetto export, and the checker.

TEST(Spans, CollectedSpansRoundTripAndPassTheChecker) {
  auto cfg = small_config();
  cfg.collect_spans = true;
  const auto res = run_service(cfg);
  ASSERT_FALSE(res.spans.empty());
  for (const auto& s : res.spans) {
    const obs::RequestSpan back = obs::parse_request_span(obs::serialize(s));
    EXPECT_EQ(obs::serialize(back), obs::serialize(s));
  }
  const auto check = obs::check_request_spans(res.spans);
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.spans, res.spans.size());

  std::ostringstream os;
  obs::write_span_trace(os, res.spans);
  std::istringstream is(os.str());
  const auto back = obs::read_span_trace(is);
  ASSERT_EQ(back.size(), res.spans.size());
  for (std::size_t i = 0; i < back.size(); ++i)
    EXPECT_EQ(obs::serialize(back[i]), obs::serialize(res.spans[i]));
}

TEST(Spans, CheckerFlagsStructuralViolations) {
  obs::RequestSpan ok;
  ok.seq = 1;
  ok.kind = "admit";
  ok.outcome = "admitted";
  ok.queued_ns = 100;
  ok.dequeued_ns = 150;
  ok.solved_ns = 250;
  ok.cost_ns = 100;

  obs::RequestSpan unordered = ok;
  unordered.seq = 2;
  unordered.dequeued_ns = 50;  // dequeued before queued
  obs::RequestSpan bad_cost = ok;
  bad_cost.seq = 3;
  bad_cost.cost_ns = 1;  // != solved - dequeued
  obs::RequestSpan dup = ok;  // same (seq, attempt) as `ok`

  const obs::RequestSpan bad[] = {ok, unordered, bad_cost, dup};
  const auto res = obs::check_request_spans(bad);
  EXPECT_FALSE(res.ok());
  EXPECT_GE(res.total_violations, 3u);

  // Violations past the cap are counted but not stored.
  std::vector<obs::RequestSpan> many;
  for (std::uint64_t i = 0; i < 40; ++i) {
    obs::RequestSpan s = bad_cost;
    s.seq = 100 + i;
    many.push_back(s);
  }
  const auto capped = obs::check_request_spans(many, 8);
  EXPECT_EQ(capped.violations.size(), 8u);
  EXPECT_EQ(capped.total_violations, 40u);
}

TEST(Spans, RequestIdEchoesThroughAdmission) {
  const auto platform = model::PlatformSpec::A();
  workload::GeneratorConfig gen;
  gen.grid = platform.grid;
  gen.target_ref_utilization = 0.3;
  util::Rng grng(11);
  auto tasks = workload::generate_taskset(gen, grng);
  for (auto& t : tasks) t.vm = 1;

  core::VmAllocConfig vm;
  vm.max_vcpus_per_vm = platform.cores;
  util::Rng rng(12);
  core::AdmissionState empty;
  const auto anon = core::admit_vm(empty, tasks, 1, platform, vm, rng);
  EXPECT_EQ(anon.request_id, -1) << "default stays anonymous";
  vm.request_id = 42;
  util::Rng rng2(12);
  const auto tagged = core::admit_vm(empty, tasks, 1, platform, vm, rng2);
  EXPECT_EQ(tagged.request_id, 42);
  EXPECT_EQ(tagged.admitted, anon.admitted)
      << "the request id must not influence the decision";
}

// ---------------------------------------------------------------------------
// Stats snapshots and forward-compatible report reading.

TEST(StatsSnapshot, CadenceAndSignalLatch) {
  auto cfg = small_config();
  cfg.stats_every = 50;
  std::ostringstream out;
  cfg.stats_out = &out;
  run_service(cfg);
  const std::string text = out.str();
  std::size_t snapshots = 0;
  for (std::size_t pos = text.find("[vc2m serve]"); pos != std::string::npos;
       pos = text.find("[vc2m serve]", pos + 1))
    ++snapshots;
  EXPECT_GT(snapshots, 2u);

  // Deterministic: the same run renders byte-identical snapshots.
  std::ostringstream out2;
  auto cfg2 = small_config();
  cfg2.stats_every = 50;
  cfg2.stats_out = &out2;
  run_service(cfg2);
  EXPECT_EQ(out2.str(), text);

  // The SIGUSR1 latch renders exactly one snapshot and clears itself.
  std::atomic<bool> poke{true};
  std::ostringstream out3;
  auto cfg3 = small_config();
  cfg3.stats_signal = &poke;
  cfg3.stats_out = &out3;
  run_service(cfg3);
  EXPECT_FALSE(poke.load());
  EXPECT_EQ(out3.str().find("[vc2m serve]"), 0u);
  EXPECT_EQ(out3.str().find("[vc2m serve]", 1), std::string::npos);
}

TEST(ServeReportNotes, UnknownFieldSurfacedNotRejected) {
  const auto res = run_service(small_config());
  std::string text = report_text(res.report);
  const std::string anchor = "\"git_rev\"";
  const std::size_t at = text.find(anchor);
  ASSERT_NE(at, std::string::npos);
  text.insert(at, "\"from_the_future\": {\"x\": 1},\n");

  std::vector<std::string> notes;
  std::istringstream is(text);
  ServeReport back;
  ASSERT_NO_THROW(back = read_serve_report(is, "serve report", &notes));
  EXPECT_EQ(back.admitted, res.report.admitted);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("from_the_future"), std::string::npos);
  EXPECT_NE(notes[0].find("ignored"), std::string::npos);

  // Without a notes sink the field is silently skipped, still no throw.
  std::istringstream is2(text);
  EXPECT_NO_THROW(read_serve_report(is2));
}

}  // namespace
}  // namespace vc2m::service

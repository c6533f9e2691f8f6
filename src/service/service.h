// The crash-safe online admission-control service behind `vc2m serve`.
//
// The service consumes a deterministic request trace (service/trace_gen.h)
// through a single-server virtual-time queue: requests arrive at their
// trace timestamps, wait in a bounded FIFO, and are processed one at a
// time; the virtual cost of each decision is a deterministic function of
// how hard the allocator worked (AllocCounters deltas), so a run is a pure
// function of (trace, seed, config), byte-identical on every machine and
// after every recovery.
//
// run_service composes three stages over one State (docs/service.md):
//
//  - Recovery (--recover) loads the snapshot and scans the journal; replay
//    folds non-mutating records as written and recomputes mutating ones
//    through the Decider. Torn journal tails are truncated back to the
//    last valid record with a warning, never a crash.
//  - The Decider, `decide`, is pure: (state, request, start time, config)
//    → Decision. Under deadline pressure it downgrades the full solver
//    (the transactional core::admit_vm / resize_vm) to a sound headroom
//    probe that rejects, defers, or times the request out.
//  - The Committer applies a Decision to the State, appends its record to
//    the fsync'd write-ahead journal (service/journal.h), fires the crash
//    points, notifies the observers (span ring, metrics timeline, live
//    stats) once the record is durable, and every `snapshot_every`
//    commits writes <journal>.snap and rotates the journal.
//
// A full queue sheds a victim chosen by the ShedPolicy.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/vm_alloc.h"
#include "model/platform.h"
#include "obs/request_span.h"
#include "service/report.h"
#include "service/trace_gen.h"
#include "util/log_histogram.h"
#include "util/time.h"

namespace vc2m::service {

inline constexpr const char* kSnapshotSchema = "vc2m-admission-snapshot/1";

/// Victim selection when the bounded queue is full.
enum class ShedPolicy : std::uint8_t {
  kRejectNewest,  ///< drop the incoming request
  kRejectLargest, ///< drop the largest queued admit/resize (newest on ties)
  kCriticality,   ///< drop best-effort (criticality 0) entries first
};

const char* to_string(ShedPolicy p);
bool shed_policy_from_string(const std::string& s, ShedPolicy& out);

/// Terminal and intermediate fates of one request attempt. Serialized by
/// name into journal records; values are append-only. Each outcome's
/// facts (name, counter, latency class, whether it mutates the state or
/// ends the request) live in one table in service.cpp.
enum class Outcome : std::uint8_t {
  kAdmitted,        ///< full solve placed the VM (commit)
  kRejected,        ///< full solve found no feasible placement
  kProbeRejected,   ///< downgraded headroom probe proved infeasibility
  kDeferred,        ///< probe passed; retry scheduled (non-terminal)
  kTimedOut,        ///< retry budget exhausted under deadline pressure
  kShed,            ///< dropped by the overload policy at enqueue
  kRemoved,         ///< VM removed (commit)
  kNotPresent,      ///< remove/resize of a VM the service never admitted
  kResized,         ///< remove+re-admit committed atomically
  kResizeRejected,  ///< re-admit failed; original VM untouched (rollback)
};

const char* to_string(Outcome o);

/// One write-ahead journal record: the fate of one request attempt, with
/// enough folded state (cost, task count, decision-event count, allocator
/// effort deltas) that recovery can replay non-mutating decisions without
/// re-running the solver while keeping every cumulative counter — and
/// therefore the metrics timeline — bit-identical. Serialized as
/// "seq=N|attempt=A|kind=K|outcome=O|vm=V|tasks=T|events=E|cost_ns=C|latency_ns=L|dbf=D|budget=B|adm=M".
struct JournalRecord {
  std::uint64_t seq = 0;
  unsigned attempt = 0;
  RequestKind kind = RequestKind::kAdmit;
  Outcome outcome = Outcome::kAdmitted;
  int vm = 0;
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;      ///< decision-log events this attempt emitted
  std::int64_t cost_ns = 0;      ///< virtual processing cost
  std::int64_t latency_ns = 0;   ///< arrival -> completion (0 when deferred)
  std::uint64_t dbf_evals = 0;      ///< AllocCounters.dbf_evaluations delta
  std::uint64_t budget_evals = 0;   ///< AllocCounters.budget_evaluations delta
  std::uint64_t admission_tests = 0;  ///< AllocCounters.admission_tests delta
};

std::string serialize(const JournalRecord& r);
/// Strict parse; throws util::Error on any malformed field.
JournalRecord parse_journal_record(const std::string& payload);

/// Injectable kill sites for the crash-recovery tests: the process calls
/// std::_Exit(137) at the chosen point, leaving the on-disk state exactly
/// as a real crash would.
enum class CrashPoint : std::uint8_t {
  kNone,
  kBeforeAppend,  ///< decision made, journal record not yet written
  kAfterAppend,   ///< record durable and observed, nothing after it ran
  kMidSnapshot,   ///< snapshot tmp file half-written, no rename
};

struct CrashSpec {
  CrashPoint point = CrashPoint::kNone;
  /// kBeforeAppend/kAfterAppend: the trace seq whose first journal append
  /// triggers the kill. kMidSnapshot: the 1-based snapshot write to kill.
  std::uint64_t at = 0;
};

/// Names of the crash points, indexed by CrashPoint ("none" never parses).
inline constexpr const char* kCrashPointNames[] = {
    "none", "before-append", "after-append", "mid-snapshot"};

/// Parse "before-append:SEQ" | "after-append:SEQ" | "mid-snapshot:K".
CrashSpec parse_crash_spec(const std::string& spec);

struct ServiceConfig {
  model::PlatformSpec platform = model::PlatformSpec::A();
  std::string platform_name = "A";
  TraceConfig trace;
  std::uint64_t seed = 42;
  /// Per-attempt deadline budget; zero disables the downgrade ladder.
  util::Time deadline = util::Time::zero();
  ShedPolicy shed = ShedPolicy::kRejectNewest;
  std::size_t queue_cap = 64;
  unsigned max_retries = 3;
  util::Time backoff = util::Time::ms(10);  ///< retry delay, doubled per try
  std::uint64_t snapshot_every = 1000;      ///< commits per snapshot; 0 = off
  std::string journal_path;                 ///< empty = no journaling
  bool recover = false;     ///< replay <journal> (+ snapshot) before going live
  CrashSpec crash;
  core::VmAllocConfig vm_cfg;
  /// Cooperative cancellation (SIGINT/SIGTERM): checked between requests.
  const std::atomic<bool>* cancel = nullptr;
  /// Test hook: behave as if interrupted after N served requests (0 = off) —
  /// exercises the interrupted-report path without killing the process.
  std::uint64_t stop_after = 0;

  // --- Runtime telemetry (docs/telemetry.md). None of these fields enter
  //     config_digest: telemetry on/off, and any sampling rate, must leave
  //     the report and the journal byte-identical and recovery-compatible.
  std::string timeline_path;  ///< metrics timeline file; empty = off
  /// Decisions (journal records) per timeline sample. Sampling is counted
  /// in virtual-time events, so the timeline is bit-identical at any
  /// --jobs/--inner-jobs and across --recover.
  std::uint64_t sample_every = 100;
  /// Render a deterministic stats snapshot to `stats_out` every N
  /// decisions; 0 = off.
  std::uint64_t stats_every = 0;
  /// Live introspection latch (SIGUSR1): when set, the next decision
  /// renders a stats snapshot and clears it.
  std::atomic<bool>* stats_signal = nullptr;
  std::ostream* stats_out = nullptr;  ///< stats sink; null = std::cerr
  /// Bounded post-mortem ring: the last K request spans, dumped to
  /// <journal>.spans on crash/interrupt. 0 disables the ring.
  std::size_t span_ring = 64;
  /// Keep every request span in ServiceResult.spans (for --span-trace and
  /// the tests); the ring is maintained either way.
  bool collect_spans = false;
};

struct ServiceResult {
  ServeReport report;
  bool interrupted = false;
  /// Non-fatal recovery findings (torn tail truncated, stale journal
  /// ignored, snapshot discarded); the CLI prints them to stderr so the
  /// report JSON stays byte-identical to an uninterrupted run's.
  std::vector<std::string> warnings;
  /// Every request span, in decision order (only when cfg.collect_spans).
  std::vector<obs::RequestSpan> spans;
};

/// Run the service over the configured trace (optionally recovering from a
/// previous run's journal first). Throws util::Error on I/O failures and
/// on replay divergence (a journal that disagrees with recomputation).
ServiceResult run_service(const ServiceConfig& cfg);

/// One bounded-queue slot (exposed for the shed-policy unit tests).
struct QueueEntry {
  std::uint64_t seq = 0;
  unsigned attempt = 0;
  util::Time ready_at;  ///< arrival time, or the retry time for attempt > 0
};

/// Pick the victim when `incoming` would overflow a full queue: an index
/// into `queue`, or queue.size() to shed the incoming entry itself.
/// Deterministic lexicographic-max selection; `trace` supplies each
/// entry's kind, utilization, and criticality.
std::size_t shed_victim(ShedPolicy policy,
                        const std::vector<QueueEntry>& queue,
                        const QueueEntry& incoming,
                        const std::vector<ServeRequest>& trace);

/// The canonical config digest stored in journal headers and snapshots:
/// recovery refuses to mix artifacts from a differently-configured run.
std::string config_digest(const ServiceConfig& cfg);

// ---------------------------------------------------------------------------
// The pipeline's shared state and its pure Decider (exposed for the unit
// tests; run_service is their only other user).

/// Cumulative counters. The snapshot restores them whole, so anything
/// derived from them (the timeline's decision count) restores too.
struct Stats {
  std::uint64_t arrivals = 0, admitted = 0, rejected = 0, probe_rejected = 0,
                removed = 0, resized = 0, resize_rejected = 0, not_present = 0,
                deferred = 0, retries = 0, shed = 0, timed_out = 0,
                downgrades = 0, queue_max_depth = 0, backpressure = 0,
                decision_events = 0, decision_dropped = 0,
                // Cumulative allocator effort, folded from the journal's
                // per-record deltas on replay so the metrics timeline is
                // replay-stable even for decisions whose solver run is
                // skipped.
                dbf_evals = 0, budget_evals = 0, admission_tests = 0;
};

struct State {
  core::AdmissionState adm;
  std::vector<QueueEntry> queue;  ///< bounded FIFO
  std::vector<QueueEntry> retry;  ///< min-heap by (ready_at, seq)
  std::uint64_t trace_next = 0;
  util::Time busy_until = util::Time::zero();
  std::int64_t est_ns_per_task = 200'000;  ///< EWMA full-solve cost estimate
  std::uint64_t commits = 0;
  std::uint64_t ordinal = 0;  ///< snapshots successfully written
  Stats stats;
  /// Per-outcome-class latency histograms (µs): admitted ∪ removed ∪
  /// resized, the rejection family, deferrals (arrival → defer decision),
  /// and sheds. The serve report and the timeline sample all four.
  util::LogHistogram lat_admitted, lat_rejected, lat_deferred, lat_shed;
};

/// What the Decider concluded about one attempt. `rec` carries the
/// outcome, cost, task count, decision-event count and effort deltas (its
/// latency is the Committer's to fill); `adm` is the new admitted state
/// when the outcome mutates it.
struct Decision {
  JournalRecord rec;
  std::uint64_t dropped = 0;  ///< decision-log events dropped
  std::optional<core::AdmissionState> adm{};
};

/// The solver seed of one attempt.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t seq,
                       unsigned attempt);

/// Decide `entry` (a try of `req`) starting at virtual time `start`. Pure:
/// reads `st`, writes no file and no telemetry.
Decision decide(const State& st, const ServeRequest& req,
                const QueueEntry& entry, util::Time start,
                const ServiceConfig& cfg);

}  // namespace vc2m::service

#include "service/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>

#include "core/strategy.h"
#include "obs/decision_log.h"
#include "scenario/digest.h"
#include "service/journal.h"
#include "service/telemetry.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/names.h"
#include "util/parse.h"
#include "util/phase_profiler.h"
#include "util/record.h"
#include "util/thread_pool.h"

namespace vc2m::service {

namespace {

/// Stable names (reports, the config digest), indexed by ShedPolicy.
constexpr const char* kShedPolicyNames[] = {"reject-newest", "reject-largest",
                                            "criticality"};

/// Everything the service knows about an outcome, indexed by its value.
struct OutcomeRow {
  const char* name;                    ///< journal and span spelling
  std::uint64_t Stats::*counter;       ///< the counter it bumps
  std::uint64_t ServeReport::*total;   ///< the report total it lands in
  util::LogHistogram State::*latency;  ///< the latency class it feeds
  bool mutates;     ///< changes the admitted state: a commit
  bool terminal;    ///< ends the request (a deferral retries)
  bool solved;      ///< the full solver ran: feeds the EWMA cost estimate
  bool downgraded;  ///< reachable only past a downgrade to the probe
};

constexpr OutcomeRow kOutcomes[] = {
    {"admitted", &Stats::admitted, &ServeReport::admitted, &State::lat_admitted,
     true, true, true, false},
    {"rejected", &Stats::rejected, &ServeReport::rejected, &State::lat_rejected,
     false, true, true, false},
    {"probe_rejected", &Stats::probe_rejected, &ServeReport::probe_rejected,
     &State::lat_rejected, false, true, false, true},
    {"deferred", &Stats::deferred, &ServeReport::deferred, &State::lat_deferred,
     false, false, false, true},
    {"timed_out", &Stats::timed_out, &ServeReport::timed_out,
     &State::lat_rejected, false, true, false, true},
    {"shed", &Stats::shed, &ServeReport::shed, &State::lat_shed, false, true,
     false, false},
    {"removed", &Stats::removed, &ServeReport::removed, &State::lat_admitted,
     true, true, false, false},
    {"not_present", &Stats::not_present, &ServeReport::not_present,
     &State::lat_rejected, false, true, false, false},
    {"resized", &Stats::resized, &ServeReport::resized, &State::lat_admitted,
     true, true, true, false},
    {"resize_rejected", &Stats::resize_rejected, &ServeReport::resize_rejected,
     &State::lat_rejected, false, true, true, false},
};
static_assert(std::size(kOutcomes) ==
              static_cast<std::size_t>(Outcome::kResizeRejected) + 1);

const OutcomeRow& row_of(Outcome o) {
  return kOutcomes[static_cast<std::size_t>(o)];
}

/// Decisions taken so far — one per journal record: every terminal outcome
/// plus every deferral. The timeline sampler counts in this unit, and it
/// restores with any snapshot.
std::uint64_t decisions_of(const Stats& s) {
  std::uint64_t d = 0;
  for (const OutcomeRow& row : kOutcomes) d += s.*row.counter;
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// Enum names (stable: they appear in journal records and reports).

const char* to_string(ShedPolicy p) {
  return util::enum_name(kShedPolicyNames, p);
}

bool shed_policy_from_string(const std::string& s, ShedPolicy& out) {
  return util::enum_from_name(kShedPolicyNames, s, out);
}

const char* to_string(Outcome o) { return util::enum_name(kOutcomes, o); }

// ---------------------------------------------------------------------------
// Journal records.

/// A journal record's payload, `key=value` joined by '|'.
template <util::RecordOf<JournalRecord> R, class V>
void fields(R& r, V&& v) {
  v("seq", r.seq);
  v("attempt", r.attempt);
  v("kind", util::Named{r.kind, kRequestKindNames});
  v("outcome", util::Named{r.outcome, kOutcomes});
  v("vm", r.vm);
  v("tasks", r.tasks);
  v("events", r.events);
  v("cost_ns", r.cost_ns);
  v("latency_ns", r.latency_ns);
  v("dbf", r.dbf_evals);
  v("budget", r.budget_evals);
  v("adm", r.admission_tests);
}

std::string serialize(const JournalRecord& r) {
  return util::write_record(r, '|');
}

JournalRecord parse_journal_record(const std::string& payload) {
  return util::parse_record<JournalRecord>(payload, '|', "journal record");
}

CrashSpec parse_crash_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  VC2M_CHECK_MSG(colon != std::string::npos,
                 "crash spec: want POINT:N, got '" << spec << "'");
  const std::string point = spec.substr(0, colon);
  CrashSpec out;
  if (!util::enum_from_name(kCrashPointNames, point, out.point) ||
      out.point == CrashPoint::kNone)
    throw util::Error("crash spec: unknown point '" + point +
                      "' (before-append|after-append|mid-snapshot)");
  out.at = util::parse_u64(std::string_view(spec).substr(colon + 1),
                           "crash spec");
  return out;
}

std::string config_digest(const ServiceConfig& cfg) {
  std::ostringstream os;
  os << "trace="
     << (cfg.trace.spec.empty() ? to_string(cfg.trace.pattern) : cfg.trace.spec)
     << "|seed=" << cfg.seed << "|platform=" << cfg.platform_name
     << "|deadline_ns=" << cfg.deadline.raw_ns()
     << "|shed=" << to_string(cfg.shed) << "|queue_cap=" << cfg.queue_cap
     << "|max_retries=" << cfg.max_retries
     << "|backoff_ns=" << cfg.backoff.raw_ns()
     << "|snapshot_every=" << cfg.snapshot_every;
  return scenario::text_digest(os.str());
}

// ---------------------------------------------------------------------------
// The request window.

namespace {

/// The part of the request stream the event loop can still reach: every
/// request from the oldest one a queue or retry entry names through the
/// next arrival. Requests are generated as the loop first asks for them
/// and dropped once nothing names them, so a run holds about a queue's
/// worth of requests instead of the whole trace.
class TraceWindow {
 public:
  TraceWindow(const TraceConfig& cfg, std::uint64_t seed)
      : gen_(cfg, seed), size_(cfg.requests) {}

  /// Requests in the whole trace.
  std::uint64_t size() const { return size_; }

  /// Request `seq`, generated if it is past the window. References stay
  /// valid until drop_below passes `seq`.
  const ServeRequest& operator[](std::uint64_t seq) {
    VC2M_CHECK_MSG(seq >= base_ && seq < size_,
                   "request " << seq << " is outside the trace window");
    while (base_ + window_.size() <= seq) window_.push_back(gen_.next());
    return window_[seq - base_];
  }

  /// Forget every request below `seq`.
  void drop_below(std::uint64_t seq) {
    while (base_ < seq && !window_.empty()) {
      window_.pop_front();
      ++base_;
    }
    for (; base_ < seq; ++base_) gen_.next();  // never generated: skip
  }

 private:
  TraceGenerator gen_;
  std::uint64_t size_;
  std::uint64_t base_ = 0;  ///< seq of window_.front()
  std::deque<ServeRequest> window_;
};

/// The oldest request the loop can still reach: the next arrival or an
/// attempt waiting in the queue or for its retry.
std::uint64_t oldest_reachable(const State& st) {
  std::uint64_t seq = st.trace_next;
  for (const QueueEntry& e : st.queue) seq = std::min(seq, e.seq);
  for (const QueueEntry& e : st.retry) seq = std::min(seq, e.seq);
  return seq;
}

}  // namespace

// ---------------------------------------------------------------------------
// The Decider.

namespace {

bool vm_present(const core::AdmissionState& adm, int vm) {
  for (const auto& v : adm.vcpus)
    if (v.vm == vm) return true;
  return false;
}

/// Sound upper bound on the capacity the new VM could ever get: per used
/// core, 1 minus the residents' utilization at full resources (their
/// minimum — budget surfaces are non-increasing in cache/BW), plus one
/// full core per unopened core. A demand lower bound exceeding this cannot
/// be admitted by any allocation, so probe rejections are real rejections.
double headroom_upper_bound(const core::AdmissionState& adm,
                            const model::PlatformSpec& platform) {
  double h = 0;
  for (const auto& members : adm.mapping.vcpus_on_core) {
    double used = 0;
    for (const std::size_t vi : members)
      used += adm.vcpus[vi].utilization(platform.grid.c_max,
                                        platform.grid.b_max);
    h += std::max(0.0, 1.0 - used);
  }
  const std::size_t open = adm.mapping.vcpus_on_core.size();
  if (platform.cores > open)
    h += static_cast<double>(platform.cores - open);
  return h;
}

// Deterministic virtual cost of one decision, from what the allocator
// actually did (counter deltas). The constants are a plausible ns-scale
// model; what matters is determinism, not wall-clock fidelity.
std::int64_t solve_cost(const util::AllocCounters& c) {
  return 20'000 + 800 * static_cast<std::int64_t>(c.dbf_evaluations) +
         500 * static_cast<std::int64_t>(c.budget_evaluations) +
         120 * static_cast<std::int64_t>(c.admission_tests);
}

/// The record fields an attempt takes from its request.
JournalRecord request_record(const ServeRequest& req, const QueueEntry& e) {
  JournalRecord rec;
  rec.seq = e.seq;
  rec.attempt = e.attempt;
  rec.kind = req.kind;
  rec.vm = req.vm;
  return rec;
}

/// Admit or resize a present VM: the downgrade ladder, then the solver.
void admit_or_resize(Decision& d, const State& st, const ServeRequest& req,
                     const QueueEntry& entry, util::Time start,
                     const ServiceConfig& cfg,
                     const util::AllocCounterScope& counters,
                     DecideWorkspace& ws) {
  JournalRecord& rec = d.rec;
  const model::Taskset& tasks = ws.tasks;
  {
    VC2M_PROFILE_PHASE("materialize");
    materialize_taskset(req, cfg.platform.grid, ws.tasks);
  }
  rec.tasks = tasks.size();
  const auto n = static_cast<std::int64_t>(tasks.size());
  if (cfg.deadline > util::Time::zero() &&
      (start - entry.ready_at) + util::Time::ns(st.est_ns_per_task * n) >
          cfg.deadline) {
    // The full solve would bust the deadline: run the headroom probe.
    rec.cost_ns =
        4'000 + 200 * static_cast<std::int64_t>(st.adm.vcpus.size()) + 100 * n;
    if (model::total_reference_utilization(tasks) >
        headroom_upper_bound(st.adm, cfg.platform))
      rec.outcome = Outcome::kProbeRejected;
    else if (entry.attempt < cfg.max_retries)
      rec.outcome = Outcome::kDeferred;
    else
      rec.outcome = Outcome::kTimedOut;
    return;
  }
  util::Rng rng(mix_seed(cfg.seed, entry.seq, entry.attempt));
  core::VmAllocConfig vmc = cfg.vm_cfg;
  vmc.request_id = static_cast<std::int64_t>(entry.seq);
  const bool admit = req.kind == RequestKind::kAdmit;
  core::AdmitResult r =
      admit ? core::admit_vm(st.adm, tasks, req.vm, cfg.platform, vmc, rng,
                             ws.adm)
            : core::resize_vm(st.adm, tasks, req.vm, cfg.platform, vmc, rng,
                              ws.adm);
  if (r.admitted) d.adm = std::move(r.state);
  rec.outcome = admit ? (r.admitted ? Outcome::kAdmitted : Outcome::kRejected)
                      : (r.admitted ? Outcome::kResized
                                    : Outcome::kResizeRejected);
  rec.cost_ns = solve_cost(counters.counters());
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t seq,
                       unsigned attempt) {
  std::uint64_t h = seed ^ 0xCBF29CE484222325ull;
  h = (h ^ (seq + 0x9E3779B97F4A7C15ull)) * 0x100000001B3ull;
  h = (h ^ (attempt + 1)) * 0x100000001B3ull;
  return h;
}

Decision decide(const State& st, const ServeRequest& req,
                const QueueEntry& entry, util::Time start,
                const ServiceConfig& cfg, DecideWorkspace& ws) {
  VC2M_PROFILE_PHASE("decide");
  Decision d{request_record(req, entry)};
  util::AllocCounterScope counters;
  obs::DecisionLog& log = ws.log;
  log.clear();
  {
    obs::DecisionLogScope scope(log);
    if (req.kind != RequestKind::kAdmit && !vm_present(st.adm, req.vm)) {
      d.rec.outcome = Outcome::kNotPresent;
      d.rec.cost_ns = 2'000;
    } else if (req.kind == RequestKind::kRemove) {
      d.adm = core::remove_vm(st.adm, req.vm);
      d.rec.outcome = Outcome::kRemoved;
      d.rec.cost_ns = 8'000 + 2'000 * static_cast<std::int64_t>(
                                          st.adm.vcpus.size() -
                                          d.adm->vcpus.size());
    } else {
      admit_or_resize(d, st, req, entry, start, cfg, counters, ws);
    }
  }
  d.rec.events = log.events().size();
  d.dropped = log.dropped();
  const util::AllocCounters ac = counters.counters();
  d.rec.dbf_evals = ac.dbf_evaluations;
  d.rec.budget_evals = ac.budget_evaluations;
  d.rec.admission_tests = ac.admission_tests;
  return d;
}

// ---------------------------------------------------------------------------
// Snapshot serialization. Line-based text, FNV-checksummed; doubles as hex
// bit patterns so restore is exact.

/// A `q` or `r` line of the snapshot.
template <util::RecordOf<QueueEntry> R, class V>
void fields(R& e, V&& v) {
  v("seq", e.seq);
  v("attempt", e.attempt);
  v("ready_at", e.ready_at);
}

/// The snapshot's lines after the schema line, up to the `vcpus=` line.
template <util::RecordOf<Snapshot> R, class V>
void fields(R& s, V&& v) {
  v("config", s.config);
  v("ordinal", s.state.ordinal);
  v("journal_base", s.journal_base);
  v("journal_records", s.journal_records);
  v("trace_next", s.state.trace_next);
  v("busy_until", s.state.busy_until);
  v("est", s.state.est_ns_per_task);
  v("commits", s.state.commits);
  v("stats", util::Values{s.state.stats});
  v("hist_admitted", s.state.lat_admitted);
  v("hist_rejected", s.state.lat_rejected);
  v("hist_deferred", s.state.lat_deferred);
  v("hist_shed", s.state.lat_shed);
  v("queue", util::Lines{s.state.queue, "q"});
  v("retry", util::Lines{s.state.retry, "r"});
}

namespace {

/// The `vcpus=` and `cores=` lines and the `v` and `c` lines under them.
void put_admitted(std::string& out, const core::AdmissionState& adm) {
  const auto field = [&](const auto& value) {
    out += ' ';
    util::put(out, value);
  };
  out += "vcpus=";
  util::put(out, adm.vcpus.size());
  for (const auto& v : adm.vcpus) {
    out += "\nv";
    field(v.vm);
    field(v.period);
    field(v.tasks.size());
    for (const std::size_t t : v.tasks) field(t);
    const auto& g = v.budget.grid();
    for (const unsigned bound : {g.c_min, g.c_max, g.b_min, g.b_max})
      field(bound);
    for (const util::Time budget : v.budget.flat()) field(budget);
  }
  const auto& m = adm.mapping;
  out += "\ncores=";
  util::put(out, m.vcpus_on_core.size());
  field(m.schedulable ? 1 : 0);
  field(m.cores_used);
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    out += "\nc";
    field(m.cache[k]);
    field(m.bw[k]);
    field(m.vcpus_on_core[k].size());
    for (const std::size_t vi : m.vcpus_on_core[k]) field(vi);
  }
}

/// The inverse of put_admitted.
void read_admitted(util::FieldReader& in, core::AdmissionState& adm) {
  for (std::uint64_t n = in.u64("vcpus"); n > 0; --n) {
    util::FieldReader ls = util::tagged_line(in, "v");
    model::Vcpu v;
    v.vm = ls.integer<int>();
    v.period = util::Time::ns(ls.i64());
    for (std::uint64_t t = ls.u64(); t > 0; --t)
      v.tasks.push_back(ls.integer<std::size_t>());
    model::ResourceGrid g;
    for (unsigned* bound : {&g.c_min, &g.c_max, &g.b_min, &g.b_max})
      *bound = ls.integer<unsigned>();
    // Checked before the surface is sized from it.
    if (g.c_min < 1 || g.c_min > g.c_max || g.b_min < 1 || g.b_min > g.b_max ||
        g.size() != ls.left())
      ls.fail("budget grid does not match its values");
    v.budget = model::WcetFn(g);
    for (util::Time& budget : v.budget.flat())
      budget = util::Time::ns(ls.i64());
    adm.vcpus.push_back(std::move(v));
  }
  util::FieldReader ls(in.value("cores"), ' ', "snapshot cores");
  ls.expect_fields(3);
  const std::uint64_t ncores = ls.u64();
  auto& m = adm.mapping;
  const int flag = ls.integer<int>();
  if (flag != 0 && flag != 1) ls.fail("schedulable flag must be 0 or 1");
  m.schedulable = flag == 1;
  m.cores_used = ls.integer<unsigned>();
  for (std::uint64_t k = 0; k < ncores; ++k) {
    util::FieldReader cl = util::tagged_line(in, "c");
    const unsigned cache = cl.integer<unsigned>(), bw = cl.integer<unsigned>();
    std::vector<std::size_t> members;
    for (std::uint64_t n = cl.u64(); n > 0; --n) {
      const auto vi = cl.integer<std::size_t>();
      if (vi >= adm.vcpus.size()) cl.fail("VCPU index past the VCPU list");
      if (!adm.vcpus[vi].budget.grid().contains(cache, bw))
        cl.fail("partitions outside the grid of a VCPU on the core");
      members.push_back(vi);
    }
    cl.finish();
    m.cache.push_back(cache);
    m.bw.push_back(bw);
    m.vcpus_on_core.push_back(std::move(members));
  }
}

}  // namespace

std::string serialize(const Snapshot& snap) {
  std::string out = kSnapshotSchema;
  out += '\n';
  util::put_fields(out, snap, '\n', true);
  out += '\n';
  put_admitted(out, snap.state.adm);
  out += '\n';
  return out;
}

Snapshot parse_snapshot(std::string_view body) {
  // One field per line (the body ends in a newline, so the last field is
  // empty); the number lists split further at spaces.
  util::FieldReader in(body, '\n', "snapshot");
  if (in.next() != kSnapshotSchema) in.fail("bad schema");
  Snapshot snap;
  util::get_fields(in, snap, true);
  read_admitted(in, snap.state.adm);
  if (!in.next().empty()) in.fail("no newline after the last line");
  in.finish();
  return snap;
}

namespace {

/// Restore from a snapshot file. Returns true on success; a missing file
/// is a silent false, anything wrong with an existing file is a warning
/// plus false (the caller recomputes from scratch — same result, slower).
bool load_snapshot(const std::string& path, const std::string& digest,
                   State& st, std::uint64_t& journal_base,
                   std::uint64_t& journal_records,
                   std::vector<std::string>& warnings) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return false;
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();
  const auto pos = text.rfind("\nfnv=");
  if (pos == std::string::npos) {
    warnings.push_back("recover: snapshot '" + path +
                       "' has no checksum line — discarding it");
    return false;
  }
  const std::string body = text.substr(0, pos + 1);
  std::string sum = text.substr(pos + 5);
  while (!sum.empty() && sum.back() == '\n') sum.pop_back();
  if (scenario::text_digest(body) != sum) {
    warnings.push_back("recover: snapshot '" + path +
                       "' fails its checksum — discarding it");
    return false;
  }
  // The checksum vouches for the bytes; parse failures past this point mean
  // a schema change or a doctored file, which also discard (with a
  // warning), never crash.
  try {
    Snapshot snap = parse_snapshot(body);
    if (snap.config != digest) {
      warnings.push_back(
          "recover: snapshot '" + path +
          "' was written by a different configuration — discarding it");
      return false;
    }
    st = std::move(snap.state);
    journal_base = snap.journal_base;
    journal_records = snap.journal_records;
    return true;
  } catch (const std::exception& e) {
    warnings.push_back("recover: snapshot '" + path +
                       "' did not parse (" + e.what() + ") — discarding it");
    return false;
  }
}

// ---------------------------------------------------------------------------
// Recovery: the snapshot, the journal scan, and the replay plan.

/// Where the journal stands after recovery: the records left to replay
/// and how the Committer opens the file.
struct JournalPlan {
  std::vector<JournalRecord> replay;  ///< records to fold or recompute
  std::uint64_t base = 0;             ///< base of the on-disk journal
  std::uint64_t records = 0;          ///< records in the on-disk journal
  std::uint64_t valid_bytes = 0;      ///< append offset; 0 = start fresh
};

/// Restore `st` from the snapshot and plan the replay of the journal that
/// continues it. Without --recover the run starts fresh, and a stale
/// snapshot from an earlier run is deleted so that a later --recover
/// cannot pair it with the new journal.
JournalPlan recover(const ServiceConfig& cfg, const std::string& digest,
                    State& st, std::vector<std::string>& warnings) {
  const std::string snap_path = cfg.journal_path + ".snap";
  JournalPlan plan;
  if (!cfg.recover) {
    std::remove(snap_path.c_str());
    return plan;
  }
  std::uint64_t snap_jb = 0, snap_jr = 0;
  const bool have_snap =
      load_snapshot(snap_path, digest, st, snap_jb, snap_jr, warnings);
  const JournalScan scan = scan_journal(cfg.journal_path);
  bool use_journal = false;
  std::size_t skip = 0;
  if (!scan.exists) {
    if (!have_snap)
      warnings.push_back("recover: no journal or snapshot at '" +
                         cfg.journal_path + "' — starting fresh");
  } else if (!scan.header_ok) {
    warnings.push_back("recover: journal '" + cfg.journal_path +
                       "' has no valid header — ignoring it");
  } else if (scan.config_digest != digest) {
    warnings.push_back(
        "recover: journal '" + cfg.journal_path +
        "' was written by a different configuration — ignoring it");
  } else if (scan.base == st.ordinal) {
    use_journal = true;
  } else if (have_snap && scan.base == snap_jb) {
    // Crash landed between the snapshot rename and the journal rotation:
    // the first snap_jr records are already folded into the snapshot.
    use_journal = true;
    skip = snap_jr;
  } else {
    warnings.push_back(
        "recover: journal base " + std::to_string(scan.base) +
        " matches neither snapshot ordinal " + std::to_string(st.ordinal) +
        " nor its fold point — ignoring the journal");
  }
  if (use_journal && scan.torn)
    warnings.push_back(
        "recover: journal '" + cfg.journal_path +
        "' has a torn tail — truncated to the last valid record (" +
        std::to_string(scan.valid_bytes) + " bytes)");
  if (use_journal && skip > scan.records.size()) {
    warnings.push_back(
        "recover: journal is shorter than the snapshot's fold point — "
        "ignoring it");
    use_journal = false;
  }
  plan.base = use_journal ? scan.base : st.ordinal;
  if (!use_journal) return plan;
  for (std::size_t i = skip; i < scan.records.size(); ++i)
    plan.replay.push_back(parse_journal_record(scan.records[i]));
  plan.records = scan.records.size();
  plan.valid_bytes = scan.valid_bytes;
  return plan;
}

/// Replay folds a non-mutating record as written — skipping the solver is
/// the point of the journal — and sends a mutating one back through the
/// Decider, since the journal carries no state deltas. The Committer
/// checks the result against the record either way.
Decision replay_or_decide(const JournalRecord* expected, const State& st,
                          const ServeRequest& req, const QueueEntry& entry,
                          util::Time start, const ServiceConfig& cfg,
                          DecideWorkspace& ws) {
  if (expected == nullptr || row_of(expected->outcome).mutates)
    return decide(st, req, entry, start, cfg, ws);
  return Decision{*expected};
}

// ---------------------------------------------------------------------------
// The Committer and its observers.

/// Sees every decision once its journal record is durable (or verified,
/// during replay) and the State reflects it. Shed, deferred and served
/// decisions alike.
class DecisionObserver {
 public:
  virtual void on_decision(const State& st, const obs::RequestSpan& span) = 0;
  /// The run is about to die at a crash point, or stops on an interrupt.
  virtual void on_abort() {}
};

bool retry_after(const QueueEntry& a, const QueueEntry& b) {
  return a.ready_at > b.ready_at ||
         (a.ready_at == b.ready_at && a.seq > b.seq);
}

obs::RequestSpan span_of(const JournalRecord& rec, util::Time queued,
                         util::Time dequeued, std::int64_t wall_ns) {
  obs::RequestSpan span;
  span.seq = rec.seq;
  span.attempt = rec.attempt;
  span.kind = to_string(rec.kind);
  span.outcome = to_string(rec.outcome);
  span.vm = rec.vm;
  span.queued_ns = queued.raw_ns();
  span.dequeued_ns = dequeued.raw_ns();
  span.solved_ns = dequeued.raw_ns() + rec.cost_ns;
  span.cost_ns = rec.cost_ns;
  span.latency_ns = rec.latency_ns;
  span.wall_ns = wall_ns;
  return span;
}

class Committer {
 public:
  Committer(const ServiceConfig& cfg, std::string digest, JournalPlan plan,
            std::vector<DecisionObserver*> observers)
      : cfg_(cfg),
        digest_(std::move(digest)),
        plan_(std::move(plan)),
        observers_(std::move(observers)) {
    if (cfg_.journal_path.empty()) return;
    if (plan_.valid_bytes == 0)
      writer_.open_fresh(cfg_.journal_path, digest_, plan_.base);
    else if (plan_.replay.empty())
      writer_.open_append(cfg_.journal_path, plan_.valid_bytes);
  }

  /// The journal record the attempt must reproduce while replaying (it
  /// must be the same attempt), or null once live.
  const JournalRecord* replaying(const QueueEntry& entry,
                                 RequestKind kind) const {
    if (cursor_ == plan_.replay.size()) return nullptr;
    const JournalRecord& exp = plan_.replay[cursor_];
    VC2M_CHECK_MSG(exp.seq == entry.seq && exp.attempt == entry.attempt &&
                       exp.kind == kind,
                   "journal replay diverged: journal record "
                       << cursor_ << " is seq=" << exp.seq
                       << ", the request stream produced seq=" << entry.seq);
    return &exp;
  }

  /// Apply `d` — an attempt of `req` queued at `queued` and taken up at
  /// `dequeued` — to the state, journal it, notify the observers, then
  /// count the commit toward the snapshot cadence.
  void commit(State& st, Decision d, const ServeRequest& req,
              util::Time queued, util::Time dequeued, std::int64_t wall_ns) {
    VC2M_PROFILE_PHASE("commit");
    JournalRecord& rec = d.rec;
    const OutcomeRow& row = row_of(rec.outcome);
    const util::Time solved = dequeued + util::Time::ns(rec.cost_ns);
    const std::int64_t waited = (solved - req.at).raw_ns();
    ++(st.stats.*row.counter);
    (st.*row.latency).add(static_cast<double>(waited) / 1000.0);
    rec.latency_ns = row.terminal ? waited : 0;
    if (!row.terminal) {
      st.retry.push_back({rec.seq, rec.attempt + 1,
                          solved + cfg_.backoff *
                                       (std::int64_t{1} << rec.attempt)});
      std::push_heap(st.retry.begin(), st.retry.end(), retry_after);
    }
    if (row.downgraded) ++st.stats.downgrades;
    if (row.solved) {
      const std::int64_t per =
          rec.cost_ns /
          std::max<std::int64_t>(1, static_cast<std::int64_t>(rec.tasks));
      st.est_ns_per_task =
          std::max<std::int64_t>(1, (3 * st.est_ns_per_task + per) / 4);
    }
    if (d.adm) st.adm = std::move(*d.adm);
    st.stats.decision_events += rec.events;
    st.stats.decision_dropped += d.dropped;
    st.stats.dbf_evals += rec.dbf_evals;
    st.stats.budget_evals += rec.budget_evals;
    st.stats.admission_tests += rec.admission_tests;

    const bool appended = journal(rec);
    const obs::RequestSpan span = span_of(rec, queued, dequeued, wall_ns);
    for (DecisionObserver* o : observers_) o->on_decision(st, span);
    if (appended && cfg_.crash.point == CrashPoint::kAfterAppend &&
        rec.seq == cfg_.crash.at)
      crash();
    if (!row.mutates) return;
    ++st.commits;
    // The writer is open exactly when the run journals live.
    if (writer_.is_open() && cfg_.snapshot_every &&
        st.commits % cfg_.snapshot_every == 0)
      snapshot_and_rotate(st);
  }

  void notify_abort() {
    for (DecisionObserver* o : observers_) o->on_abort();
  }

 private:
  /// Verify (replay) or append (live) the record; true once appended.
  /// Replay turns live when its cursor reaches the end of the journal.
  bool journal(const JournalRecord& rec) {
    if (cfg_.journal_path.empty()) return false;
    VC2M_PROFILE_PHASE("journal");
    if (cursor_ < plan_.replay.size()) {
      const JournalRecord& exp = plan_.replay[cursor_];
      VC2M_CHECK_MSG(exp.seq == rec.seq && exp.attempt == rec.attempt &&
                         exp.kind == rec.kind && exp.outcome == rec.outcome &&
                         exp.cost_ns == rec.cost_ns,
                     "journal replay diverged at record "
                         << cursor_ << ": journal says seq=" << exp.seq
                         << " outcome=" << to_string(exp.outcome)
                         << ", recomputation says seq=" << rec.seq
                         << " outcome=" << to_string(rec.outcome));
      if (++cursor_ == plan_.replay.size())
        writer_.open_append(cfg_.journal_path, plan_.valid_bytes);
      return false;
    }
    // Dies before any observer sees this decision: its record never
    // becomes durable, and the span ring must match the journal tail.
    if (cfg_.crash.point == CrashPoint::kBeforeAppend &&
        rec.seq == cfg_.crash.at)
      crash();
    writer_.append(serialize(rec));
    ++plan_.records;
    return true;
  }

  void snapshot_and_rotate(State& st) {
    VC2M_PROFILE_PHASE("snapshot");
    ++snapshot_writes_;
    ++st.ordinal;
    const std::string snap_path = cfg_.journal_path + ".snap";
    // The state moves into the snapshot and back: no copy to serialize.
    Snapshot snap{digest_, plan_.base, plan_.records, std::move(st)};
    const std::string body = serialize(snap);
    st = std::move(snap.state);
    const std::string text =
        body + "fnv=" + scenario::text_digest(body) + "\n";
    const std::string tmp = snap_path + ".tmp";
    if (cfg_.crash.point == CrashPoint::kMidSnapshot &&
        snapshot_writes_ == cfg_.crash.at) {
      write_file_durable(tmp, text.substr(0, text.size() / 2));
      crash();
    }
    write_file_durable(tmp, text);
    if (std::rename(tmp.c_str(), snap_path.c_str()) != 0)
      throw util::Error("cannot rename snapshot '" + tmp + "' to '" +
                        snap_path + "': " + std::strerror(errno));
    writer_.open_fresh(cfg_.journal_path, digest_, st.ordinal);
    plan_.base = st.ordinal;
    plan_.records = 0;
  }

  [[noreturn]] void crash() {
    notify_abort();
    std::_Exit(137);
  }

  const ServiceConfig& cfg_;
  const std::string digest_;
  JournalPlan plan_;
  std::vector<DecisionObserver*> observers_;
  JournalWriter writer_;
  std::size_t cursor_ = 0;               ///< next record replay checks
  std::uint64_t snapshot_writes_ = 0;    ///< crash-injection counter
};

/// Everything a sample or a stats snapshot shows, read off the state at
/// virtual time `vt_ns`. Virtual-time quantities only — deterministic by
/// construction.
MetricsSample sample_of(const State& st, std::int64_t vt_ns) {
  MetricsSample ms;
  ms.served = decisions_of(st.stats);
  ms.vt_ns = vt_ns;
  ms.queue_depth = st.queue.size();
  ms.retry_depth = st.retry.size();
  ms.est_ns_per_task = st.est_ns_per_task;
  ms.stats = st.stats;
  ms.commits = st.commits;
  ms.lat_admitted = st.lat_admitted;
  ms.lat_rejected = st.lat_rejected;
  ms.lat_deferred = st.lat_deferred;
  ms.lat_shed = st.lat_shed;
  return ms;
}

/// The post-mortem span ring, dumped to <journal>.spans when the run
/// crashes or is interrupted, and every span when collect_spans is set.
class SpanRecorder final : public DecisionObserver {
 public:
  SpanRecorder(const ServiceConfig& cfg, std::vector<obs::RequestSpan>* all)
      : ring_(cfg.span_ring), all_(all) {
    if (!cfg.journal_path.empty() && cfg.span_ring > 0)
      dump_path_ = cfg.journal_path + ".spans";
  }
  void on_decision(const State&, const obs::RequestSpan& span) override {
    ring_.push(span);
    if (all_) all_->push_back(span);
  }
  void on_abort() override {
    if (!dump_path_.empty()) write_span_dump(dump_path_, ring_);
  }

 private:
  SpanRing ring_;
  std::vector<obs::RequestSpan>* all_;
  std::string dump_path_;
};

/// The metrics timeline: a sample every `sample_every` decisions. It is a
/// function of the decision stream, so --recover regenerates it: samples
/// 0..k0-1, k0 = restored decisions / sample_every, describe decisions
/// the snapshot already folds and are kept; replay and the live run
/// rewrite every later one.
class TimelineSampler final : public DecisionObserver {
 public:
  TimelineSampler(const ServiceConfig& cfg, const std::string& digest,
                  std::uint64_t restored, std::vector<std::string>& warnings)
      : every_(cfg.sample_every) {
    const std::string& path = cfg.timeline_path;
    if (path.empty() || every_ == 0) return;
    const std::string header = timeline_header_payload(digest, every_);
    if (!cfg.recover) {
      writer_.open_with_header(path, header);
      return;
    }
    const std::uint64_t k0 = restored / every_;
    const TimelineScan tls = scan_timeline(path);
    const bool ours = tls.header_ok && tls.config_digest == digest &&
                      tls.every == every_;
    if (ours && tls.raw.size() >= k0) {
      // Frames are a 12-byte length+checksum prefix and the payload.
      std::uint64_t keep = 12 + header.size();
      for (std::uint64_t i = 0; i < k0; ++i) keep += 12 + tls.raw[i].size();
      writer_.open_append(path, keep);
    } else if (k0 == 0) {
      if (tls.exists)
        warnings.push_back("recover: timeline '" + path +
                           "' does not match this configuration — starting "
                           "a fresh timeline");
      writer_.open_with_header(path, header);
    } else {
      warnings.push_back(
          "recover: timeline '" + path + "' cannot be reproduced: the " +
          "snapshot resumes at sample " + std::to_string(k0) +
          " but the file holds " + std::to_string(ours ? tls.raw.size() : 0) +
          " matching samples — leaving it untouched, no samples this run");
    }
  }
  void on_decision(const State& st, const obs::RequestSpan& span) override {
    if (!writer_.is_open()) return;
    const std::uint64_t d = decisions_of(st.stats);
    if (d % every_ != 0) return;
    MetricsSample ms = sample_of(st, span.solved_ns);
    ms.index = d / every_ - 1;
    writer_.append(serialize(ms));
  }

 private:
  std::uint64_t every_;
  JournalWriter writer_;
};

/// --stats-every cadence and SIGUSR1 stats snapshots.
class StatsRenderer final : public DecisionObserver {
 public:
  explicit StatsRenderer(const ServiceConfig& cfg) : cfg_(cfg) {}
  void on_decision(const State& st, const obs::RequestSpan& span) override {
    const bool poked =
        cfg_.stats_signal != nullptr &&
        cfg_.stats_signal->exchange(false, std::memory_order_relaxed);
    if (poked ||
        (cfg_.stats_every && decisions_of(st.stats) % cfg_.stats_every == 0))
      (cfg_.stats_out ? *cfg_.stats_out : std::cerr)
          << render_stats_snapshot(sample_of(st, span.solved_ns))
          << std::flush;
  }

 private:
  const ServiceConfig& cfg_;
};

// ---------------------------------------------------------------------------
// Composition.

/// Single-decision service path: existing-CSA admissions solve one
/// min-budget surface at a time, so stripe them over a service-lifetime
/// inner pool when the platform has spare hardware threads (verdicts and
/// journal digests are bit-identical at any inner-jobs value; the digest
/// does not cover vm_cfg). The other VCPU analyses never submit work to
/// the pool, so they get none.
std::unique_ptr<util::ThreadPool> attach_inner_pool(core::VmAllocConfig& vm) {
  if (vm.analysis != core::VcpuAnalysis::kExistingCsa) vm.inner_jobs = 1;
  if (vm.inner_pool != nullptr || vm.inner_jobs == 1) return nullptr;
  const unsigned w = vm.inner_jobs == 0
                         ? util::ThreadPool::hardware_workers()
                         : static_cast<unsigned>(vm.inner_jobs);
  if (w <= 1) {
    vm.inner_jobs = 1;
    return nullptr;
  }
  auto pool = std::make_unique<util::ThreadPool>(w);
  vm.inner_pool = pool.get();
  vm.inner_jobs = static_cast<int>(w);
  return pool;
}

ServeReport report_of(const ServiceConfig& cfg, std::uint64_t requests,
                      const State& st, bool interrupted) {
  ServeReport rep;
  rep.git_rev = obs::build_git_rev();
  rep.trace =
      cfg.trace.spec.empty() ? to_string(cfg.trace.pattern) : cfg.trace.spec;
  rep.platform = cfg.platform_name;
  rep.seed = cfg.seed;
  rep.deadline_us = cfg.deadline.raw_ns() / 1000;
  rep.shed_policy = to_string(cfg.shed);
  rep.queue_cap = cfg.queue_cap;
  rep.max_retries = cfg.max_retries;
  rep.backoff_us = cfg.backoff.raw_ns() / 1000;
  rep.snapshot_every = cfg.snapshot_every;
  rep.requests = requests;
  const Stats& s = st.stats;
  for (const OutcomeRow& row : kOutcomes) rep.*row.total = s.*row.counter;
  rep.arrivals = s.arrivals;
  rep.retries = s.retries;
  rep.downgrades = s.downgrades;
  rep.commits = st.commits;
  // Snapshot count is derived from the commit count, not from how many
  // writes this process performed: a recovered run restores mid-stream and
  // must still report what the uninterrupted run would have.
  rep.snapshots = !cfg.journal_path.empty() && cfg.snapshot_every
                      ? st.commits / cfg.snapshot_every
                      : 0;
  rep.queue_max_depth = s.queue_max_depth;
  rep.backpressure = s.backpressure;
  rep.decision_events = s.decision_events;
  rep.decision_dropped = s.decision_dropped;
  if (!st.lat_admitted.empty())
    rep.latency_admitted_us = obs::HistogramSummary::of(st.lat_admitted);
  if (!st.lat_rejected.empty())
    rep.latency_rejected_us = obs::HistogramSummary::of(st.lat_rejected);
  if (!st.lat_deferred.empty())
    rep.latency_deferred_us = obs::HistogramSummary::of(st.lat_deferred);
  if (!st.lat_shed.empty())
    rep.latency_shed_us = obs::HistogramSummary::of(st.lat_shed);
  std::set<int> vms;
  for (const auto& v : st.adm.vcpus) vms.insert(v.vm);
  rep.vms = vms.size();
  rep.vcpus = st.adm.vcpus.size();
  rep.cores_used = st.adm.mapping.cores_used;
  core::SolveResult sr;
  sr.schedulable = st.adm.mapping.schedulable;
  sr.vcpus = st.adm.vcpus;
  sr.mapping = st.adm.mapping;
  rep.digest = scenario::solve_digest(sr);
  rep.interrupted = interrupted;
  return rep;
}

}  // namespace

ServiceResult run_service(const ServiceConfig& cfg_in) {
  VC2M_PROFILE_PHASE("serve");
  ServiceConfig cfg = cfg_in;
  const auto inner_pool = attach_inner_pool(cfg.vm_cfg);
  ServiceResult result;
  TraceWindow trace(cfg.trace, cfg.seed);
  // One span per decision: at least one per request. Sizing the vector
  // once keeps its doubling copies out of the run's peak memory.
  if (cfg.collect_spans) result.spans.reserve(trace.size());
  const std::string digest = config_digest(cfg);

  State st;
  JournalPlan plan;
  if (!cfg.journal_path.empty()) {
    VC2M_PROFILE_PHASE("recover");
    plan = recover(cfg, digest, st, result.warnings);
  }
  // Every decision of the run reuses its buffers.
  DecideWorkspace ws;
  SpanRecorder spans(cfg, cfg.collect_spans ? &result.spans : nullptr);
  TimelineSampler timeline(cfg, digest, decisions_of(st.stats),
                           result.warnings);
  StatsRenderer stats(cfg);
  Committer committer(cfg, digest, std::move(plan),
                      {&spans, &timeline, &stats});

  auto enqueue = [&](QueueEntry e, bool is_retry) {
    ++(is_retry ? st.stats.retries : st.stats.arrivals);
    if (st.queue.size() >= cfg.queue_cap) {
      const std::size_t v = shed_victim(cfg.shed, st.queue, e, trace);
      const QueueEntry victim = v == st.queue.size() ? e : st.queue[v];
      const ServeRequest& req = trace[victim.seq];
      Decision d{request_record(req, victim)};
      d.rec.outcome = Outcome::kShed;
      // Shed spans never reach the server: queued at the victim's ready
      // time, cut at the moment the overflowing arrival displaced it.
      committer.commit(st, std::move(d), req, victim.ready_at, e.ready_at,
                       /*wall_ns=*/0);
      if (v != st.queue.size()) {
        st.queue.erase(st.queue.begin() + static_cast<std::ptrdiff_t>(v));
        st.queue.push_back(e);
      }
    } else {
      st.queue.push_back(e);
    }
    if (st.queue.size() * 4 >= cfg.queue_cap * 3) ++st.stats.backpressure;
    st.stats.queue_max_depth =
        std::max<std::uint64_t>(st.stats.queue_max_depth, st.queue.size());
  };

  auto serve = [&](const QueueEntry& entry) {
    const auto wall_start = std::chrono::steady_clock::now();
    const ServeRequest& req = trace[entry.seq];
    const util::Time ts = util::max(st.busy_until, entry.ready_at);
    Decision d = replay_or_decide(committer.replaying(entry, req.kind), st,
                                  req, entry, ts, cfg, ws);
    st.busy_until = ts + util::Time::ns(d.rec.cost_ns);
    const std::int64_t wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    committer.commit(st, std::move(d), req, entry.ready_at, ts, wall_ns);
  };

  // The event loop: serve the queue head unless an arrival or a retry
  // lands first (arrivals win ties with retries).
  trace.drop_below(oldest_reachable(st));  // what a snapshot folded
  std::uint64_t served = 0;
  bool interrupted = false;
  while (true) {
    if ((cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) ||
        (cfg.stop_after && served >= cfg.stop_after)) {
      interrupted = true;
      break;
    }
    const util::Time never = util::Time::max();
    const util::Time ta =
        st.trace_next < trace.size() ? trace[st.trace_next].at : never;
    const util::Time tr =
        st.retry.empty() ? never : st.retry.front().ready_at;
    const util::Time tnext = util::min(ta, tr);
    if (!st.queue.empty() &&
        (tnext == never ||
         tnext > util::max(st.busy_until, st.queue.front().ready_at))) {
      const QueueEntry entry = st.queue.front();
      st.queue.erase(st.queue.begin());
      serve(entry);
      ++served;
    } else if (tnext == never) {
      break;
    } else if (ta <= tr) {
      trace.drop_below(oldest_reachable(st));
      const ServeRequest& r = trace[st.trace_next++];
      enqueue({r.seq, 0, r.at}, /*is_retry=*/false);
    } else {
      std::pop_heap(st.retry.begin(), st.retry.end(), retry_after);
      const QueueEntry e = st.retry.back();
      st.retry.pop_back();
      enqueue(e, /*is_retry=*/true);
    }
  }
  if (interrupted) committer.notify_abort();
  VC2M_PROFILE_PHASE("report");
  result.report = report_of(cfg, trace.size(), st, interrupted);
  result.interrupted = interrupted;
  return result;
}

}  // namespace vc2m::service

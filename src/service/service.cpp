#include "service/service.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include <chrono>
#include <iostream>

#include "core/admission.h"
#include "core/strategy.h"
#include "obs/decision_log.h"
#include "obs/request_span.h"
#include "scenario/digest.h"
#include "service/journal.h"
#include "service/telemetry.h"
#include "util/error.h"
#include "util/instrument.h"
#include "util/log_histogram.h"
#include "util/thread_pool.h"

namespace vc2m::service {

namespace {

// ---------------------------------------------------------------------------
// Strict scalar parsing shared by the record/spec parsers.

std::uint64_t parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  VC2M_CHECK_MSG(!s.empty() && s[0] != '-' && end == s.c_str() + s.size() &&
                     errno == 0,
                 what << ": bad number '" << s << "'");
  return v;
}

std::int64_t parse_i64(const std::string& s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  VC2M_CHECK_MSG(!s.empty() && end == s.c_str() + s.size() && errno == 0,
                 what << ": bad number '" << s << "'");
  return v;
}

bool request_kind_from_string(const std::string& s, RequestKind& out) {
  if (s == "admit") out = RequestKind::kAdmit;
  else if (s == "remove") out = RequestKind::kRemove;
  else if (s == "resize") out = RequestKind::kResize;
  else return false;
  return true;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto p = s.find(sep, start);
    out.push_back(s.substr(start, p - start));
    if (p == std::string::npos) return out;
    start = p + 1;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Enum names (stable: they appear in journal records and reports).

const char* to_string(ShedPolicy p) {
  switch (p) {
    case ShedPolicy::kRejectNewest: return "reject-newest";
    case ShedPolicy::kRejectLargest: return "reject-largest";
    case ShedPolicy::kCriticality: return "criticality";
  }
  return "?";
}

bool shed_policy_from_string(const std::string& s, ShedPolicy& out) {
  if (s == "reject-newest") out = ShedPolicy::kRejectNewest;
  else if (s == "reject-largest") out = ShedPolicy::kRejectLargest;
  else if (s == "criticality") out = ShedPolicy::kCriticality;
  else return false;
  return true;
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kAdmitted: return "admitted";
    case Outcome::kRejected: return "rejected";
    case Outcome::kProbeRejected: return "probe_rejected";
    case Outcome::kDeferred: return "deferred";
    case Outcome::kTimedOut: return "timed_out";
    case Outcome::kShed: return "shed";
    case Outcome::kRemoved: return "removed";
    case Outcome::kNotPresent: return "not_present";
    case Outcome::kResized: return "resized";
    case Outcome::kResizeRejected: return "resize_rejected";
  }
  return "?";
}

bool outcome_from_string(const std::string& s, Outcome& out) {
  static constexpr Outcome all[] = {
      Outcome::kAdmitted,      Outcome::kRejected, Outcome::kProbeRejected,
      Outcome::kDeferred,      Outcome::kTimedOut, Outcome::kShed,
      Outcome::kRemoved,       Outcome::kNotPresent,
      Outcome::kResized,       Outcome::kResizeRejected};
  for (const Outcome o : all)
    if (s == to_string(o)) {
      out = o;
      return true;
    }
  return false;
}

// ---------------------------------------------------------------------------
// Journal records.

std::string serialize(const JournalRecord& r) {
  std::ostringstream os;
  os << "seq=" << r.seq << "|attempt=" << r.attempt << "|kind="
     << to_string(r.kind) << "|outcome=" << to_string(r.outcome)
     << "|vm=" << r.vm << "|tasks=" << r.tasks << "|events=" << r.events
     << "|cost_ns=" << r.cost_ns << "|latency_ns=" << r.latency_ns
     << "|dbf=" << r.dbf_evals << "|budget=" << r.budget_evals
     << "|adm=" << r.admission_tests;
  return os.str();
}

JournalRecord parse_journal_record(const std::string& payload) {
  const auto parts = split(payload, '|');
  VC2M_CHECK_MSG(parts.size() == 12,
                 "journal record: want 12 fields, got " << parts.size());
  auto field = [&](std::size_t i, const char* key) -> std::string {
    const std::string prefix = std::string(key) + "=";
    VC2M_CHECK_MSG(parts[i].rfind(prefix, 0) == 0,
                   "journal record: field " << i << " must be '" << key
                                            << "=...'");
    return parts[i].substr(prefix.size());
  };
  JournalRecord r;
  r.seq = parse_u64(field(0, "seq"), "journal record");
  r.attempt =
      static_cast<unsigned>(parse_u64(field(1, "attempt"), "journal record"));
  VC2M_CHECK_MSG(request_kind_from_string(field(2, "kind"), r.kind),
                 "journal record: unknown kind '" << field(2, "kind") << "'");
  VC2M_CHECK_MSG(outcome_from_string(field(3, "outcome"), r.outcome),
                 "journal record: unknown outcome '" << field(3, "outcome")
                                                     << "'");
  r.vm = static_cast<int>(parse_i64(field(4, "vm"), "journal record"));
  r.tasks = parse_u64(field(5, "tasks"), "journal record");
  r.events = parse_u64(field(6, "events"), "journal record");
  r.cost_ns = parse_i64(field(7, "cost_ns"), "journal record");
  r.latency_ns = parse_i64(field(8, "latency_ns"), "journal record");
  r.dbf_evals = parse_u64(field(9, "dbf"), "journal record");
  r.budget_evals = parse_u64(field(10, "budget"), "journal record");
  r.admission_tests = parse_u64(field(11, "adm"), "journal record");
  return r;
}

CrashSpec parse_crash_spec(const std::string& spec) {
  const auto colon = spec.find(':');
  VC2M_CHECK_MSG(colon != std::string::npos,
                 "crash spec: want POINT:N, got '" << spec << "'");
  const std::string point = spec.substr(0, colon);
  CrashSpec out;
  if (point == "before-append") out.point = CrashPoint::kBeforeAppend;
  else if (point == "after-append") out.point = CrashPoint::kAfterAppend;
  else if (point == "mid-snapshot") out.point = CrashPoint::kMidSnapshot;
  else
    throw util::Error("crash spec: unknown point '" + point +
                      "' (before-append|after-append|mid-snapshot)");
  out.at = parse_u64(spec.substr(colon + 1), "crash spec");
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
// Shed policies.

std::size_t shed_victim(ShedPolicy policy, const std::vector<QueueEntry>& queue,
                        const QueueEntry& incoming,
                        const std::vector<ServeRequest>& trace) {
  if (policy == ShedPolicy::kRejectNewest) return queue.size();
  // Lexicographic-max victim key. Removes free capacity, so they get
  // weight -1 (and count as critical under the criticality policy): a
  // remove is only ever shed when the whole queue is removes.
  auto key = [&](const QueueEntry& e) {
    const ServeRequest& req = trace[e.seq];
    const bool is_remove = req.kind == RequestKind::kRemove;
    const double weight = is_remove ? -1.0 : req.util;
    const int sheddable =
        (policy == ShedPolicy::kCriticality && !is_remove &&
         req.criticality == 0)
            ? 1
            : 0;
    return std::tuple<int, double, std::uint64_t>(sheddable, weight, e.seq);
  };
  std::size_t best = queue.size();
  auto best_key = key(incoming);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const auto k = key(queue[i]);
    if (k > best_key) {
      best_key = k;
      best = i;
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// The service state machine.

namespace {

struct Stats {
  std::uint64_t arrivals = 0, admitted = 0, rejected = 0, probe_rejected = 0,
                removed = 0, resized = 0, resize_rejected = 0, not_present = 0,
                deferred = 0, retries = 0, shed = 0, timed_out = 0,
                downgrades = 0, queue_max_depth = 0, backpressure = 0,
                decision_events = 0, decision_dropped = 0,
                // Cumulative allocator effort, folded from the journal's
                // per-record deltas on recovery so the metrics timeline is
                // replay-stable even for decisions whose solver run is
                // skipped.
                dbf_evals = 0, budget_evals = 0, admission_tests = 0;
};

// Fixed serialization order of the stats counters in a snapshot.
std::array<std::uint64_t*, 20> stat_fields(Stats& s) {
  return {&s.arrivals,     &s.admitted,       &s.rejected,
          &s.probe_rejected, &s.removed,      &s.resized,
          &s.resize_rejected, &s.not_present, &s.deferred,
          &s.retries,      &s.shed,           &s.timed_out,
          &s.downgrades,   &s.queue_max_depth, &s.backpressure,
          &s.decision_events, &s.decision_dropped,
          &s.dbf_evals,    &s.budget_evals,   &s.admission_tests};
}

/// Decisions taken so far — one per journal record: every terminal outcome
/// plus every deferral. The timeline sampler counts in this unit, and the
/// sum is derivable from Stats so it restores with any snapshot.
std::uint64_t decisions_of(const Stats& s) {
  return s.admitted + s.rejected + s.probe_rejected + s.deferred +
         s.timed_out + s.shed + s.removed + s.not_present + s.resized +
         s.resize_rejected;
}

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

bool retry_after(const QueueEntry& a, const QueueEntry& b) {
  return a.ready_at > b.ready_at ||
         (a.ready_at == b.ready_at && a.seq > b.seq);
}

bool mutating(Outcome o) {
  return o == Outcome::kAdmitted || o == Outcome::kRemoved ||
         o == Outcome::kResized;
}

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

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t seq,
                       unsigned attempt) {
  std::uint64_t h = seed ^ 0xCBF29CE484222325ull;
  h = (h ^ (seq + 0x9E3779B97F4A7C15ull)) * 0x100000001B3ull;
  h = (h ^ (attempt + 1)) * 0x100000001B3ull;
  return h;
}

// ---------------------------------------------------------------------------
// Snapshot serialization. Line-based text, FNV-checksummed; doubles as hex
// bit patterns so restore is exact.

std::string snapshot_text(State& st, const std::string& digest,
                          std::uint64_t journal_base,
                          std::uint64_t journal_records) {
  std::ostringstream os;
  os << kSnapshotSchema << "\n";
  os << "config=" << digest << "\n";
  os << "ordinal=" << st.ordinal << "\n";
  os << "journal_base=" << journal_base << "\n";
  os << "journal_records=" << journal_records << "\n";
  os << "trace_next=" << st.trace_next << "\n";
  os << "busy_until=" << st.busy_until.raw_ns() << "\n";
  os << "est=" << st.est_ns_per_task << "\n";
  os << "commits=" << st.commits << "\n";
  os << "stats=";
  bool first = true;
  for (const std::uint64_t* f : stat_fields(st.stats)) {
    os << (first ? "" : " ") << *f;
    first = false;
  }
  os << "\n";
  os << "hist_admitted=" << serialize_histogram(st.lat_admitted) << "\n";
  os << "hist_rejected=" << serialize_histogram(st.lat_rejected) << "\n";
  os << "hist_deferred=" << serialize_histogram(st.lat_deferred) << "\n";
  os << "hist_shed=" << serialize_histogram(st.lat_shed) << "\n";
  os << "queue=" << st.queue.size() << "\n";
  for (const auto& e : st.queue)
    os << "q " << e.seq << " " << e.attempt << " " << e.ready_at.raw_ns()
       << "\n";
  os << "retry=" << st.retry.size() << "\n";
  for (const auto& e : st.retry)
    os << "r " << e.seq << " " << e.attempt << " " << e.ready_at.raw_ns()
       << "\n";
  os << "vcpus=" << st.adm.vcpus.size() << "\n";
  for (const auto& v : st.adm.vcpus) {
    os << "v " << v.vm << " " << v.period.raw_ns() << " " << v.tasks.size();
    for (const std::size_t t : v.tasks) os << " " << t;
    const auto& g = v.budget.grid();
    os << " " << g.c_min << " " << g.c_max << " " << g.b_min << " " << g.b_max;
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        os << " " << v.budget.at(c, b).raw_ns();
    os << "\n";
  }
  const auto& m = st.adm.mapping;
  os << "cores=" << m.vcpus_on_core.size() << " " << (m.schedulable ? 1 : 0)
     << " " << m.cores_used << "\n";
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    os << "c " << m.cache[k] << " " << m.bw[k] << " "
       << m.vcpus_on_core[k].size();
    for (const std::size_t vi : m.vcpus_on_core[k]) os << " " << vi;
    os << "\n";
  }
  return os.str();
}

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
  // a schema change, which also discards (with a warning), never crashes.
  try {
    std::istringstream is(body);
    std::string line;
    auto next_line = [&]() -> std::string& {
      VC2M_CHECK_MSG(static_cast<bool>(std::getline(is, line)),
                     "snapshot truncated");
      return line;
    };
    auto next_kv = [&](const char* key) -> std::string {
      const std::string& l = next_line();
      const std::string prefix = std::string(key) + "=";
      VC2M_CHECK_MSG(l.rfind(prefix, 0) == 0,
                     "snapshot: expected '" << key << "=' line");
      return l.substr(prefix.size());
    };
    VC2M_CHECK_MSG(next_line() == kSnapshotSchema, "snapshot: bad schema");
    if (next_kv("config") != digest) {
      warnings.push_back(
          "recover: snapshot '" + path +
          "' was written by a different configuration — discarding it");
      return false;
    }
    State out;
    out.ordinal = parse_u64(next_kv("ordinal"), "snapshot");
    journal_base = parse_u64(next_kv("journal_base"), "snapshot");
    journal_records = parse_u64(next_kv("journal_records"), "snapshot");
    out.trace_next = parse_u64(next_kv("trace_next"), "snapshot");
    out.busy_until =
        util::Time::ns(parse_i64(next_kv("busy_until"), "snapshot"));
    out.est_ns_per_task = parse_i64(next_kv("est"), "snapshot");
    out.commits = parse_u64(next_kv("commits"), "snapshot");
    {
      std::istringstream ls(next_kv("stats"));
      for (std::uint64_t* fld : stat_fields(out.stats)) {
        VC2M_CHECK_MSG(static_cast<bool>(ls >> *fld), "snapshot: short stats");
      }
    }
    out.lat_admitted = parse_histogram(next_kv("hist_admitted"));
    out.lat_rejected = parse_histogram(next_kv("hist_rejected"));
    out.lat_deferred = parse_histogram(next_kv("hist_deferred"));
    out.lat_shed = parse_histogram(next_kv("hist_shed"));
    auto read_entries = [&](const char* key, const char* tag,
                            std::vector<QueueEntry>& into) {
      const std::uint64_t n = parse_u64(next_kv(key), "snapshot");
      for (std::uint64_t i = 0; i < n; ++i) {
        std::istringstream ls(next_line());
        std::string t;
        QueueEntry e;
        std::int64_t ready = 0;
        VC2M_CHECK_MSG(
            static_cast<bool>(ls >> t >> e.seq >> e.attempt >> ready) &&
                t == tag,
            "snapshot: bad queue entry");
        e.ready_at = util::Time::ns(ready);
        into.push_back(e);
      }
    };
    read_entries("queue", "q", out.queue);
    read_entries("retry", "r", out.retry);
    const std::uint64_t nv = parse_u64(next_kv("vcpus"), "snapshot");
    for (std::uint64_t i = 0; i < nv; ++i) {
      std::istringstream ls(next_line());
      std::string tag;
      model::Vcpu v;
      std::int64_t period = 0;
      std::size_t ntasks = 0;
      VC2M_CHECK_MSG(
          static_cast<bool>(ls >> tag >> v.vm >> period >> ntasks) &&
              tag == "v",
          "snapshot: bad vcpu line");
      v.period = util::Time::ns(period);
      v.tasks.resize(ntasks);
      for (auto& t : v.tasks)
        VC2M_CHECK_MSG(static_cast<bool>(ls >> t), "snapshot: short vcpu");
      model::ResourceGrid g;
      VC2M_CHECK_MSG(
          static_cast<bool>(ls >> g.c_min >> g.c_max >> g.b_min >> g.b_max),
          "snapshot: bad vcpu grid");
      model::WcetFn fn(g);
      for (unsigned c = g.c_min; c <= g.c_max; ++c)
        for (unsigned b = g.b_min; b <= g.b_max; ++b) {
          std::int64_t ns = 0;
          VC2M_CHECK_MSG(static_cast<bool>(ls >> ns),
                         "snapshot: short budget surface");
          fn.set(c, b, util::Time::ns(ns));
        }
      v.budget = fn;
      out.adm.vcpus.push_back(std::move(v));
    }
    {
      std::istringstream ls(next_kv("cores"));
      std::size_t ncores = 0;
      int sched = 0;
      VC2M_CHECK_MSG(static_cast<bool>(ls >> ncores >> sched >>
                                       out.adm.mapping.cores_used),
                     "snapshot: bad cores line");
      out.adm.mapping.schedulable = sched != 0;
      for (std::size_t k = 0; k < ncores; ++k) {
        std::istringstream cl(next_line());
        std::string tag;
        unsigned cache = 0, bw = 0;
        std::size_t n = 0;
        VC2M_CHECK_MSG(
            static_cast<bool>(cl >> tag >> cache >> bw >> n) && tag == "c",
            "snapshot: bad core line");
        std::vector<std::size_t> members(n);
        for (auto& vi : members)
          VC2M_CHECK_MSG(static_cast<bool>(cl >> vi), "snapshot: short core");
        out.adm.mapping.cache.push_back(cache);
        out.adm.mapping.bw.push_back(bw);
        out.adm.mapping.vcpus_on_core.push_back(std::move(members));
      }
    }
    st = std::move(out);
    return true;
  } catch (const std::exception& e) {
    warnings.push_back("recover: snapshot '" + path +
                       "' did not parse (" + e.what() + ") — discarding it");
    return false;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// run_service

ServiceResult run_service(const ServiceConfig& cfg_in) {
  ServiceConfig cfg = cfg_in;
  // Single-decision service path: existing-CSA admissions solve one
  // min-budget surface at a time, so stripe them over a service-lifetime
  // inner pool when the platform has spare hardware threads (verdicts and
  // journal digests are bit-identical at any inner-jobs value; the digest
  // does not cover vm_cfg). The other VCPU analyses never submit work to
  // the pool, so they get none.
  std::unique_ptr<util::ThreadPool> inner_pool;
  if (cfg.vm_cfg.analysis != core::VcpuAnalysis::kExistingCsa) {
    cfg.vm_cfg.inner_jobs = 1;
  } else if (cfg.vm_cfg.inner_pool == nullptr && cfg.vm_cfg.inner_jobs != 1) {
    const unsigned w = cfg.vm_cfg.inner_jobs == 0
                           ? util::ThreadPool::hardware_workers()
                           : static_cast<unsigned>(cfg.vm_cfg.inner_jobs);
    if (w > 1) {
      inner_pool = std::make_unique<util::ThreadPool>(w);
      cfg.vm_cfg.inner_pool = inner_pool.get();
      cfg.vm_cfg.inner_jobs = static_cast<int>(w);
    } else {
      cfg.vm_cfg.inner_jobs = 1;
    }
  }
  ServiceResult result;
  const auto trace = generate_trace(cfg.trace, cfg.seed);
  // One span per decision: at least one per request. Sizing the vector
  // once keeps its doubling copies out of the run's peak memory.
  if (cfg.collect_spans) result.spans.reserve(trace.size());
  const std::string digest = config_digest(cfg);
  const bool journaling = !cfg.journal_path.empty();
  const std::string snap_path =
      journaling ? cfg.journal_path + ".snap" : std::string();

  State st;
  JournalWriter writer;
  std::vector<JournalRecord> pending;  ///< journal records left to replay
  std::size_t cursor = 0;
  bool replaying = false;
  std::uint64_t journal_base = 0;    ///< base of the on-disk journal
  std::uint64_t journal_records = 0; ///< records in the on-disk journal
  std::uint64_t journal_valid_bytes = 0;
  std::uint64_t snapshot_writes = 0;  ///< crash-injection counter

  if (journaling && cfg.recover) {
    std::uint64_t snap_jb = 0, snap_jr = 0;
    const bool have_snap = load_snapshot(snap_path, digest, st, snap_jb,
                                         snap_jr, result.warnings);
    const JournalScan scan = scan_journal(cfg.journal_path);
    bool use_journal = false;
    std::size_t skip = 0;
    if (!scan.exists) {
      if (!have_snap)
        result.warnings.push_back("recover: no journal or snapshot at '" +
                                  cfg.journal_path + "' — starting fresh");
    } else if (!scan.header_ok) {
      result.warnings.push_back("recover: journal '" + cfg.journal_path +
                                "' has no valid header — ignoring it");
    } else if (scan.config_digest != digest) {
      result.warnings.push_back(
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
      result.warnings.push_back(
          "recover: journal base " + std::to_string(scan.base) +
          " matches neither snapshot ordinal " + std::to_string(st.ordinal) +
          " nor its fold point — ignoring the journal");
    }
    if (use_journal && scan.torn)
      result.warnings.push_back(
          "recover: journal '" + cfg.journal_path +
          "' has a torn tail — truncated to the last valid record (" +
          std::to_string(scan.valid_bytes) + " bytes)");
    if (use_journal && skip > scan.records.size()) {
      result.warnings.push_back(
          "recover: journal is shorter than the snapshot's fold point — "
          "ignoring it");
      use_journal = false;
    }
    if (use_journal) {
      for (std::size_t i = skip; i < scan.records.size(); ++i)
        pending.push_back(parse_journal_record(scan.records[i]));
      journal_base = scan.base;
      journal_records = scan.records.size();
      journal_valid_bytes = scan.valid_bytes;
      replaying = !pending.empty();
      if (!replaying) writer.open_append(cfg.journal_path, scan.valid_bytes);
    } else {
      writer.open_fresh(cfg.journal_path, digest, st.ordinal);
      journal_base = st.ordinal;
      journal_records = 0;
    }
  } else if (journaling) {
    // Fresh run: a stale snapshot from an earlier run must not be offered
    // to a later --recover against the new journal.
    std::remove(snap_path.c_str());
    writer.open_fresh(cfg.journal_path, digest, 0);
  }

  // -- telemetry --------------------------------------------------------
  //
  // The metrics timeline is sampled every `sample_every` decisions and
  // framed like the journal. On --recover the replay regenerates the same
  // sample stream; samples that survive on disk are byte-verified instead
  // of rewritten, and appends resume past them — so a crash + --recover
  // run reproduces the uninterrupted timeline bit for bit.

  const bool timeline_on = !cfg.timeline_path.empty() && cfg.sample_every > 0;
  JournalWriter tl_writer;
  SpanRing ring(cfg.span_ring);
  std::vector<std::string> tl_raw;        ///< surviving samples to verify
  std::vector<std::uint64_t> tl_end;      ///< file offset after sample i
  const std::string tl_header =
      timeline_on ? timeline_header_payload(digest, cfg.sample_every)
                  : std::string();
  if (timeline_on) {
    bool fresh = true;
    if (cfg.recover) {
      TimelineScan tls = scan_timeline(cfg.timeline_path);
      for (const auto& w : tls.warnings)
        result.warnings.push_back("recover: timeline '" + cfg.timeline_path +
                                  "': " + w);
      if (tls.exists && tls.header_ok && tls.config_digest == digest &&
          tls.every == cfg.sample_every) {
        if (tls.torn) {
          result.warnings.push_back(
              "recover: timeline '" + cfg.timeline_path +
              "' has a torn tail — truncated to the last valid sample (" +
              std::to_string(tls.valid_bytes) + " bytes)");
          // Physically drop the torn bytes now: an uninterrupted run never
          // has them, and the replay may not append anything past them.
          tl_writer.open_append(cfg.timeline_path, tls.valid_bytes);
        }
        std::uint64_t off = 12 + tl_header.size();
        tl_raw = std::move(tls.raw);
        for (const auto& r : tl_raw) {
          off += 12 + r.size();
          tl_end.push_back(off);
        }
        fresh = false;
      } else if (tls.exists) {
        result.warnings.push_back(
            "recover: timeline '" + cfg.timeline_path +
            "' does not match this configuration — starting a fresh "
            "timeline (earlier samples cannot be reproduced)");
      }
    }
    if (fresh) tl_writer.open_with_header(cfg.timeline_path, tl_header);
  }

  auto dump_ring = [&]() {
    if (journaling && cfg.span_ring > 0)
      write_span_dump(cfg.journal_path + ".spans", ring);
  };

  /// Everything a sample or a stats snapshot shows, read off the live
  /// state. Virtual-time quantities only — deterministic by construction.
  auto build_sample = [&](std::int64_t vt_ns) {
    MetricsSample ms;
    ms.served = decisions_of(st.stats);
    ms.vt_ns = vt_ns;
    ms.queue_depth = st.queue.size();
    ms.retry_depth = st.retry.size();
    ms.est_ns_per_task = st.est_ns_per_task;
    ms.arrivals = st.stats.arrivals;
    ms.admitted = st.stats.admitted;
    ms.rejected = st.stats.rejected;
    ms.probe_rejected = st.stats.probe_rejected;
    ms.deferred = st.stats.deferred;
    ms.timed_out = st.stats.timed_out;
    ms.shed = st.stats.shed;
    ms.downgrades = st.stats.downgrades;
    ms.backpressure = st.stats.backpressure;
    ms.commits = st.commits;
    ms.dbf_evals = st.stats.dbf_evals;
    ms.budget_evals = st.stats.budget_evals;
    ms.admission_tests = st.stats.admission_tests;
    ms.lat_admitted = st.lat_admitted;
    ms.lat_rejected = st.lat_rejected;
    ms.lat_deferred = st.lat_deferred;
    ms.lat_shed = st.lat_shed;
    return ms;
  };

  auto take_sample = [&](std::int64_t vt_ns) {
    const std::uint64_t d = decisions_of(st.stats);
    MetricsSample ms = build_sample(vt_ns);
    ms.index = d / cfg.sample_every - 1;
    const std::string payload = serialize(ms);
    // Recovery resumes from a snapshot, so the first regenerated sample can
    // land mid-file: match by sample index, not file position. Samples
    // before the resume point are trusted as-is — the scan already proved
    // them checksummed, index-sequential, and written under this config
    // digest, and every counter is cumulative so none of them feeds the
    // regenerated tail.
    const auto idx = static_cast<std::size_t>(ms.index);
    if (idx < tl_raw.size()) {
      if (payload == tl_raw[idx]) return;  // already durable; nothing to write
      result.warnings.push_back(
          "recover: timeline sample " + std::to_string(ms.index) +
          " diverges from the recorded run — rewriting from that sample");
      const std::uint64_t keep =
          idx == 0 ? 12 + tl_header.size() : tl_end[idx - 1];
      tl_writer.open_append(cfg.timeline_path, keep);
      tl_raw.resize(idx);
      tl_end.resize(idx);
      tl_writer.append(payload);
      return;
    }
    if (!tl_writer.is_open())
      tl_writer.open_append(cfg.timeline_path,
                            tl_end.empty() ? 12 + tl_header.size()
                                           : tl_end.back());
    tl_writer.append(payload);
  };

  // -- helpers bound to the local state --------------------------------

  auto update_est = [&](std::int64_t cost_ns, std::uint64_t tasks) {
    const std::int64_t per =
        cost_ns / std::max<std::int64_t>(1, static_cast<std::int64_t>(tasks));
    st.est_ns_per_task =
        std::max<std::int64_t>(1, (3 * st.est_ns_per_task + per) / 4);
  };

  auto bump_outcome = [&](Outcome o) {
    switch (o) {
      case Outcome::kAdmitted: ++st.stats.admitted; break;
      case Outcome::kRejected: ++st.stats.rejected; break;
      case Outcome::kProbeRejected: ++st.stats.probe_rejected; break;
      case Outcome::kTimedOut: ++st.stats.timed_out; break;
      case Outcome::kShed: ++st.stats.shed; break;
      case Outcome::kRemoved: ++st.stats.removed; break;
      case Outcome::kNotPresent: ++st.stats.not_present; break;
      case Outcome::kResized: ++st.stats.resized; break;
      case Outcome::kResizeRejected: ++st.stats.resize_rejected; break;
      case Outcome::kDeferred: break;  // non-terminal, counted separately
    }
  };

  auto write_snapshot_and_rotate = [&]() {
    ++snapshot_writes;
    ++st.ordinal;
    const std::string body =
        snapshot_text(st, digest, journal_base, journal_records);
    const std::string text =
        body + "fnv=" + scenario::text_digest(body) + "\n";
    const std::string tmp = snap_path + ".tmp";
    if (cfg.crash.point == CrashPoint::kMidSnapshot &&
        snapshot_writes == cfg.crash.at) {
      write_file_durable(tmp, text.substr(0, text.size() / 2));
      dump_ring();
      std::_Exit(137);
    }
    write_file_durable(tmp, text);
    if (std::rename(tmp.c_str(), snap_path.c_str()) != 0)
      throw util::Error("cannot rename snapshot '" + tmp + "' to '" +
                        snap_path + "': " + std::strerror(errno));
    writer.open_fresh(cfg.journal_path, digest, st.ordinal);
    journal_base = st.ordinal;
    journal_records = 0;
  };

  /// The per-outcome-class latency histogram a terminal outcome feeds.
  auto hist_for = [&](Outcome o) -> util::LogHistogram& {
    switch (o) {
      case Outcome::kAdmitted:
      case Outcome::kRemoved:
      case Outcome::kResized:
        return st.lat_admitted;
      case Outcome::kShed:
        return st.lat_shed;
      case Outcome::kDeferred:
        return st.lat_deferred;
      default:
        return st.lat_rejected;
    }
  };

  /// The single choke point every decision passes through: verify (replay)
  /// or append (live) the record — flipping to live mode when the replay
  /// cursor reaches the end of the journal — then run the telemetry tail:
  /// fold the record's allocator-effort deltas, push the request span
  /// (only once the record is durable, so the ring always mirrors the
  /// journal tail), take a timeline sample on cadence, and render stats
  /// snapshots on cadence or SIGUSR1. Callers bump the outcome counters
  /// before calling, so decisions_of already counts this record.
  auto commit_record = [&](const JournalRecord& rec, util::Time queued,
                           util::Time dequeued, std::int64_t wall_ns) {
    st.stats.dbf_evals += rec.dbf_evals;
    st.stats.budget_evals += rec.budget_evals;
    st.stats.admission_tests += rec.admission_tests;

    bool appended = false;
    if (journaling) {
      if (replaying) {
        const JournalRecord& exp = pending[cursor];
        VC2M_CHECK_MSG(exp.seq == rec.seq && exp.attempt == rec.attempt &&
                           exp.kind == rec.kind &&
                           exp.outcome == rec.outcome &&
                           exp.cost_ns == rec.cost_ns,
                       "journal replay diverged at record "
                           << cursor << ": journal says seq=" << exp.seq
                           << " outcome=" << to_string(exp.outcome)
                           << ", recomputation says seq=" << rec.seq
                           << " outcome=" << to_string(rec.outcome));
        ++cursor;
        if (cursor == pending.size()) {
          writer.open_append(cfg.journal_path, journal_valid_bytes);
          replaying = false;
        }
      } else {
        if (cfg.crash.point == CrashPoint::kBeforeAppend &&
            rec.seq == cfg.crash.at) {
          // The current span is deliberately not in the dump: its record
          // never became durable, and the ring must match the journal tail.
          dump_ring();
          std::_Exit(137);
        }
        writer.append(serialize(rec));
        ++journal_records;
        appended = true;
      }
    }

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
    ring.push(span);
    if (cfg.collect_spans) result.spans.push_back(span);

    if (appended && cfg.crash.point == CrashPoint::kAfterAppend &&
        rec.seq == cfg.crash.at) {
      dump_ring();
      std::_Exit(137);
    }

    const std::uint64_t d = decisions_of(st.stats);
    if (timeline_on && d % cfg.sample_every == 0) take_sample(span.solved_ns);
    const bool poked =
        cfg.stats_signal != nullptr &&
        cfg.stats_signal->exchange(false, std::memory_order_relaxed);
    if (poked || (cfg.stats_every && d % cfg.stats_every == 0))
      (cfg.stats_out ? *cfg.stats_out : std::cerr)
          << render_stats_snapshot(build_sample(span.solved_ns))
          << std::flush;
  };

  auto push_retry = [&](QueueEntry e) {
    st.retry.push_back(e);
    std::push_heap(st.retry.begin(), st.retry.end(), retry_after);
  };

  auto enqueue = [&](QueueEntry e, bool is_retry) {
    if (is_retry) ++st.stats.retries;
    else ++st.stats.arrivals;
    if (st.queue.size() >= cfg.queue_cap) {
      const std::size_t v = shed_victim(cfg.shed, st.queue, e, trace);
      const QueueEntry victim = v == st.queue.size() ? e : st.queue[v];
      JournalRecord rec;
      rec.seq = victim.seq;
      rec.attempt = victim.attempt;
      rec.kind = trace[victim.seq].kind;
      rec.outcome = Outcome::kShed;
      rec.vm = trace[victim.seq].vm;
      rec.latency_ns = (e.ready_at - trace[victim.seq].at).raw_ns();
      st.lat_shed.add(static_cast<double>(rec.latency_ns) / 1000.0);
      bump_outcome(Outcome::kShed);
      // Shed spans never reach the server: queued at the victim's ready
      // time, cut at the moment the overflowing arrival displaced it.
      commit_record(rec, victim.ready_at, e.ready_at, /*wall_ns=*/0);
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
    JournalRecord rec;
    rec.seq = entry.seq;
    rec.attempt = entry.attempt;
    rec.kind = req.kind;
    rec.vm = req.vm;

    const JournalRecord* peek =
        replaying && cursor < pending.size() ? &pending[cursor] : nullptr;
    if (peek)
      VC2M_CHECK_MSG(peek->seq == entry.seq && peek->attempt == entry.attempt &&
                         peek->kind == req.kind,
                     "journal replay diverged: journal record "
                         << cursor << " is seq=" << peek->seq
                         << ", the request stream produced seq=" << entry.seq);
    // During replay, decisions that did not change the admitted state are
    // folded straight from the journal — the whole point of the journal is
    // that recovery skips re-running the solver for them. State-mutating
    // decisions are recomputed (the journal carries no state deltas) and
    // verified against the record.
    if (peek && !mutating(peek->outcome)) {
      rec.outcome = peek->outcome;
      rec.cost_ns = peek->cost_ns;
      rec.tasks = peek->tasks;
      rec.events = peek->events;
      rec.dbf_evals = peek->dbf_evals;
      rec.budget_evals = peek->budget_evals;
      rec.admission_tests = peek->admission_tests;
      st.stats.decision_events += rec.events;
      if (rec.outcome == Outcome::kRejected ||
          rec.outcome == Outcome::kResizeRejected)
        update_est(rec.cost_ns, rec.tasks);
      if (rec.outcome == Outcome::kProbeRejected ||
          rec.outcome == Outcome::kDeferred ||
          rec.outcome == Outcome::kTimedOut)
        ++st.stats.downgrades;  // these outcomes only exist past a downgrade
    } else {
      util::AllocCounterScope counters;
      obs::DecisionLog local;
      {
        obs::DecisionLogScope scope(local);
        if (req.kind == RequestKind::kRemove) {
          if (!vm_present(st.adm, req.vm)) {
            rec.outcome = Outcome::kNotPresent;
            rec.cost_ns = 2'000;
          } else {
            const std::size_t before = st.adm.vcpus.size();
            st.adm = core::remove_vm(st.adm, req.vm);
            rec.outcome = Outcome::kRemoved;
            rec.cost_ns =
                8'000 + 2'000 * static_cast<std::int64_t>(
                                    before - st.adm.vcpus.size());
          }
        } else if (req.kind == RequestKind::kResize &&
                   !vm_present(st.adm, req.vm)) {
          rec.outcome = Outcome::kNotPresent;
          rec.cost_ns = 2'000;
        } else {
          const model::Taskset tasks =
              materialize_taskset(req, cfg.platform.grid);
          rec.tasks = tasks.size();
          bool downgrade = false;
          if (cfg.deadline > util::Time::zero()) {
            const util::Time projected =
                (ts - entry.ready_at) +
                util::Time::ns(st.est_ns_per_task *
                               static_cast<std::int64_t>(tasks.size()));
            downgrade = projected > cfg.deadline;
          }
          if (downgrade) {
            ++st.stats.downgrades;
            rec.cost_ns =
                4'000 +
                200 * static_cast<std::int64_t>(st.adm.vcpus.size()) +
                100 * static_cast<std::int64_t>(tasks.size());
            const double demand = model::total_reference_utilization(tasks);
            if (demand > headroom_upper_bound(st.adm, cfg.platform))
              rec.outcome = Outcome::kProbeRejected;
            else if (entry.attempt < cfg.max_retries)
              rec.outcome = Outcome::kDeferred;
            else
              rec.outcome = Outcome::kTimedOut;
          } else {
            util::Rng rng(mix_seed(cfg.seed, entry.seq, entry.attempt));
            core::VmAllocConfig vmc = cfg.vm_cfg;
            vmc.request_id = static_cast<std::int64_t>(entry.seq);
            core::AdmitResult r =
                req.kind == RequestKind::kAdmit
                    ? core::admit_vm(st.adm, tasks, req.vm, cfg.platform,
                                     vmc, rng)
                    : core::resize_vm(st.adm, tasks, req.vm, cfg.platform,
                                      vmc, rng);
            if (r.admitted) {
              st.adm = std::move(r.state);
              rec.outcome = req.kind == RequestKind::kAdmit
                                ? Outcome::kAdmitted
                                : Outcome::kResized;
            } else {
              rec.outcome = req.kind == RequestKind::kAdmit
                                ? Outcome::kRejected
                                : Outcome::kResizeRejected;
            }
            rec.cost_ns = solve_cost(counters.counters());
            update_est(rec.cost_ns, rec.tasks);
          }
        }
      }
      rec.events = local.events().size();
      st.stats.decision_events += rec.events;
      st.stats.decision_dropped += local.dropped();
      const util::AllocCounters ac = counters.counters();
      rec.dbf_evals = ac.dbf_evaluations;
      rec.budget_evals = ac.budget_evaluations;
      rec.admission_tests = ac.admission_tests;
    }

    st.busy_until = ts + util::Time::ns(rec.cost_ns);
    if (rec.outcome == Outcome::kDeferred) {
      ++st.stats.deferred;
      // A deferral's wait so far (arrival → defer decision) is observable
      // latency too; rec.latency_ns stays 0 because the attempt is not
      // terminal.
      st.lat_deferred.add(
          static_cast<double>((st.busy_until - req.at).raw_ns()) / 1000.0);
      push_retry({entry.seq, entry.attempt + 1,
                  st.busy_until + cfg.backoff * (std::int64_t{1}
                                                 << entry.attempt)});
    } else {
      rec.latency_ns = (st.busy_until - req.at).raw_ns();
      hist_for(rec.outcome).add(static_cast<double>(rec.latency_ns) / 1000.0);
      bump_outcome(rec.outcome);
    }
    const std::int64_t wall_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    commit_record(rec, entry.ready_at, ts, wall_ns);
    if (mutating(rec.outcome)) {
      ++st.commits;
      if (!replaying && journaling && cfg.snapshot_every &&
          st.commits % cfg.snapshot_every == 0)
        write_snapshot_and_rotate();
    }
  };

  // -- the event loop --------------------------------------------------

  std::uint64_t served = 0;
  bool interrupted = false;
  while (true) {
    if ((cfg.cancel && cfg.cancel->load(std::memory_order_relaxed)) ||
        (cfg.stop_after && served >= cfg.stop_after)) {
      interrupted = true;
      break;
    }
    const util::Time ta = st.trace_next < trace.size()
                              ? trace[st.trace_next].at
                              : util::Time::max();
    const util::Time tr =
        st.retry.empty() ? util::Time::max() : st.retry.front().ready_at;
    const util::Time tnext = util::min(ta, tr);
    auto enqueue_next = [&]() {
      if (ta <= tr) {  // arrival wins ties
        const ServeRequest& r = trace[st.trace_next];
        ++st.trace_next;
        enqueue({r.seq, 0, r.at}, /*is_retry=*/false);
      } else {
        std::pop_heap(st.retry.begin(), st.retry.end(), retry_after);
        const QueueEntry e = st.retry.back();
        st.retry.pop_back();
        enqueue(e, /*is_retry=*/true);
      }
    };
    if (!st.queue.empty()) {
      const util::Time ts = util::max(st.busy_until, st.queue.front().ready_at);
      if (tnext != util::Time::max() && tnext <= ts) {
        enqueue_next();
      } else {
        const QueueEntry entry = st.queue.front();
        st.queue.erase(st.queue.begin());
        serve(entry);
        ++served;
      }
    } else {
      if (tnext == util::Time::max()) break;
      enqueue_next();
    }
  }
  if (interrupted) dump_ring();
  writer.close();
  tl_writer.close();

  // -- report ----------------------------------------------------------

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
  rep.requests = trace.size();
  const Stats& s = st.stats;
  rep.arrivals = s.arrivals;
  rep.admitted = s.admitted;
  rep.rejected = s.rejected;
  rep.probe_rejected = s.probe_rejected;
  rep.removed = s.removed;
  rep.resized = s.resized;
  rep.resize_rejected = s.resize_rejected;
  rep.not_present = s.not_present;
  rep.deferred = s.deferred;
  rep.retries = s.retries;
  rep.shed = s.shed;
  rep.timed_out = s.timed_out;
  rep.downgrades = s.downgrades;
  rep.commits = st.commits;
  // Snapshot count is derived from the commit count, not from how many
  // writes this process performed: a recovered run restores mid-stream and
  // must still report what the uninterrupted run would have.
  rep.snapshots = journaling && cfg.snapshot_every
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
  result.report = std::move(rep);
  result.interrupted = interrupted;
  return result;
}

}  // namespace vc2m::service

// serve-saturated and serve-churn: `vc2m serve`, the online admission
// service, replaying a virtual-time open-loop poisson trace as fast as the
// host allows (in wall time a closed loop with one caller).
//
//  - serve-saturated: the service's reference trace. The platform fills
//    early and stays full, so nearly every admit is rejected: the read
//    path (taskset materialization, regulated VCPU analysis, kmeans,
//    AdmissionState copies). No journal.
//  - serve-churn: light VMs with heavy remove/resize traffic, journaled
//    with a snapshot every 1000 commits: the write path (remove_vm,
//    resize_vm, commits, journal framing + fsync, snapshots). The journal
//    lives in the run's scratch directory inside the checkout.
//
// One measured unit is one run_service call over a whole trace; units
// cycle through the run's traces until the time is up, and a repeat must
// reproduce its trace's first report. Rates and latency quantiles are per
// service run, scaled by the host-speed factor measured around the run
// (see Windowed in bench.h), and the median over runs is reported.
// The traced pass replays the same generated trace through the public
// layer calls the service makes, in decision order (the queue is FIFO and
// these traces never shed or defer), and compares its outcome totals with
// the service report's.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "core/admission.h"
#include "obs/request_span.h"
#include "service/journal.h"
#include "service/report.h"
#include "service/service.h"
#include "service/trace_gen.h"
#include "util/instrument.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using namespace vc2m;

struct Serve {
  service::ServiceConfig cfg;
  /// One trace per seed; every one is served at least once per run.
  std::vector<std::uint64_t> seeds;
  std::vector<service::ServeRequest> trace;  ///< seeds[0]'s, for the replay
};

constexpr std::uint64_t kWarmupRequests = 1000;

Serve make_serve(const Options& opt) {
  const bool churn = opt.workload == "serve-churn";
  // serve-churn's runs are short so that a run holds several of them:
  // fsync latency varies from run to run, and medians need samples.
  const std::string n = opt.smoke ? "300" : churn ? "5000" : "20000";
  Serve s;
  s.cfg.platform = model::PlatformSpec::A();
  s.cfg.platform_name = "A";
  s.cfg.trace = service::parse_trace_spec(
      churn ? "poisson:requests=" + n +
                  ",interarrival-us=300,util=0.05..0.2,remove-frac=0.45,"
                  "resize-frac=0.15"
            : "poisson:requests=" + n +
                  ",interarrival-us=300,util=0.1..0.4,remove-frac=0.35,"
                  "resize-frac=0.1");
  // `vc2m serve` uses intra-decision parallelism over hardware threads.
  s.cfg.vm_cfg.inner_jobs = 0;
  s.cfg.collect_spans = true;
  if (churn) {
    s.cfg.journal_path = opt.work_dir + "/serve.wal";
    s.cfg.snapshot_every = opt.smoke ? 25 : 1000;
  }
  // A saturated platform admits only ~1% of requests, so one trace's admit
  // ratio swings with the seed; four traces per run steady it. The first
  // trace is the one the seed names (seed 7: the service's reference run).
  // Seeds stay below 2^53: the report stores the seed as a JSON number.
  constexpr std::uint64_t kTraces = 4;
  for (std::uint64_t k = 0; k < kTraces; ++k)
    s.seeds.push_back((opt.seed + k * 1000003) % kMaxSeed);
  s.cfg.seed = s.seeds[0];
  s.trace = service::generate_trace(s.cfg.trace, s.cfg.seed);
  // Warm-up: a short unjournaled run lets lazy initialization and the
  // allocator settle before anything is timed.
  service::ServiceConfig warm = s.cfg;
  warm.trace.requests = std::min<std::uint64_t>(kWarmupRequests,
                                                s.cfg.trace.requests);
  warm.journal_path.clear();
  warm.collect_spans = false;
  service::run_service(warm);
  return s;
}

/// The service's per-attempt RNG derivation (service.cpp), which the
/// replay must share to reach the same decisions.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t seq,
                       unsigned attempt) {
  std::uint64_t h = seed ^ 0xCBF29CE484222325ull;
  h = (h ^ (seq + 0x9E3779B97F4A7C15ull)) * 0x100000001B3ull;
  h = (h ^ (attempt + 1)) * 0x100000001B3ull;
  return h;
}

std::string report_text(const service::ServeReport& rep) {
  std::ostringstream os;
  service::write_serve_report(os, rep);
  return os.str();
}

std::uint64_t terminal(const service::ServeReport& r) {
  return r.admitted + r.rejected + r.probe_rejected + r.removed + r.resized +
         r.resize_rejected + r.not_present + r.shed + r.timed_out;
}

/// Checks one service run; empty string = valid.
std::string check_run(const service::ServiceResult& res) {
  const auto& rep = res.report;
  if (res.interrupted) return "run was interrupted";
  if (rep.arrivals != rep.requests) return "not every request arrived";
  if (terminal(rep) + rep.deferred != rep.arrivals + rep.retries)
    return "terminal + deferred != arrivals + retries";
  // Round trip through the strict vc2m-serve-report/1 reader.
  const std::string text = report_text(rep);
  std::istringstream in(text);
  if (report_text(service::read_serve_report(in, "serve report")) != text)
    return "serve report does not round-trip";
  if (res.spans.size() != terminal(rep) + rep.deferred)
    return "span count != decisions";
  const auto chk = obs::check_request_spans(res.spans);
  if (!chk.ok()) return "request spans: " + chk.summary();
  return {};
}

/// Snapshot-sized text of the admitted state (every VCPU's budget
/// surface), standing in for the service's own snapshot body.
std::string state_text(const core::AdmissionState& adm) {
  std::string out;
  char buf[32];
  for (const auto& v : adm.vcpus) {
    out += "vcpu|vm=" + std::to_string(v.vm) +
           "|period=" + std::to_string(v.period.raw_ns()) + "|budget=";
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b) {
        std::snprintf(buf, sizeof buf, "%llx,",
                      static_cast<unsigned long long>(v.budget.at(c, b).raw_ns()));
        out += buf;
      }
    out += "\n";
  }
  return out;
}

bool solver_decision(const std::string& outcome) {
  return outcome == "admitted" || outcome == "rejected" ||
         outcome == "resized" || outcome == "resize_rejected";
}

bool present(const core::AdmissionState& adm, int vm) {
  for (const auto& v : adm.vcpus)
    if (v.vm == vm) return true;
  return false;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result r;
  std::vector<double> setup_s;
  Serve s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    s = make_serve(opt);
    setup_s.push_back(seconds_since(t0));
  }
  const bool journaling = !s.cfg.journal_path.empty();
  r.param("trace", s.cfg.trace.spec);
  r.param("traces_per_run", std::to_string(s.seeds.size()));
  r.param("platform", "A");
  r.param("inner_jobs", "0 (hardware threads, as vc2m serve)");
  r.param("journal", journaling ? "on, in the run's scratch directory" : "off");
  r.param("snapshot_every",
          journaling ? std::to_string(s.cfg.snapshot_every) : "off");

  // ---- untraced measurement: whole service runs until time is up -------
  // Unit u serves trace u mod K; a repeat must reproduce the trace's first
  // report and effort counters exactly.
  const std::size_t n_traces = s.seeds.size();
  std::vector<std::string> first_text(n_traces);
  std::vector<service::ServeReport> first(n_traces);
  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> first_exact(
      n_traces);
  // run_service cannot be interrupted to sample the host's speed, so the
  // calibration kernel runs between service runs, and each run is scaled
  // by the samples that bracket it: cal[u] before run u, cal[u + 1] after.
  const auto calibrate = [] {
    std::vector<double> us;
    for (int i = 0; i < 10; ++i) us.push_back(calibration_rep_us());
    return us;
  };
  struct Run {
    std::size_t cal = 0;  ///< index of the samples taken just before it
    double wall_s = 0, requests = 0;
    std::vector<double> decision_us;
  };
  std::vector<Run> runs;
  std::vector<std::vector<double>> cal;
  std::vector<double> trace0_wall_s;
  const auto start = Clock::now();
  for (std::size_t unit = 0;
       unit < n_traces || seconds_since(start) < opt.seconds; ++unit) {
    const std::size_t k = unit % n_traces;
    service::ServiceConfig cfg = s.cfg;
    cfg.seed = s.seeds[k];
    const std::uint64_t n = cfg.trace.requests;
    r.attempted += n;
    const std::string who = "run " + std::to_string(unit) + " (trace " +
                            std::to_string(k) + ")";
    cal.push_back(calibrate());
    try {
      service::ServiceResult res;
      util::AllocCounterScope counters;
      const auto t0 = Clock::now();
      res = service::run_service(cfg);
      Run run{cal.size() - 1, seconds_since(t0),
              static_cast<double>(res.report.requests), {}};
      if (k == 0) trace0_wall_s.push_back(run.wall_s);
      // Latency samples are the solver's decisions: a remove or a request
      // for an absent VM takes microseconds, and their share of the trace
      // would otherwise decide where the median falls.
      for (const auto& sp : res.spans)
        if (solver_decision(sp.outcome))
          run.decision_us.push_back(1e-3 * static_cast<double>(sp.wall_ns));
      runs.push_back(std::move(run));
      if (const std::string bad = check_run(res); !bad.empty()) {
        r.fail(who + ": " + bad, n);
        continue;
      }
      auto exact = exact_counters(counters.counters());
      exact.emplace_back("service.commits", res.report.commits);
      service::ServeReport rep = res.report;
      rep.git_rev.clear();  // the digest covers behaviour, not the build
      const std::string text = report_text(rep);
      if (unit < n_traces) {
        first[k] = res.report;
        first_text[k] = text;
        first_exact[k] = exact;
      } else if (text != first_text[k] || exact != first_exact[k]) {
        r.fail(who + ": report or effort counters differ from its first run",
               n);
      }
    } catch (const std::exception& e) {
      r.fail(who + ": " + e.what(), n);
    }
  }

  std::string all_text;
  double accepted = 0, attempts = 0;
  for (std::size_t k = 0; k < n_traces; ++k) {
    all_text += first_text[k];
    const auto& f = first[k];
    accepted += static_cast<double>(f.admitted + f.resized);
    attempts += static_cast<double>(f.admitted + f.rejected + f.probe_rejected +
                                    f.timed_out + f.resized +
                                    f.resize_rejected);
    for (std::size_t i = 0; i < first_exact[k].size(); ++i) {
      if (k == 0) r.exact.push_back(first_exact[k][i]);
      else r.exact[i].second += first_exact[k][i].second;
    }
  }
  r.digest = fnv_hex(all_text);
  cal.push_back(calibrate());
  std::vector<double> req_per_s_v, p50_v, p99_v, all_cal;
  std::size_t samples = 0;
  for (const Run& run : runs) {
    std::vector<double> bracket = cal[run.cal];
    bracket.insert(bracket.end(), cal[run.cal + 1].begin(),
                   cal[run.cal + 1].end());
    const double f = median(bracket) / kReferenceCalibrationUs;
    req_per_s_v.push_back(run.requests / run.wall_s * f);
    p50_v.push_back(quantile(run.decision_us, 0.5) / f);
    p99_v.push_back(quantile(run.decision_us, 0.99) / f);
    samples += run.decision_us.size();
  }
  for (const auto& c : cal) all_cal.insert(all_cal.end(), c.begin(), c.end());
  const double host_factor = median(all_cal) / kReferenceCalibrationUs;
  const double admit_ratio = ratio(accepted, attempts);
  const double req_per_s = median(req_per_s_v);
  const double p50 = median(p50_v), p99 = median(p99_v);
  r.named = {{"req_per_s", req_per_s, "1/s"},
             {"decision_us_p50", p50, "us"},
             {"decision_us_p99", p99, "us"},
             {"admit_ratio", admit_ratio, "ratio"},
             {"service_runs", static_cast<double>(runs.size()), "count"},
             {"decision_samples", static_cast<double>(samples), "count"},
             {"host_factor", host_factor, "ratio"}};
  const service::ServeReport& ref = first[0];  // the replayed trace
  r.param("outcomes", "admitted=" + std::to_string(ref.admitted) +
                          " rejected=" + std::to_string(ref.rejected) +
                          " removed=" + std::to_string(ref.removed) +
                          " resized=" + std::to_string(ref.resized) +
                          " not_present=" + std::to_string(ref.not_present) +
                          " commits=" + std::to_string(ref.commits) +
                          " shed=" + std::to_string(ref.shed));

  if (!opt.trace) {
    r.metric("ops_per_s", req_per_s, "1/s");
    r.metric("op_p50_us", p50, "us");
    r.metric("op_p99_us", p99, "us");
    r.metric("accept_frac", admit_ratio, "ratio");
    r.metric("setup_s", median(setup_s) / host_factor, "s");
    return r;
  }

  // ---- traced replay ----------------------------------------------------
  Tracer tr;
  const unsigned workers = util::ThreadPool::hardware_workers();
  std::unique_ptr<util::ThreadPool> pool;
  core::VmAllocConfig vmc = s.cfg.vm_cfg;  // as run_service configures it
  if (workers > 1) {
    pool = std::make_unique<util::ThreadPool>(workers);
    vmc.inner_pool = pool.get();
    vmc.inner_jobs = static_cast<int>(workers);
  } else {
    vmc.inner_jobs = 1;
  }
  const std::string journal = opt.work_dir + "/replay.wal";
  const std::string digest = service::config_digest(s.cfg);
  service::JournalWriter writer;
  core::AdmissionState adm;
  service::ServeReport got;
  std::uint64_t admit_calls = 0, appends = 0, ordinal = 0;
  util::AllocCounterScope counters;
  const auto t_start = Clock::now();
  try {
    if (journaling) writer.open_fresh(journal, digest, 0);
    Tracer::Scope loop(tr, "service.loop", 0);
    for (const auto& req : s.trace) {
      using service::Outcome;
      using service::RequestKind;
      service::JournalRecord rec;
      rec.seq = req.seq;
      rec.kind = req.kind;
      rec.vm = req.vm;
      if (req.kind != RequestKind::kAdmit && !present(adm, req.vm)) {
        rec.outcome = Outcome::kNotPresent;
        ++got.not_present;
      } else if (req.kind == RequestKind::kRemove) {
        Tracer::Scope sp(tr, "core.remove", req.seq);
        adm = core::remove_vm(adm, req.vm);
        rec.outcome = Outcome::kRemoved;
        ++got.removed;
      } else {
        model::Taskset tasks;
        {
          Tracer::Scope sp(tr, "workload.generate", req.seq);
          tasks = service::materialize_taskset(req, s.cfg.platform.grid);
        }
        rec.tasks = tasks.size();
        util::Rng rng(mix_seed(s.cfg.seed, req.seq, 0));
        vmc.request_id = static_cast<std::int64_t>(req.seq);
        const bool admit = req.kind == RequestKind::kAdmit;
        core::AdmitResult ar;
        {
          Tracer::Scope sp(tr, admit ? "core.admit" : "core.resize", req.seq);
          ar = admit ? core::admit_vm(adm, tasks, req.vm, s.cfg.platform, vmc,
                                      rng)
                     : core::resize_vm(adm, tasks, req.vm, s.cfg.platform,
                                       vmc, rng);
        }
        admit_calls += admit ? 1 : 0;
        if (ar.admitted) adm = std::move(ar.state);
        rec.outcome = admit ? (ar.admitted ? Outcome::kAdmitted
                                           : Outcome::kRejected)
                            : (ar.admitted ? Outcome::kResized
                                           : Outcome::kResizeRejected);
        ++(admit ? (ar.admitted ? got.admitted : got.rejected)
                 : (ar.admitted ? got.resized : got.resize_rejected));
      }
      if (journaling) {
        Tracer::Scope sp(tr, "service.journal", req.seq);
        writer.append(service::serialize(rec));
        ++appends;
      }
      const bool commit = rec.outcome == Outcome::kAdmitted ||
                          rec.outcome == Outcome::kRemoved ||
                          rec.outcome == Outcome::kResized;
      if (!commit) continue;
      ++got.commits;
      if (journaling && got.commits % s.cfg.snapshot_every == 0) {
        Tracer::Scope sp(tr, "service.snapshot", req.seq);
        const std::string tmp = opt.work_dir + "/replay.snap.tmp";
        service::write_file_durable(tmp, state_text(adm));
        std::filesystem::rename(tmp, opt.work_dir + "/replay.snap");
        writer.open_fresh(journal, digest, ++ordinal);
      }
    }
  } catch (const std::exception& e) {
    r.fail(std::string("traced replay: ") + e.what(), s.trace.size());
  }
  writer.close();
  const double traced_s = seconds_since(t_start);
  r.attempted += s.trace.size();

  const bool match = got.admitted == ref.admitted &&
                     got.rejected == ref.rejected &&
                     got.removed == ref.removed &&
                     got.resized == ref.resized &&
                     got.resize_rejected == ref.resize_rejected &&
                     got.not_present == ref.not_present &&
                     got.commits == ref.commits;
  r.param("replay_outcomes_match_report", match ? "yes" : "no");
  if (!match)
    std::cerr << "perfbench: traced replay outcome totals differ from the "
                 "service report (admitted "
              << got.admitted << " vs " << ref.admitted << ", commits "
              << got.commits << " vs " << ref.commits << ")\n";

  r.spans = tr.totals();
  tr.write_chrome_trace(opt.span_file);
  LayerMetrics m;
  for (const auto& t : r.spans) {
    if (t.name == "workload.generate") {
      m.generate_calls = static_cast<double>(t.calls);
      m.generate_busy_s = t.busy_s;
    } else if (t.name == "core.admit") {
      m.admit_busy_s = t.busy_s;
    } else if (t.name == "core.resize") {
      m.resize_busy_s = t.busy_s;
    } else if (t.name == "core.remove") {
      m.remove_busy_s = t.busy_s;
    } else if (t.name == "service.journal") {
      m.journal_busy_s = t.busy_s;
    } else if (t.name == "service.snapshot") {
      m.snapshot_busy_s = t.busy_s;
    } else if (t.name == "service.loop") {
      m.loop_self_s = t.self_s;
    }
  }
  m.set_counters(counters.counters());
  m.admit_calls = static_cast<double>(admit_calls);
  m.admit_accept_ratio = ratio(static_cast<double>(got.admitted),
                               static_cast<double>(admit_calls));
  m.commits = static_cast<double>(got.commits);
  m.journal_appends = static_cast<double>(appends);
  if (pool) {
    const auto t = pool->telemetry();
    m.pool_executed = static_cast<double>(t.total_executed());
    m.pool_idle_s = 1e-9 * static_cast<double>(t.total_idle_ns());
  }
  m.unattributed_s = traced_s - tr.top_level_s();
  m.overhead_frac = ratio(traced_s, median(trace0_wall_s)) - 1;
  m.emit(r);
  return r;
}

}  // namespace perfbench

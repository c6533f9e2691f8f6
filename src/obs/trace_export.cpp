#include "obs/trace_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"
#include "util/parse.h"
#include "util/record.h"

namespace vc2m::obs {

namespace {

constexpr int kCorePid = 1;   ///< Chrome "process" grouping the core tracks
constexpr int kVcpuPid = 2;   ///< ... and the VCPU tracks
constexpr int kTelemetryPid = 3;  ///< counter tracks (pool telemetry etc.)

void meta_event(json::LineWriter& w, int pid, int tid, const char* key,
                const std::string& name) {
  std::ostringstream os;
  os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"name\":\"" << key << "\",\"args\":{\"name\":\""
     << json::escape(name) << "\"}}";
  w.line(os.str());
}

void complete_event(json::LineWriter& w, int pid, int tid, const char* cat,
                    const std::string& name, util::Time start,
                    util::Time end) {
  std::ostringstream os;
  os << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << json::ts_us(start.raw_ns())
     << ",\"dur\":" << json::ts_us((end - start).raw_ns())
     << ",\"cat\":\"" << cat << "\",\"name\":\"" << json::escape(name)
     << "\"}";
  w.line(os.str());
}

void instant_event(json::LineWriter& w, int pid, int tid, const char* scope,
                   const char* cat, const std::string& name, util::Time at,
                   std::int32_t task = -1, std::int64_t job = -1) {
  std::ostringstream os;
  os << "{\"ph\":\"i\",\"pid\":" << pid << ",\"tid\":" << tid
     << ",\"ts\":" << json::ts_us(at.raw_ns()) << ",\"s\":\"" << scope
     << "\",\"cat\":\"" << cat << "\",\"name\":\"" << json::escape(name)
     << "\"";
  if (task >= 0) {
    os << ",\"args\":{\"task\":" << task;
    if (job >= 0) os << ",\"job\":" << job;
    os << "}";
  }
  os << "}";
  w.line(os.str());
}

void counter_event(json::LineWriter& w, const std::string& track,
                   util::Time at, double value) {
  char num[40];
  std::snprintf(num, sizeof num, "%.3f", value);
  std::ostringstream os;
  os << "{\"ph\":\"C\",\"pid\":" << kTelemetryPid << ",\"tid\":0,\"ts\":"
     << json::ts_us(at.raw_ns()) << ",\"name\":\"" << json::escape(track)
     << "\",\"args\":{\"value\":" << num << "}}";
  w.line(os.str());
}

}  // namespace

TraceMeta TraceMeta::from_config(const sim::SimConfig& cfg) {
  TraceMeta m;
  m.num_cores = cfg.num_cores;
  m.vcpu_core.reserve(cfg.vcpus.size());
  m.vcpu_vm.reserve(cfg.vcpus.size());
  for (const auto& v : cfg.vcpus) {
    m.vcpu_core.push_back(static_cast<int>(v.core));
    m.vcpu_vm.push_back(v.vm);
  }
  return m;
}

void write_chrome_trace(std::ostream& os,
                        std::span<const sim::TraceEvent> events,
                        const TraceMeta& meta) {
  // Track counts: declared sizes, widened by whatever the events mention.
  std::size_t num_cores = meta.num_cores;
  std::size_t num_vcpus = meta.vcpu_core.size();
  util::Time end = util::Time::zero();
  for (const auto& ev : events) {
    if (ev.core >= 0)
      num_cores = std::max(num_cores, static_cast<std::size_t>(ev.core) + 1);
    if (ev.vcpu >= 0)
      num_vcpus = std::max(num_vcpus, static_cast<std::size_t>(ev.vcpu) + 1);
    end = util::max(end, ev.when);
  }

  os << "{\n\"displayTimeUnit\": \"ms\",\n\"otherData\": {\"generator\": "
        "\"vc2m\", \"events\": \""
     << events.size() << "\"},\n\"vc2mEvents\": [\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& ev = events[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"t\":%" PRId64 ",\"k\":%d,\"c\":%d,\"v\":%d,\"x\":%d,"
                  "\"j\":%" PRId64 "}",
                  ev.when.raw_ns(), static_cast<int>(ev.kind), ev.core,
                  ev.vcpu, ev.task, ev.job);
    os << buf << (i + 1 < events.size() ? ",\n" : "\n");
  }
  os << "],\n\"traceEvents\": [\n";

  json::LineWriter w{os};
  meta_event(w, kCorePid, 0, "process_name", "cores");
  meta_event(w, kVcpuPid, 0, "process_name", "VCPUs");
  for (std::size_t k = 0; k < num_cores; ++k)
    meta_event(w, kCorePid, static_cast<int>(k), "thread_name",
               "core " + std::to_string(k));
  for (std::size_t j = 0; j < num_vcpus; ++j) {
    std::string name = "vcpu " + std::to_string(j);
    if (j < meta.vcpu_vm.size() && meta.vcpu_vm[j] >= 0)
      name += " (vm " + std::to_string(meta.vcpu_vm[j]) + ")";
    meta_event(w, kVcpuPid, static_cast<int>(j), "thread_name", name);
  }

  // Counter tracks ("C" events) live in their own "telemetry" process so
  // the schedule tracks stay uncluttered. Nothing is emitted when no track
  // has samples, keeping golden traces byte-identical.
  bool any_counters = false;
  for (const auto& track : meta.counters)
    any_counters = any_counters || !track.samples.empty();
  if (any_counters) {
    meta_event(w, kTelemetryPid, 0, "process_name", "telemetry");
    for (const auto& track : meta.counters)
      for (const auto& [at, value] : track.samples)
        counter_event(w, track.name, at, value);
  }

  // Single pass: pair schedule/deschedule and throttle/unthrottle into
  // complete ("X") events, task dispatches into VCPU-track segments, the
  // rest into instants. Events are in recorded (causal) order.
  struct Open {
    bool active = false;
    util::Time start;
    std::int32_t id = -1;  // vcpu on core tracks, task on vcpu tracks
  };
  std::vector<Open> core_run(num_cores), core_throttle(num_cores),
      vcpu_task(num_vcpus);

  auto close_task_segment = [&](std::int32_t vcpu, util::Time at) {
    Open& o = vcpu_task[static_cast<std::size_t>(vcpu)];
    if (!o.active) return;
    complete_event(w, kVcpuPid, vcpu, "task", "task " + std::to_string(o.id),
                   o.start, at);
    o.active = false;
  };

  for (const auto& ev : events) {
    switch (ev.kind) {
      case sim::TraceKind::kVcpuSchedule: {
        Open& o = core_run[static_cast<std::size_t>(ev.core)];
        o = {true, ev.when, ev.vcpu};
        break;
      }
      case sim::TraceKind::kVcpuDeschedule: {
        Open& o = core_run[static_cast<std::size_t>(ev.core)];
        if (o.active)
          complete_event(w, kCorePid, ev.core, "sched",
                         "vcpu " + std::to_string(o.id), o.start, ev.when);
        o.active = false;
        if (ev.vcpu >= 0) close_task_segment(ev.vcpu, ev.when);
        break;
      }
      case sim::TraceKind::kTaskDispatch: {
        close_task_segment(ev.vcpu, ev.when);
        vcpu_task[static_cast<std::size_t>(ev.vcpu)] = {true, ev.when,
                                                        ev.task};
        break;
      }
      case sim::TraceKind::kCoreThrottle:
        core_throttle[static_cast<std::size_t>(ev.core)] = {true, ev.when,
                                                            ev.core};
        break;
      case sim::TraceKind::kCoreUnthrottle: {
        Open& o = core_throttle[static_cast<std::size_t>(ev.core)];
        if (o.active)
          complete_event(w, kCorePid, ev.core, "bw", "throttled", o.start,
                         ev.when);
        o.active = false;
        break;
      }
      case sim::TraceKind::kJobRelease:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "job",
                      "release task " + std::to_string(ev.task), ev.when,
                      ev.task, ev.job);
        break;
      case sim::TraceKind::kJobComplete:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "job",
                      "complete task " + std::to_string(ev.task), ev.when,
                      ev.task, ev.job);
        break;
      case sim::TraceKind::kDeadlineMiss:
        instant_event(w, kVcpuPid, ev.vcpu, "g", "job",
                      "MISS task " + std::to_string(ev.task), ev.when, ev.task,
                      ev.job);
        break;
      case sim::TraceKind::kVcpuRelease:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "server", "replenish",
                      ev.when);
        break;
      case sim::TraceKind::kVcpuBudgetExhausted:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "server",
                      "budget-exhausted", ev.when);
        break;
      case sim::TraceKind::kHypercall:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "sync", "hypercall",
                      ev.when, ev.task);
        break;
      case sim::TraceKind::kBwRefill:
        instant_event(w, kCorePid, 0, "p", "bw", "bw-refill", ev.when);
        break;
      case sim::TraceKind::kFaultWcetOverrun:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "fault",
                      "overrun task " + std::to_string(ev.task), ev.when,
                      ev.task, ev.job);
        break;
      case sim::TraceKind::kFaultReleaseJitter:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "fault",
                      "jitter task " + std::to_string(ev.task), ev.when,
                      ev.task);
        break;
      case sim::TraceKind::kFaultRefillDelay:
        instant_event(w, kCorePid, 0, "p", "fault", "refill-delay", ev.when);
        break;
      case sim::TraceKind::kPartitionRevoke:
        instant_event(w, kCorePid, ev.core, "t", "fault",
                      "revoke->" + std::to_string(ev.job) + "w", ev.when);
        break;
      case sim::TraceKind::kPartitionRestore:
        instant_event(w, kCorePid, ev.core, "t", "fault",
                      "restore->" + std::to_string(ev.job) + "w", ev.when);
        break;
      case sim::TraceKind::kCosProgram:
        instant_event(w, kCorePid, ev.core, "t", "cos",
                      "cos " + std::to_string(ev.job) + "w", ev.when);
        break;
      case sim::TraceKind::kJobKilled:
        instant_event(w, kVcpuPid, ev.vcpu, "g", "job",
                      "KILL task " + std::to_string(ev.task), ev.when, ev.task,
                      ev.job);
        break;
      case sim::TraceKind::kJobDeferred:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "job",
                      "defer task " + std::to_string(ev.task), ev.when, ev.task,
                      ev.job);
        break;
      case sim::TraceKind::kTaskSuspend:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "enforce",
                      "suspend task " + std::to_string(ev.task), ev.when,
                      ev.task);
        break;
      case sim::TraceKind::kTaskResume:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "enforce",
                      "resume task " + std::to_string(ev.task), ev.when,
                      ev.task);
        break;
      case sim::TraceKind::kVcpuBudgetOverrun:
        instant_event(w, kVcpuPid, ev.vcpu, "t", "server", "budget-overrun",
                      ev.when);
        break;
      case sim::TraceKind::kCount_:
        break;
    }
  }

  // Close whatever is still open at the last event's timestamp so the
  // viewer shows the full extent of the run.
  for (std::size_t k = 0; k < num_cores; ++k) {
    if (core_run[k].active)
      complete_event(w, kCorePid, static_cast<int>(k), "sched",
                     "vcpu " + std::to_string(core_run[k].id),
                     core_run[k].start, end);
    if (core_throttle[k].active)
      complete_event(w, kCorePid, static_cast<int>(k), "bw", "throttled",
                     core_throttle[k].start, end);
  }
  for (std::size_t j = 0; j < num_vcpus; ++j)
    if (vcpu_task[j].active)
      complete_event(w, kVcpuPid, static_cast<int>(j), "task",
                     "task " + std::to_string(vcpu_task[j].id),
                     vcpu_task[j].start, end);

  os << "\n]\n}\n";
}

void write_trace_csv(std::ostream& os,
                     std::span<const sim::TraceEvent> events) {
  os << "time_ns,kind,core,vcpu,task,job\n";
  for (const auto& ev : events)
    os << ev.when.raw_ns() << ',' << sim::to_string(ev.kind) << ','
       << ev.core << ',' << ev.vcpu << ',' << ev.task << ',' << ev.job
       << '\n';
}

std::vector<sim::TraceEvent> read_trace_csv(std::istream& is) {
  std::vector<sim::TraceEvent> out;
  std::string line;
  std::getline(is, line);  // header
  VC2M_CHECK_MSG(line.rfind("time_ns,", 0) == 0,
                 "not a vc2m trace CSV (missing header)");
  std::size_t lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    util::FieldReader cells(line, ',',
                            "trace CSV line " + std::to_string(lineno));
    cells.expect_fields(6);
    sim::TraceEvent ev;
    ev.when = util::Time::ns(cells.i64());
    const std::string kind(cells.next());
    const auto k = sim::trace_kind_from_string(kind);
    if (!k) cells.fail("unknown kind '" + kind + "'");
    ev.kind = *k;
    ev.core = cells.integer<std::int32_t>();
    ev.vcpu = cells.integer<std::int32_t>();
    ev.task = cells.integer<std::int32_t>();
    ev.job = cells.i64();
    out.push_back(ev);
  }
  return out;
}

namespace {

/// The numbers of one vc2mEvents record; `kind` is not yet range-checked.
struct EventRecord {
  std::int64_t t = 0;
  int kind = 0, core = 0, vcpu = 0, task = 0;
  std::int64_t job = 0;
};

/// One vc2mEvents record exactly as write_chrome_trace prints it,
/// {"t":T,"k":K,"c":C,"v":V,"x":X,"j":J}, each number in util/parse.h's
/// strict grammar; nullopt otherwise.
std::optional<EventRecord> parse_event_record(std::string_view line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}')
    return std::nullopt;
  line = line.substr(1, line.size() - 2);
  // The token after `key`, consumed with the comma that ends it.
  const auto field = [&line](std::string_view key,
                             bool last) -> std::optional<std::string_view> {
    if (!line.starts_with(key)) return std::nullopt;
    line.remove_prefix(key.size());
    const std::size_t end = last ? line.size() : line.find(',');
    if (end == std::string_view::npos) return std::nullopt;
    const std::string_view token = line.substr(0, end);
    line.remove_prefix(last ? end : end + 1);
    return token;
  };
  const auto t = field("\"t\":", false), k = field("\"k\":", false),
             c = field("\"c\":", false), v = field("\"v\":", false),
             x = field("\"x\":", false), j = field("\"j\":", true);
  if (!t || !k || !c || !v || !x || !j) return std::nullopt;
  const auto rt = util::try_i64(*t), rj = util::try_i64(*j);
  const auto rk = util::try_int<int>(*k), rc = util::try_int<int>(*c),
             rv = util::try_int<int>(*v), rx = util::try_int<int>(*x);
  if (!rt || !rk || !rc || !rv || !rx || !rj) return std::nullopt;
  return EventRecord{*rt, *rk, *rc, *rv, *rx, *rj};
}

}  // namespace

std::vector<sim::TraceEvent> read_chrome_trace(std::istream& is) {
  std::vector<sim::TraceEvent> out;
  for (const std::string& line : json::trace_records(is, "vc2mEvents")) {
    const auto r = parse_event_record(line);
    VC2M_CHECK_MSG(r, "malformed vc2mEvents record: " << line);
    VC2M_CHECK_MSG(
        r->kind >= 0 && r->kind < static_cast<int>(sim::TraceKind::kCount_),
        "vc2mEvents record with unknown kind " << r->kind);
    out.push_back({util::Time::ns(r->t), static_cast<sim::TraceKind>(r->kind),
                   r->core, r->vcpu, r->task, r->job});
  }
  return out;
}

namespace {
bool has_suffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

void write_trace_file(const std::string& path,
                      std::span<const sim::TraceEvent> events,
                      const TraceMeta& meta) {
  auto f = util::open_output_file(path, "trace file");
  if (has_suffix(path, ".csv"))
    write_trace_csv(f, events);
  else
    write_chrome_trace(f, events, meta);
  util::close_output_file(f, path, "trace file");
}

std::vector<sim::TraceEvent> read_trace_file(const std::string& path) {
  std::ifstream f(path);
  VC2M_CHECK_MSG(f.good(), "cannot open " << path);
  return has_suffix(path, ".csv") ? read_trace_csv(f) : read_chrome_trace(f);
}

}  // namespace vc2m::obs

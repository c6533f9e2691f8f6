#include "service/trace_gen.h"

#include <cmath>
#include <sstream>

#include "util/error.h"
#include "util/parse.h"
#include "workload/generator.h"

namespace vc2m::service {

namespace {

constexpr double kPi = 3.14159265358979323846;

double parse_num(const std::string& key, const std::string& s) {
  if (s.empty()) throw util::Error("trace spec: empty value for '" + key + "'");
  if (const auto v = util::try_double(s)) return *v;
  throw util::Error("trace spec: bad value '" + s + "' for '" + key + "'");
}

std::uint64_t parse_count(const std::string& key, const std::string& s) {
  if (const auto v = util::try_u64(s)) return *v;
  throw util::Error("trace spec: '" + key +
                    "' must be a non-negative integer, got '" + s + "'");
}

void parse_range(const std::string& key, const std::string& s, double& lo,
                 double& hi) {
  const auto dots = s.find("..");
  if (dots == std::string::npos)
    throw util::Error("trace spec: '" + key + "' wants LO..HI, got '" + s +
                      "'");
  lo = parse_num(key, s.substr(0, dots));
  hi = parse_num(key, s.substr(dots + 2));
  if (lo <= 0 || hi < lo)
    throw util::Error("trace spec: '" + key + "' wants 0 < LO <= HI, got '" +
                      s + "'");
}

}  // namespace

const char* to_string(RequestKind k) {
  switch (k) {
    case RequestKind::kAdmit: return "admit";
    case RequestKind::kRemove: return "remove";
    case RequestKind::kResize: return "resize";
  }
  return "?";
}

const char* to_string(TracePattern p) {
  switch (p) {
    case TracePattern::kPoisson: return "poisson";
    case TracePattern::kFlash: return "flash";
    case TracePattern::kDiurnal: return "diurnal";
  }
  return "?";
}

TraceConfig parse_trace_spec(const std::string& spec) {
  TraceConfig cfg;
  cfg.spec = spec;
  const auto colon = spec.find(':');
  const std::string pattern = spec.substr(0, colon);
  if (pattern == "poisson") cfg.pattern = TracePattern::kPoisson;
  else if (pattern == "flash") cfg.pattern = TracePattern::kFlash;
  else if (pattern == "diurnal") cfg.pattern = TracePattern::kDiurnal;
  else
    throw util::Error("trace spec: unknown pattern '" + pattern +
                      "' (poisson|flash|diurnal)");
  if (colon == std::string::npos) return cfg;

  std::istringstream is(spec.substr(colon + 1));
  std::string item;
  while (std::getline(is, item, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      throw util::Error("trace spec: want key=value, got '" + item + "'");
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    if (key == "requests") {
      cfg.requests = parse_count(key, val);
      if (cfg.requests == 0)
        throw util::Error("trace spec: requests must be >= 1");
    } else if (key == "interarrival-us") {
      const double us = parse_num(key, val);
      if (us <= 0)
        throw util::Error("trace spec: interarrival-us must be > 0");
      cfg.mean_interarrival = util::Time::ns(
          static_cast<std::int64_t>(us * 1000.0 + 0.5));
    } else if (key == "util") {
      parse_range(key, val, cfg.util_lo, cfg.util_hi);
    } else if (key == "remove-frac") {
      cfg.remove_frac = parse_num(key, val);
    } else if (key == "resize-frac") {
      cfg.resize_frac = parse_num(key, val);
    } else if (key == "low-crit-frac") {
      cfg.low_crit_frac = parse_num(key, val);
    } else if (key == "flash-at") {
      cfg.flash_at = parse_num(key, val);
    } else if (key == "flash-len") {
      cfg.flash_len = parse_num(key, val);
    } else if (key == "flash-x") {
      cfg.flash_x = parse_num(key, val);
    } else if (key == "cycles") {
      cfg.diurnal_cycles = parse_num(key, val);
    } else if (key == "amp") {
      cfg.diurnal_amp = parse_num(key, val);
    } else {
      throw util::Error("trace spec: unknown key '" + key + "'");
    }
  }
  if (cfg.remove_frac < 0 || cfg.resize_frac < 0 ||
      cfg.remove_frac + cfg.resize_frac > 0.9)
    throw util::Error("trace spec: remove-frac + resize-frac must stay in "
                      "[0, 0.9]");
  if (cfg.low_crit_frac < 0 || cfg.low_crit_frac > 1)
    throw util::Error("trace spec: low-crit-frac must be in [0, 1]");
  if (cfg.flash_x <= 0 || cfg.flash_len < 0 || cfg.flash_at < 0)
    throw util::Error("trace spec: flash parameters must be positive");
  if (cfg.diurnal_amp < 0 || cfg.diurnal_amp >= 1)
    throw util::Error("trace spec: amp must be in [0, 1)");
  return cfg;
}

std::vector<ServeRequest> generate_trace(const TraceConfig& cfg,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ServeRequest> out;
  out.reserve(cfg.requests);
  std::vector<std::pair<int, int>> live;  // (vm, criticality) the generator
                                          // believes admitted
  std::int64_t clock_ns = 0;
  int next_vm = 1;
  const double n = static_cast<double>(cfg.requests);
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    // Rate modulation: >1 means a denser burst (shorter interarrivals).
    double rate = 1.0;
    const double pos = static_cast<double>(i) / n;
    if (cfg.pattern == TracePattern::kFlash && pos >= cfg.flash_at &&
        pos < cfg.flash_at + cfg.flash_len)
      rate = cfg.flash_x;
    else if (cfg.pattern == TracePattern::kDiurnal)
      rate = 1.0 + cfg.diurnal_amp *
                       std::sin(2.0 * kPi * cfg.diurnal_cycles * pos);
    // Exponential interarrival with mean (mean_interarrival / rate);
    // 1 - uniform01() keeps the argument strictly positive.
    const double gap_ns =
        -static_cast<double>(cfg.mean_interarrival.raw_ns()) / rate *
        std::log(1.0 - rng.uniform01());
    clock_ns += static_cast<std::int64_t>(gap_ns) + 1;

    ServeRequest req;
    req.seq = i;
    req.at = util::Time::ns(clock_ns);
    const double kind_draw = rng.uniform01();
    if (kind_draw < cfg.remove_frac && !live.empty()) {
      req.kind = RequestKind::kRemove;
      const std::size_t pick = rng.index(live.size());
      req.vm = live[pick].first;
      req.criticality = live[pick].second;
      live[pick] = live.back();
      live.pop_back();
    } else if (kind_draw < cfg.remove_frac + cfg.resize_frac &&
               !live.empty()) {
      req.kind = RequestKind::kResize;
      const std::size_t pick = rng.index(live.size());
      req.vm = live[pick].first;
      req.criticality = live[pick].second;
      req.util = rng.uniform(cfg.util_lo, cfg.util_hi);
      req.taskset_seed = rng();
    } else {
      req.kind = RequestKind::kAdmit;
      req.vm = next_vm++;
      req.util = rng.uniform(cfg.util_lo, cfg.util_hi);
      req.criticality = rng.bernoulli(cfg.low_crit_frac) ? 0 : 1;
      req.taskset_seed = rng();
      live.emplace_back(req.vm, req.criticality);
    }
    out.push_back(req);
  }
  return out;
}

model::Taskset materialize_taskset(const ServeRequest& req,
                                   const model::ResourceGrid& grid) {
  VC2M_CHECK_MSG(req.kind != RequestKind::kRemove,
                 "remove requests carry no taskset");
  workload::GeneratorConfig gen;
  gen.grid = grid;
  gen.target_ref_utilization = req.util;
  gen.num_vms = 1;
  util::Rng rng(req.taskset_seed);
  auto tasks = workload::generate_taskset(gen, rng);
  for (auto& t : tasks) t.vm = req.vm;
  return tasks;
}

}  // namespace vc2m::service

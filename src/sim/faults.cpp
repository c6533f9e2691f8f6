// Fault injection: plan parsing, the seeded fault streams, and the
// injection entry points the DES calls while it runs (see sim/faults.h).
#include "sim/faults.h"

#include <cmath>
#include <vector>

#include "hw/cat.h"
#include "hw/msr.h"
#include "sim/simulation.h"
#include "util/error.h"
#include "util/parse.h"
#include "util/record.h"

namespace vc2m::sim {

std::string to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kWcetOverrun: return "wcet-overrun";
    case FaultKind::kReleaseJitter: return "release-jitter";
    case FaultKind::kPartitionRevoke: return "partition-revoke";
    case FaultKind::kRefillDelay: return "refill-delay";
    case FaultKind::kCount_: break;
  }
  return "?";
}

void FaultSpec::validate() const {
  const auto check_prob = [](double p, const char* what) {
    if (!(p >= 0.0 && p <= 1.0))
      throw util::Error(std::string("fault spec: ") + what +
                        " must be a probability in [0, 1]");
  };
  if (!(overrun_factor >= 1.0) || !std::isfinite(overrun_factor))
    throw util::Error("fault spec: overrun-factor must be finite and >= 1");
  if (overrun_factor > 100.0)
    throw util::Error("fault spec: overrun-factor above 100 is not plausible");
  check_prob(overrun_prob, "overrun-prob");
  check_prob(jitter_prob, "jitter-prob");
  check_prob(refill_delay_prob, "refill-prob");
  if (!(low_crit_frac >= 0.0 && low_crit_frac <= 1.0))
    throw util::Error("fault spec: low-crit-frac must be in [0, 1]");
  if (max_release_jitter.is_negative())
    throw util::Error("fault spec: jitter-ms must be >= 0");
  if (max_refill_delay.is_negative())
    throw util::Error("fault spec: refill-delay-ms must be >= 0");
  if (revoke_interval.is_negative())
    throw util::Error("fault spec: revoke-interval-ms must be >= 0");
  if (revoke_interval > util::Time::zero()) {
    if (revoke_window <= util::Time::zero())
      throw util::Error("fault spec: revoke-window-ms must be > 0");
    if (revoke_ways < 1)
      throw util::Error("fault spec: revoke-ways must be >= 1");
  }
}

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  const auto parse_double = [](const std::string& key,
                               const std::string& value) {
    if (const auto v = util::try_double(value)) return *v;
    throw util::Error("fault spec: bad value for " + key + ": " + value);
  };
  const auto parse_ms = [&](const std::string& key, const std::string& value) {
    return util::Time::ns(static_cast<std::int64_t>(
        parse_double(key, value) * 1e6 + 0.5));
  };
  // Every item must be key=value: an empty one (a trailing or doubled
  // comma) is an error, not a skip.
  for (const std::string_view item : util::split(spec, ',')) {
    const auto eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0 || eq + 1 == item.size())
      throw util::Error("fault spec: expected key=value, got: '" +
                        std::string(item) + "'");
    const std::string key(item.substr(0, eq));
    const std::string value(item.substr(eq + 1));
    if (key == "overrun-factor") {
      out.overrun_factor = parse_double(key, value);
    } else if (key == "overrun-prob") {
      out.overrun_prob = parse_double(key, value);
    } else if (key == "jitter-ms") {
      out.max_release_jitter = parse_ms(key, value);
    } else if (key == "jitter-prob") {
      out.jitter_prob = parse_double(key, value);
    } else if (key == "revoke-interval-ms") {
      out.revoke_interval = parse_ms(key, value);
    } else if (key == "revoke-window-ms") {
      out.revoke_window = parse_ms(key, value);
    } else if (key == "revoke-ways") {
      const auto w = util::try_int<unsigned>(value, 1);
      if (!w)
        throw util::Error("fault spec: revoke-ways must be a positive integer");
      out.revoke_ways = *w;
    } else if (key == "refill-delay-ms") {
      out.max_refill_delay = parse_ms(key, value);
    } else if (key == "refill-prob") {
      out.refill_delay_prob = parse_double(key, value);
    } else if (key == "low-crit-frac") {
      out.low_crit_frac = parse_double(key, value);
    } else if (key == "seed") {
      const auto seed = util::try_u64(value);
      if (!seed)
        throw util::Error("fault spec: seed must be a non-negative integer");
      out.seed = *seed;
    } else {
      throw util::Error("fault spec: unknown key: " + key);
    }
  }
  out.validate();
  return out;
}

void Simulation::setup_faults() {
  degrade_until_.assign(cores_.size(), util::Time::zero());
  const FaultSpec& f = cfg_.faults;
  f.validate();
  // Fork every stream in a fixed order whether or not its class is active,
  // so enabling one class never perturbs another's draws.
  util::Rng master(f.seed);
  fault_overrun_rng_ = master.fork();
  fault_jitter_rng_ = master.fork();
  fault_revoke_rng_ = master.fork();
  fault_refill_rng_ = master.fork();
  util::Rng crit_rng = master.fork();

  if (f.low_crit_frac > 0)
    for (auto& t : tasks_)
      if (t.spec.criticality == 1 && crit_rng.bernoulli(f.low_crit_frac))
        t.criticality = 0;

  if (f.max_refill_delay > util::Time::zero())
    regulator_->set_refill_delayer([this] { return draw_refill_delay(); });

  if (f.revoke_interval > util::Time::zero()) {
    // Mirror the deployed plan into the CAT model when it is disjoint, so
    // revocations run the real COS programming sequence; an overlapping
    // plan (e.g. the default "every core gets the whole cache") is still
    // revocable at the model level, just without CBM rewrites.
    unsigned total = 0;
    for (const auto& c : cores_) total += c.cache;
    if (total <= cfg_.cache_partitions) {
      cat_msr_ = std::make_unique<hw::MsrFile>(cfg_.num_cores);
      cat_ = std::make_unique<hw::Cat>(*cat_msr_, cfg_.cache_partitions,
                                       cfg_.num_cores + 2, /*min_ways=*/1);
      cat_->program_disjoint_plan(cfg_.cache_alloc);
    }
    schedule_next_revocation();
  }
}

double Simulation::draw_overrun_factor(std::size_t /*task_index*/) {
  const FaultSpec& f = cfg_.faults;
  if (f.overrun_factor <= 1.0 || f.overrun_prob <= 0) return 1.0;
  return fault_overrun_rng_.bernoulli(f.overrun_prob) ? f.overrun_factor : 1.0;
}

util::Time Simulation::draw_release_jitter(std::size_t task_index) {
  const FaultSpec& f = cfg_.faults;
  if (f.max_release_jitter <= util::Time::zero() || f.jitter_prob <= 0)
    return util::Time::zero();
  if (!fault_jitter_rng_.bernoulli(f.jitter_prob)) return util::Time::zero();
  // Clamp below the period so consecutive releases of one task never
  // reorder (the next release stays on the nominal grid).
  const util::Time cap = util::min(
      f.max_release_jitter,
      tasks_[task_index].spec.period - util::Time::ns(1));
  if (cap <= util::Time::zero()) return util::Time::zero();
  return util::Time::ns(fault_jitter_rng_.uniform_int(1, cap.raw_ns()));
}

util::Time Simulation::draw_refill_delay() {
  const FaultSpec& f = cfg_.faults;
  if (!fault_refill_rng_.bernoulli(f.refill_delay_prob))
    return util::Time::zero();
  const util::Time delay =
      util::Time::ns(fault_refill_rng_.uniform_int(
          1, f.max_refill_delay.raw_ns()));
  ++faults_injected_;
  trace_.record({queue_.now(), TraceKind::kFaultRefillDelay, -1, -1, -1,
                 delay.raw_ns()});
  if (observer_) observer_->on_fault_injected(FaultKind::kRefillDelay);
  return delay;
}

void Simulation::schedule_next_revocation() {
  // Jitter the gap to [0.5, 1.5) of the nominal interval so revocations
  // drift off any periodic resonance with the workload.
  const double u = fault_revoke_rng_.uniform(0.5, 1.5);
  const util::Time gap = util::Time::ns(static_cast<std::int64_t>(
      static_cast<double>(cfg_.faults.revoke_interval.raw_ns()) * u + 0.5));
  queue_.schedule(queue_.now() + util::max(gap, util::Time::ns(1)),
                  [this] { inject_revocation(); });
}

void Simulation::inject_revocation() {
  const FaultSpec& f = cfg_.faults;
  const std::size_t core = fault_revoke_rng_.index(cores_.size());
  const unsigned current = cores_[core].cache;
  const unsigned target = f.revoke_ways < current ? f.revoke_ways : current;
  if (revoke_active_ || target == current) {
    // Nothing to shrink (or a revocation is still in flight): skip this
    // occurrence, keep the cadence.
    schedule_next_revocation();
    return;
  }
  revoke_active_ = true;
  revoked_core_ = core;
  revoked_saved_ways_ = current;
  ++faults_injected_;
  trace_.record({queue_.now(), TraceKind::kPartitionRevoke,
                 static_cast<std::int32_t>(core), -1, -1,
                 static_cast<std::int64_t>(target)});
  if (observer_) observer_->on_fault_injected(FaultKind::kPartitionRevoke);
  apply_cache_update(core, target);
  queue_.schedule(queue_.now() + f.revoke_window,
                  [this] { restore_revocation(); });
}

void Simulation::restore_revocation() {
  VC2M_CHECK(revoke_active_ && revoked_core_ != kNone);
  const std::size_t core = revoked_core_;
  trace_.record({queue_.now(), TraceKind::kPartitionRestore,
                 static_cast<std::int32_t>(core), -1, -1,
                 static_cast<std::int64_t>(revoked_saved_ways_)});
  apply_cache_update(core, revoked_saved_ways_);
  revoke_active_ = false;
  revoked_core_ = kNone;
  schedule_next_revocation();
}

}  // namespace vc2m::sim

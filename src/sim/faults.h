// Deterministic fault injection for the simulator.
//
// A FaultSpec describes a seeded plan of runtime misbehaviors the DES
// injects while it runs; sim/enforcement.h describes what the scheduler
// does about them. Four fault classes are modeled:
//   (a) WCET overruns — a job's actual work is its modeled requirement
//       times `overrun_factor` with probability `overrun_prob`;
//   (b) release jitter — a job's arrival is delayed past its nominal
//       release instant (deadline and the next release stay on the nominal
//       grid, so jitter never drifts the task's long-run rate);
//   (c) partition revocation — a core transiently loses cache ways (the
//       vCAT reprogramming path, mirrored through the hw::Cat model) for
//       `revoke_window`, then gets them back;
//   (d) refill delays — the bandwidth regulator's periodic replenishment
//       timer fires late (models ISR/timer latency; inert unless BW
//       regulation is enabled).
//
// Determinism contract (docs/robustness.md): all fault streams are forked
// from util::Rng(seed) in a fixed order at setup, and the simulation itself
// is single-threaded, so the same SimConfig (faults included) reproduces a
// bit-identical trace — including when fault-validating sweeps run over the
// experiment thread pool at any --jobs count.
#pragma once

#include <cstdint>
#include <string>

#include "sim/enforcement.h"
#include "util/time.h"

namespace vc2m::sim {

enum class FaultKind : std::uint8_t {
  kWcetOverrun,
  kReleaseJitter,
  kPartitionRevoke,
  kRefillDelay,
  kCount_,
};

std::string to_string(FaultKind k);

struct FaultSpec {
  /// (a) WCET overrun: each job's work is requirement × factor with
  /// probability `overrun_prob`. factor <= 1 disables the class.
  double overrun_factor = 1.0;
  double overrun_prob = 1.0;

  /// (b) Release jitter: with probability `jitter_prob` a release is
  /// delayed by uniform (0, max_release_jitter] (clamped below the task
  /// period so releases never reorder). zero disables the class.
  util::Time max_release_jitter = util::Time::zero();
  double jitter_prob = 1.0;

  /// (c) Partition revocation: roughly every `revoke_interval` (jittered to
  /// [0.5, 1.5) of it) a random core is shrunk to `revoke_ways` cache ways
  /// for `revoke_window`, then restored. At most one revocation is in
  /// flight at a time. zero interval disables the class.
  util::Time revoke_interval = util::Time::zero();
  util::Time revoke_window = util::Time::ms(2);
  unsigned revoke_ways = 1;

  /// (d) Refill delay: with probability `refill_delay_prob` the regulator's
  /// next refill is armed uniform (0, max_refill_delay] late. zero disables
  /// the class.
  util::Time max_refill_delay = util::Time::zero();
  double refill_delay_prob = 1.0;

  /// Fraction of (default-criticality) tasks marked criticality 0 at setup
  /// — the shedding victims of EnforcementPolicy::kDegrade.
  double low_crit_frac = 0.0;

  /// Master seed of the fault plan; every fault stream forks from it.
  std::uint64_t seed = 1;

  /// Throws util::Error on out-of-range parameters.
  void validate() const;
};

/// Parse a comma-separated `key=value` spec, e.g.
///   "overrun-factor=1.2,overrun-prob=0.5,seed=7"
/// Keys: overrun-factor, overrun-prob, jitter-ms, jitter-prob,
/// revoke-interval-ms, revoke-window-ms, revoke-ways, refill-delay-ms,
/// refill-prob, low-crit-frac, seed. Throws util::Error on unknown keys or
/// malformed values.
FaultSpec parse_fault_spec(const std::string& spec);

}  // namespace vc2m::sim

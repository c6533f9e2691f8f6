// Seeded request-trace generation for the admission-control service.
//
// A trace is a deterministic stream of admit/remove/resize requests with
// virtual arrival timestamps. Three arrival patterns are supported:
//   poisson — exponential interarrivals at a constant mean rate,
//   flash   — poisson with a rate burst (×flash-x) over a window of the
//             trace (a flash crowd hitting the control plane),
//   diurnal — poisson with the rate modulated sinusoidally over `cycles`
//             day-night cycles across the trace.
//
// Requests carry generative parameters only (target utilization, taskset
// seed) — the actual taskset is materialized lazily when the service
// processes the request, so a 10^5-request trace costs megabytes, not
// gigabytes. Everything is a pure function of (spec, seed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/resource_grid.h"
#include "model/task.h"
#include "util/rng.h"
#include "util/time.h"

namespace vc2m::service {

enum class RequestKind : std::uint8_t { kAdmit, kRemove, kResize };

/// Stable names (journal records, spans), indexed by RequestKind.
inline constexpr const char* kRequestKindNames[] = {"admit", "remove",
                                                    "resize"};

const char* to_string(RequestKind k);

struct ServeRequest {
  std::uint64_t seq = 0;   ///< index into the trace (stable identity)
  util::Time at;           ///< virtual arrival time
  RequestKind kind = RequestKind::kAdmit;
  int vm = 0;
  double util = 0;         ///< admit/resize: target reference utilization
  /// 0 = best-effort (first to be shed under the criticality policy, the
  /// same class the kDegrade enforcement policy sheds); >= 1 = critical.
  int criticality = 1;
  std::uint64_t taskset_seed = 0;  ///< admit/resize: workload stream seed
};

enum class TracePattern : std::uint8_t { kPoisson, kFlash, kDiurnal };

const char* to_string(TracePattern p);

struct TraceConfig {
  TracePattern pattern = TracePattern::kPoisson;
  std::uint64_t requests = 100000;
  util::Time mean_interarrival = util::Time::us(500);
  double util_lo = 0.1;
  double util_hi = 0.5;
  double remove_frac = 0.25;   ///< fraction of requests removing a live VM
  double resize_frac = 0.10;   ///< fraction resizing a live VM
  double low_crit_frac = 0.5;  ///< fraction of admits with criticality 0
  // flash: rate multiplied by `flash_x` for requests in
  // [flash_at, flash_at + flash_len) (fractions of the trace).
  double flash_at = 0.5;
  double flash_len = 0.1;
  double flash_x = 8.0;
  // diurnal: rate multiplier 1 + amp * sin(2π · cycles · i/n).
  double diurnal_cycles = 2.0;
  double diurnal_amp = 0.8;
  std::string spec;  ///< the original spec string (echoed in reports)
};

/// Parse "PATTERN[:key=value[,key=value...]]", e.g.
/// "poisson:requests=2000,interarrival-us=300,util=0.1..0.4" or
/// "flash:flash-x=12,flash-at=0.6". Keys: requests, interarrival-us,
/// util=LO..HI, remove-frac, resize-frac, low-crit-frac, flash-at,
/// flash-len, flash-x, cycles, amp. Throws util::Error on anything else.
TraceConfig parse_trace_spec(const std::string& spec);

/// The request stream one request at a time, in seq order: next() returns
/// the requests generate_trace returns whole, holding only the VMs the
/// generator believes live.
class TraceGenerator {
 public:
  TraceGenerator(const TraceConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  /// Requests generated so far: the seq next() returns.
  std::uint64_t generated() const { return next_seq_; }
  bool done() const { return next_seq_ == cfg_.requests; }
  /// The next request; requires !done().
  ServeRequest next();

 private:
  TraceConfig cfg_;
  util::Rng rng_;
  /// (vm, criticality) of the VMs the generator believes admitted.
  std::vector<std::pair<int, int>> live_;
  std::int64_t clock_ns_ = 0;
  int next_vm_ = 1;
  std::uint64_t next_seq_ = 0;
};

/// Generate the full request stream. Deterministic given (cfg, seed); VM
/// ids are unique and increasing, removes/resizes target VMs the generator
/// has admitted and not yet removed (the service may still see a remove for
/// a VM it rejected — that is the not-present path, by design).
std::vector<ServeRequest> generate_trace(const TraceConfig& cfg,
                                         std::uint64_t seed);

/// Materialize the taskset behind an admit/resize request (tasks carry
/// req.vm) into `out`, reusing its storage. Pure function of (req, grid).
void materialize_taskset(const ServeRequest& req,
                         const model::ResourceGrid& grid, model::Taskset& out);
/// The same taskset, returned.
model::Taskset materialize_taskset(const ServeRequest& req,
                                   const model::ResourceGrid& grid);

}  // namespace vc2m::service

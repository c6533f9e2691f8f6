// Pins and oracles for the admission hot-path kernels.
//
// The k-means pins freeze the exact assignment, centroid bit patterns,
// iteration counts and kmeans_final_shift of the clustering on Platform-A
// slowdown features, including inputs whose empty-cluster repair steals
// from an already-computed centroid. The oracle tests hold the grid
// kernels (WcetFn::from_slowdown / slowdown, regulated_vcpu, CoreLoad) to
// plain at()-based reference loops kept here, on the grids of Platforms A,
// B and C. The admission pin freezes a whole admit/resize/remove churn:
// every decision event and every resulting state.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/schedulability.h"
#include "analysis/theorems.h"
#include "core/admission.h"
#include "core/core_load.h"
#include "core/kmeans.h"
#include "model/platform.h"
#include "obs/decision_log.h"
#include "util/instrument.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/parsec.h"

namespace vc2m::core {
namespace {

using model::PlatformSpec;
using model::ResourceGrid;
using model::Taskset;
using model::Vcpu;
using model::WcetFn;
using util::Rng;
using util::Time;

/// FNV-1a over 64-bit words: a compact pin for long exact sequences.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t bits_of(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

const std::vector<PlatformSpec>& platforms() {
  static const std::vector<PlatformSpec> kAll = {
      PlatformSpec::A(), PlatformSpec::B(), PlatformSpec::C()};
  return kAll;
}

Taskset tasks_on(const ResourceGrid& grid, double util, std::uint64_t seed) {
  workload::GeneratorConfig gen;
  gen.grid = grid;
  gen.target_ref_utilization = util;
  Rng rng(seed);
  return workload::generate_taskset(gen, rng);
}

// ---------------------------------------------------------- k-means pins --

/// Platform-A slowdown features: the twelve PARSEC surfaces, then the
/// slowdown vectors of a 4.0-utilization generated taskset.
std::vector<std::vector<double>> feature_pool() {
  const auto grid = PlatformSpec::A().grid;
  std::vector<std::vector<double>> pool;
  for (const auto& p : workload::parsec_suite())
    pool.push_back(p.surface(grid).flat());
  for (const auto& t : tasks_on(grid, 4.0, 5))
    pool.push_back(t.slowdown().flat());
  return pool;
}

struct KMeansPin {
  unsigned iterations;
  std::uint64_t shift_bits;
  std::string digest;  ///< assignment + centroid bit patterns
};

KMeansPin run_pinned(const std::vector<std::vector<double>>& pts,
                     std::size_t k, std::uint64_t seed) {
  util::AllocCounterScope scope;
  Rng rng(seed);
  const auto res = kmeans(pts, k, rng);
  Digest d;
  for (const std::size_t a : res.assignment) d.add(a);
  for (const auto& c : res.centroids)
    for (const double v : c) d.add_double(v);
  d.add(rng());  // the RNG stream position after seeding
  EXPECT_EQ(scope.counters().kmeans_runs, 1u);
  EXPECT_EQ(scope.counters().kmeans_iterations, res.iterations);
  return {res.iterations, bits_of(scope.counters().kmeans_final_shift),
          d.hex()};
}

void expect_pin(const KMeansPin& got, const KMeansPin& want,
                const std::string& label) {
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(got.shift_bits, want.shift_bits) << label;
  EXPECT_EQ(got.digest, want.digest) << label;
}

TEST(KMeansPinTest, PlatformAFeaturesKOneToFive) {
  const auto pool = feature_pool();
  ASSERT_GE(pool.size(), 72u);
  // The generated tasks' features: near-duplicates per benchmark, the shape
  // the VM-level clustering sees.
  const std::vector<std::vector<double>> pts(pool.begin() + 12,
                                             pool.begin() + 72);
  const KMeansPin want[] = {
      {2, 0, "8c0681adf43b945e"}, {6, 0, "e3dd68970862fcc7"},
      {3, 0, "18bb0a4eb7d08166"}, {2, 0, "24568c837efff9ad"},
      {2, 0, "792a1cdf54ae2f22"},
  };
  for (std::size_t k = 1; k <= 5; ++k) {
    const auto got = run_pinned(pts, k, 100 + k);
    expect_pin(got, want[k - 1], "k=" + std::to_string(k));
  }
}

TEST(KMeansPinTest, EmptyClusterRepairStealsFromComputedCentroid) {
  // Seven features whose second update step empties a cluster; the repair
  // steals from a cluster whose centroid was already computed, which is
  // exactly when kmeans_final_shift is nonzero.
  const auto pool = feature_pool();
  std::vector<std::vector<double>> pts;
  for (const std::size_t id : {96, 16, 57, 73, 31, 1, 12})
    pts.push_back(pool[id]);
  const auto got = run_pinned(pts, 3, 107835);
  EXPECT_GT(std::bit_cast<double>(got.shift_bits), 0.0);
  expect_pin(got, {3, 0x400d3b7d1db6b319ull, "cff1029e3331b7ca"}, "repair");
}

TEST(KMeansPinTest, DuplicateFeaturesRepairUntilIterationCap) {
  // Three identical features among five points with k = 5: seeding must
  // pick a duplicate centroid, and the repairs keep trading points until
  // the iteration cap.
  const auto pool = feature_pool();
  std::vector<std::vector<double>> pts;
  for (const std::size_t id : {13, 13, 13, 97, 8}) pts.push_back(pool[id]);
  const auto got = run_pinned(pts, 5, 637);
  EXPECT_GT(std::bit_cast<double>(got.shift_bits), 0.0);
  expect_pin(got, {50, 0x39f4e00000000000ull, "139f24a18698bdfd"},
             "duplicates");
}

// ------------------------------------------------------ grid kernel oracles --

TEST(GridKernelOracle, FromSlowdownAndSlowdownMatchAtLoops) {
  for (const auto& platform : platforms()) {
    const auto& g = platform.grid;
    for (const auto& p : workload::parsec_suite()) {
      const auto s = p.surface(g);
      for (const std::int64_t ref_ns : {1LL, 7LL, 999'983LL, 123'456'789LL}) {
        const auto f = WcetFn::from_slowdown(Time::ns(ref_ns), s);
        ASSERT_EQ(f.grid(), g);
        for (unsigned c = g.c_min; c <= g.c_max; ++c)
          for (unsigned b = g.b_min; b <= g.b_max; ++b) {
            const double ns = static_cast<double>(ref_ns) * s.at(c, b);
            ASSERT_EQ(f.at(c, b).raw_ns(), static_cast<std::int64_t>(ns + 0.5))
                << platform.name << " " << p.name << " (" << c << "," << b
                << ")";
          }
        const auto back = f.slowdown();
        ASSERT_EQ(back.grid(), g);
        const double r = static_cast<double>(f.reference().raw_ns());
        for (unsigned c = g.c_min; c <= g.c_max; ++c)
          for (unsigned b = g.b_min; b <= g.b_max; ++b)
            ASSERT_EQ(bits_of(back.at(c, b)),
                      bits_of(static_cast<double>(f.at(c, b).raw_ns()) / r))
                << platform.name << " " << p.name << " (" << c << "," << b
                << ")";
      }
    }
  }
}

/// Theorem 2 budget at every cell, straight from the definition.
WcetFn regulated_reference(const Taskset& ts,
                           const std::vector<std::size_t>& idx) {
  Time pi = ts[idx.front()].period;
  for (const std::size_t i : idx) pi = util::min(pi, ts[i].period);
  std::int64_t den = 1;
  for (const std::size_t i : idx) den = std::lcm(den, ts[i].period / pi);
  const auto& g = ts[idx.front()].wcet.grid();
  WcetFn out(g);
  for (unsigned c = g.c_min; c <= g.c_max; ++c)
    for (unsigned b = g.b_min; b <= g.b_max; ++b) {
      __int128 num = 0;
      for (const std::size_t i : idx)
        num += static_cast<__int128>(ts[i].wcet.at(c, b).raw_ns()) *
               (den / (ts[i].period / pi));
      out.set(c, b, Time::ns(static_cast<std::int64_t>((num + den - 1) / den)));
    }
  return out;
}

void expect_regulated_matches(const Taskset& ts,
                              const std::vector<std::size_t>& idx,
                              const std::string& label) {
  const auto v = analysis::regulated_vcpu(ts, idx);
  const auto want = regulated_reference(ts, idx);
  const auto& g = want.grid();
  for (unsigned c = g.c_min; c <= g.c_max; ++c)
    for (unsigned b = g.b_min; b <= g.b_max; ++b)
      ASSERT_EQ(v.budget.at(c, b), want.at(c, b))
          << label << " (" << c << "," << b << ")";
}

TEST(GridKernelOracle, RegulatedVcpuMatchesAtLoop) {
  for (const auto& platform : platforms()) {
    const auto& g = platform.grid;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const auto ts = tasks_on(g, 0.5 + 0.4 * static_cast<double>(seed), seed);
      std::vector<std::size_t> all(ts.size());
      std::iota(all.begin(), all.end(), 0);
      // Every prefix exercises a different period mix and denominator.
      for (std::size_t n = 1; n <= all.size(); ++n)
        expect_regulated_matches(
            ts, std::vector<std::size_t>(all.begin(), all.begin() + n),
            platform.name + " seed " + std::to_string(seed) + " n " +
                std::to_string(n));
    }
    // Generated period menus are powers of two apart; periods 3x and 6x
    // apart make a denominator (6) that is not a power of two.
    auto mixed = tasks_on(g, 2.0, 99);
    ASSERT_GE(mixed.size(), 3u);
    mixed.resize(3);
    mixed[0].period = Time::ms(100);
    mixed[1].period = Time::ms(300);
    mixed[2].period = Time::ms(600);
    expect_regulated_matches(mixed, {0, 1, 2}, platform.name + " den 6");
  }
}

double utilization_reference(const std::vector<Vcpu>& vcpus,
                             const std::vector<std::size_t>& members,
                             unsigned c, unsigned b) {
  double u = 0;
  for (const std::size_t j : members)
    u += vcpus[j].budget.at(c, b).ratio(vcpus[j].period);
  return u;
}

bool schedulable_reference(const std::vector<Vcpu>& vcpus,
                           const std::vector<std::size_t>& members,
                           unsigned c, unsigned b) {
  std::int64_t l = 1;
  for (const std::size_t j : members) {
    const std::int64_t p = vcpus[j].period.raw_ns();
    const std::int64_t g = std::gcd(l, p);
    if (l / g > analysis::kPeriodLcmCap / p) {
      long double u = 0;
      for (const std::size_t m : members)
        u += static_cast<long double>(vcpus[m].budget.at(c, b).raw_ns()) /
             static_cast<long double>(vcpus[m].period.raw_ns());
      return u <= 1.0L;
    }
    l = l / g * p;
  }
  __int128 demand = 0;
  for (const std::size_t j : members)
    demand += static_cast<__int128>(vcpus[j].budget.at(c, b).raw_ns()) *
              (l / vcpus[j].period.raw_ns());
  return demand <= static_cast<__int128>(l);
}

/// Regulated VCPUs of a generated taskset, one per harmonic group of tasks.
std::vector<Vcpu> vcpus_on(const ResourceGrid& g, std::uint64_t seed) {
  std::vector<Vcpu> out;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const auto ts = tasks_on(g, 0.8, seed * 10 + s);
    for (std::size_t i = 0; i < ts.size(); ++i)
      out.push_back(analysis::regulated_vcpu(ts, std::vector<std::size_t>{i}));
  }
  return out;
}

/// Drives a CoreLoad through random adds, removes and probes, checking every
/// probe against the reference loops over the same membership.
void drive_core_load(const std::vector<Vcpu>& vcpus, const ResourceGrid& g,
                     std::uint64_t seed, const std::string& label) {
  CoreLoad cl(vcpus, g);
  std::vector<std::size_t> members;
  Rng rng(seed);
  for (int step = 0; step < 200; ++step) {
    const double r = rng.uniform01();
    if (r < 0.3 && members.size() < vcpus.size()) {
      const std::size_t v = rng.index(vcpus.size());
      cl.add(v);
      members.push_back(v);
    } else if (r < 0.4 && !members.empty()) {
      const std::size_t pos = rng.index(members.size());
      EXPECT_EQ(cl.remove_at(pos), members[pos]) << label;
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(pos));
    } else {
      const unsigned c =
          g.c_min + static_cast<unsigned>(rng.index(g.cache_levels()));
      const unsigned b =
          g.b_min + static_cast<unsigned>(rng.index(g.bw_levels()));
      ASSERT_EQ(cl.members(), members) << label;
      ASSERT_EQ(bits_of(cl.utilization(c, b)),
                bits_of(utilization_reference(vcpus, members, c, b)))
          << label << " step " << step << " (" << c << "," << b << ")";
      ASSERT_EQ(cl.schedulable(c, b),
                schedulable_reference(vcpus, members, c, b))
          << label << " step " << step << " (" << c << "," << b << ")";
    }
  }
}

TEST(GridKernelOracle, CoreLoadAccountingMatchesAtLoops) {
  for (const auto& platform : platforms())
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      drive_core_load(vcpus_on(platform.grid, seed), platform.grid, seed,
                      platform.name + " seed " + std::to_string(seed));
}

TEST(GridKernelOracle, CoreLoadFallbackModeMatchesAtLoops) {
  // Prime periods (ns) push the common multiple past kPeriodLcmCap, so the
  // core falls back to the non-incremental test part way through.
  for (const auto& platform : platforms()) {
    const auto& g = platform.grid;
    const std::int64_t primes[] = {999'983, 999'979, 999'961, 999'959,
                                   999'953, 999'931};
    std::vector<Vcpu> vcpus;
    Rng rng(7);
    for (const std::int64_t p : primes) {
      Vcpu v;
      v.period = Time::ns(p);
      v.budget = WcetFn(g);
      for (unsigned c = g.c_min; c <= g.c_max; ++c)
        for (unsigned b = g.b_min; b <= g.b_max; ++b)
          v.budget.set(c, b,
                       Time::ns(static_cast<std::int64_t>(
                           static_cast<double>(p) * 0.1 *
                           (1.0 + rng.uniform01() *
                                      static_cast<double>(g.c_max - c + 1)))));
      vcpus.push_back(v);
    }
    drive_core_load(vcpus, g, 11, platform.name + " fallback");
  }
}

// ------------------------------------------------------------ admission pin --

void add_state(const AdmissionState& st, Digest& d) {
  for (const auto& v : st.vcpus) {
    d.add(static_cast<std::uint64_t>(v.vm));
    d.add(static_cast<std::uint64_t>(v.period.raw_ns()));
    for (const std::size_t t : v.tasks) d.add(t);
    const auto& g = v.budget.grid();
    for (unsigned c = g.c_min; c <= g.c_max; ++c)
      for (unsigned b = g.b_min; b <= g.b_max; ++b)
        d.add(static_cast<std::uint64_t>(v.budget.at(c, b).raw_ns()));
  }
  const auto& m = st.mapping;
  d.add(m.schedulable);
  d.add(m.cores_used);
  for (std::size_t k = 0; k < m.vcpus_on_core.size(); ++k) {
    d.add(m.cache[k]);
    d.add(m.bw[k]);
    for (const std::size_t vi : m.vcpus_on_core[k]) d.add(vi);
  }
}

void add_events(const obs::DecisionLog& log, Digest& d) {
  for (const auto& e : log.events()) {
    d.add(static_cast<std::uint64_t>(e.kind));
    d.add(e.accepted);
    d.add(static_cast<std::uint64_t>(e.constraint));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.vm)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.entity)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.core)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.cache)));
    d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(e.bw)));
    d.add_double(e.value);
    d.add_double(e.margin);
  }
}

TEST(AdmissionPinTest, ChurnDecisionsEventsAndStates) {
  // A saturating admit/resize/remove churn on Platform A: the outcome
  // sequence, every decision event (placement probes, verdicts, with
  // their VCPU ids) and every committed state are pinned by digest.
  const auto platform = PlatformSpec::A();
  AdmissionState state;
  std::vector<int> live;
  Rng rng(2024);
  Digest events, states;
  std::string outcomes;
  util::AllocCounterScope counters;
  int next_vm = 0;
  for (int step = 0; step < 120; ++step) {
    const double r = rng.uniform01();
    obs::DecisionLog log;
    obs::DecisionLogScope scope(log);
    if (r < 0.25 && !live.empty()) {
      const std::size_t i = rng.index(live.size());
      state = remove_vm(state, live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      outcomes += 'd';
    } else {
      const bool resize = r < 0.4 && !live.empty();
      const int id = resize ? live[rng.index(live.size())] : next_vm++;
      auto tasks = tasks_on(platform.grid, 0.1 + 0.3 * rng.uniform01(),
                            5000 + static_cast<std::uint64_t>(step));
      for (auto& t : tasks) t.vm = id;
      VmAllocConfig vm;
      vm.request_id = step;
      Rng decision(900 + static_cast<std::uint64_t>(step));
      const auto res =
          resize ? resize_vm(state, tasks, id, platform, vm, decision)
                 : admit_vm(state, tasks, id, platform, vm, decision);
      EXPECT_EQ(res.request_id, step);
      if (res.admitted) {
        state = res.state;
        if (!resize) live.push_back(id);
      } else {
        EXPECT_TRUE(res.state.vcpus.empty());
      }
      outcomes +=
          resize ? (res.admitted ? 'R' : 'r') : (res.admitted ? 'A' : 'a');
    }
    add_events(log, events);
    add_state(state, states);
  }
  EXPECT_EQ(outcomes,
            "AdAAdAARRAAAdAAaadARAAaaddAAdRAadRAadAdAaAddAaAaadAaaaadRAadaddd"
            "RARAAdAraadAaRRaaardAaaaaaaraAdaaadaAadraaAaaaaaraaaddAr");
  EXPECT_EQ(events.hex(), "8319967a3685fb55");
  EXPECT_EQ(states.hex(), "b8bd249c657fce9f");
  EXPECT_EQ(counters.counters().admission_tests, 1426u);
  EXPECT_EQ(counters.counters().admission_passed, 540u);
  EXPECT_EQ(counters.counters().load_cache_hits, 1426u);
}

}  // namespace
}  // namespace vc2m::core

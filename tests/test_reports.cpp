// Strict JSON report readers and writers.
//
// Golden files: each writer reproduces tests/golden/reports/<name>.json
// byte for byte from the fixed reports below, and the reader reads each
// file back to the same bytes. On a mismatch the bytes written are left
// in the test's temporary directory for a diff.
//
// The single-byte mutation property: for each writer-produced report
// (serve, scenario, explain, bench), every
// single-byte mutation must either be refused by the reader (an error or a
// note) or read back into a report that re-serializes to the mutated
// bytes, up to layout and number spelling: the mutation only moved
// whitespace, respelled a number ("7" as "07", "0.5" as "5e-1"), or
// changed a value the format allows. A byte the reader ignores, a field it
// reads but drops, or a key order it silently re-sorts all fail the
// comparison. The comparison shares no code with the writers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "obs/explain.h"
#include "obs/json.h"
#include "scenario/report.h"
#include "service/report.h"
#include "service/service.h"
#include "service/trace_gen.h"
#include "util/error.h"

#ifndef VC2M_GOLDEN_DIR
#error "VC2M_GOLDEN_DIR must point at tests/golden"
#endif

namespace vc2m {
namespace {

// ---------------------------------------------------------------------------
// Fixed reports: every member set, every map and list with more than one
// entry where the format allows it.

service::ServeReport serve_report() {
  service::ServeReport r;
  r.git_rev = "0123abcd";
  r.trace = "poisson:requests=60,interarrival-us=300,util=0.1..0.4";
  r.platform = "A";
  r.seed = 7;
  r.deadline_us = 1000;
  r.shed_policy = "criticality";
  r.queue_cap = 16;
  r.max_retries = 3;
  r.backoff_us = 250;
  r.snapshot_every = 20;
  r.requests = 60;
  r.arrivals = 60;
  r.admitted = 20;
  r.rejected = 10;
  r.probe_rejected = 5;
  r.removed = 8;
  r.resized = 3;
  r.resize_rejected = 2;
  r.not_present = 4;
  r.deferred = 4;
  r.retries = 4;
  r.shed = 5;
  r.timed_out = 3;
  r.downgrades = 6;
  r.commits = 31;
  r.snapshots = 1;
  r.queue_max_depth = 9;
  r.backpressure = 12;
  r.decision_events = 480;
  r.decision_dropped = 2;
  r.latency_admitted_us = {31, 412.5, 18.25, 1990, 300, 880, 1200, 1990};
  r.latency_rejected_us = {24, 96.125, 3.5, 640, 60, 210, 400, 640};
  r.latency_deferred_us = {4, 1500.75, 1000.5, 2100, 1400, 2100, 2100, 2100};
  r.latency_shed_us = {};
  r.vms = 12;
  r.vcpus = 19;
  r.cores_used = 2;
  r.digest = "sched=1|cores=2|vhash=89abcdef01234567";
  return r;
}

scenario::ScenarioReport scenario_report() {
  scenario::ScenarioReport r;
  r.git_rev = "0123abcd";
  r.corpus = "scenarios";
  scenario::ScenarioRecord sim;
  sim.name = "fault-kill";
  sim.file = "fault-kill.json";
  sim.scenario_hash = "0f1e2d3c4b5a6978";
  sim.schedulable = true;
  sim.digest = "sched=1|cores=2|vhash=89abcdef01234567";
  sim.passed = true;
  sim.simulated = true;
  sim.jobs_released = 120;
  sim.jobs_completed = 118;
  sim.deadline_misses = 2;
  sim.faults_injected = 31;
  sim.jobs_killed = 4;
  sim.jobs_deferred = 5;
  sim.trace_events = 900;
  sim.trace_violations = 0;
  scenario::ScenarioRecord solve_only;
  solve_only.name = "infeasible-bw";
  solve_only.file = "infeasible-bw.json";
  solve_only.scenario_hash = "1122334455667788";
  solve_only.digest = "sched=0|cores=0";
  solve_only.failures = {"verdict: expected schedulable"};
  solve_only.rejection_constraints = {"bw_pool_exhausted"};
  r.records = {sim, solve_only};
  return r;
}

/// A report cut short: interrupted, holding one record that was not
/// simulated, with two failures and two rejection constraints.
scenario::ScenarioReport interrupted_scenario_report() {
  scenario::ScenarioReport r = scenario_report();
  r.interrupted = true;
  r.shard_index = 1;
  r.shard_count = 3;
  r.records.erase(r.records.begin());
  r.records[0].failures.push_back("digest: expected sched=1");
  r.records[0].rejection_constraints.push_back("core_limit");
  return r;
}

obs::ExplainReport explain_report() {
  obs::ExplainReport r;
  r.strategy = "ovf";
  r.git_rev = "0123abcd";
  r.config = {{"cores", "4"}, {"tasks", "7"}};
  r.schedulable = true;
  r.cores_used = 1;
  r.headroom.spare_cache = 8;
  r.headroom.spare_bw = 9;
  r.headroom.cores.push_back({0, 12, 11, 2, 0.8125, 0.1875, 3, 1});
  r.rejections.push_back({1, obs::DecisionConstraint::kBwPoolExhausted, 0.25,
                          "short by 0.25"});
  obs::DecisionEvent e;
  e.kind = obs::DecisionKind::kBudgetPoint;
  e.constraint = obs::DecisionConstraint::kNoFeasibleBudget;
  e.vm = 1;
  e.entity = 2;
  e.cache = 4;
  e.bw = 3;
  e.value = 12.5;
  e.margin = -0.75;
  r.events = {e, obs::DecisionEvent{}};
  r.events_dropped = 3;
  return r;
}

obs::BenchReport bench_report() {
  obs::BenchReport r;
  r.name = "unit";
  r.git_rev = "0123abcd";
  r.config = {{"platform", "A"}, {"seed", "42"}};
  r.counters = {{"dbf_evaluations", 8192}, {"vm_alloc_seconds", 0.125}};
  obs::PhaseStats solve{"solve", 9, 1.5, 0.25, {}};
  solve.children.push_back({"hv_alloc", 9, 1.25, 1.25, {}});
  r.phases.children.push_back(solve);
  r.histograms["solve_seconds"] = {100, 0.5, 0.125, 2, 0.5, 1, 1.5, 2};
  r.pool.workers.push_back({40, 3, 0.25, 17});
  return r;
}

/// Three levels of phases, siblings at two of them, two histograms and
/// two pool workers.
obs::BenchReport nested_bench_report() {
  obs::BenchReport r = bench_report();
  obs::PhaseStats& solve = r.phases.children[0];
  solve.children[0].children.push_back({"grant", 4, 0.5, 0.5, {}});
  solve.children[0].children.push_back({"migrate", 2, 0.25, 0.25, {}});
  solve.children.push_back({"vm_alloc", 9, 0.125, 0.125, {}});
  r.phases.children.push_back({"write", 1, 0.0625, 0.0625, {}});
  r.histograms["admit_seconds"] = {3, 1e-6, 5e-7, 2.5e-6, 1e-6, 2e-6, 2.5e-6,
                                   2.5e-6};
  r.pool.workers.push_back({38, 5, 0.5, 12});
  return r;
}

template <class Report>
std::string text_of(void (*write)(std::ostream&, const Report&),
                    const Report& r) {
  std::ostringstream os;
  write(os, r);
  return os.str();
}

std::string serve_text(const service::ServeReport& r) {
  return text_of(service::write_serve_report, r);
}
std::string scenario_text(const scenario::ScenarioReport& r) {
  return text_of(scenario::write_scenario_report, r);
}
std::string explain_text(const obs::ExplainReport& r) {
  return text_of(obs::write_explain_report, r);
}
std::string bench_text(const obs::BenchReport& r) {
  return text_of(obs::write_bench_report, r);
}

// ---------------------------------------------------------------------------
// Golden bytes

/// `text` must equal tests/golden/reports/<name>.json, and `round_trip`
/// (read, then write) must reproduce the file.
std::string golden_path(const std::string& name) {
  return std::string(VC2M_GOLDEN_DIR) + "/reports/" + name + ".json";
}

/// The golden file `name`, or "" when it is missing.
std::string golden_text(const std::string& name) {
  std::ifstream f(golden_path(name), std::ios::binary);
  std::ostringstream golden;
  golden << f.rdbuf();
  return golden.str();
}

using Reread = std::function<std::string(const std::string&)>;

void expect_golden(const std::string& name, const std::string& text,
                   const Reread& round_trip) {
  const std::string golden = golden_text(name);
  if (text != golden) {
    const std::string actual = testing::TempDir() + "/" + name + ".json";
    std::ofstream(actual, std::ios::binary) << text;
    ADD_FAILURE() << name << ": writer output differs from "
                  << golden_path(name)
                  << " (missing or changed); it was written to " << actual;
  }
  if (!golden.empty()) {
    EXPECT_EQ(round_trip(golden), golden) << name;
  }
}

std::string serve_round_trip(const std::string& s) {
  std::istringstream in(s);
  return serve_text(service::read_serve_report(in));
}
std::string scenario_round_trip(const std::string& s) {
  std::istringstream in(s);
  return scenario_text(scenario::read_scenario_report(in));
}
std::string explain_round_trip(const std::string& s) {
  std::istringstream in(s);
  return explain_text(obs::read_explain_report(in));
}
std::string bench_round_trip(const std::string& s) {
  std::istringstream in(s);
  return bench_text(obs::read_bench_report(in));
}

TEST(ReportGolden, ServeReport) {
  expect_golden("serve", serve_text(serve_report()), serve_round_trip);
  service::ServeReport r = serve_report();
  r.interrupted = true;
  r.arrivals = 41;
  expect_golden("serve-interrupted", serve_text(r), serve_round_trip);
}

TEST(ReportGolden, ScenarioReport) {
  expect_golden("scenario", scenario_text(scenario_report()),
                scenario_round_trip);
  expect_golden("scenario-interrupted",
                scenario_text(interrupted_scenario_report()),
                scenario_round_trip);
  expect_golden("scenario-empty", scenario_text({}), scenario_round_trip);
}

TEST(ReportGolden, ExplainReport) {
  expect_golden("explain", explain_text(explain_report()),
                explain_round_trip);
  obs::ExplainReport r;
  r.strategy = "flat";
  r.git_rev = "0123abcd";
  r.config = {{"cores", "2"}};
  r.headroom.spare_cache = 20;
  r.headroom.spare_bw = 20;
  r.events_dropped = 0;
  expect_golden("explain-empty", explain_text(r), explain_round_trip);
}

TEST(ReportGolden, BenchReport) {
  expect_golden("bench", bench_text(nested_bench_report()),
                bench_round_trip);
  obs::BenchReport r;
  r.name = "empty";
  r.git_rev = "0123abcd";
  expect_golden("bench-empty", bench_text(r), bench_round_trip);
}

// ---------------------------------------------------------------------------
// Required members

/// `text` with the first occurrence of `from` replaced by `to`.
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(ReportStrictness, EveryMemberTheWriterWritesIsRequired) {
  // Each line of a golden report that starts with a quote starts one
  // top-level member, which runs to the next such line or the report's
  // closing brace. The report without it must still parse, and be refused; the
  // one exception is "interrupted", which is written only when true.
  const std::pair<const char*, Reread> reports[] = {
      {"serve", serve_round_trip},
      {"serve-interrupted", serve_round_trip},
      {"scenario", scenario_round_trip},
      {"scenario-interrupted", scenario_round_trip},
      {"scenario-empty", scenario_round_trip},
      {"explain", explain_round_trip},
      {"explain-empty", explain_round_trip},
      {"bench", bench_round_trip},
      {"bench-empty", bench_round_trip}};
  for (const auto& [name, round_trip] : reports) {
    const std::string text = golden_text(name);
    ASSERT_FALSE(text.empty()) << name;
    std::size_t dropped = 0;
    for (std::size_t at = text.find("\n\""); at != std::string::npos;
         at = text.find("\n\"", at + 1)) {
      const std::size_t end =
          std::min(text.find("\n\"", at + 1), text.rfind("\n}"));
      std::string without = text;
      without.erase(at + 1, end - at);
      // The last member loses its place: drop the comma before it.
      if (without.compare(at + 1, 2, "}\n") == 0) without.erase(at - 1, 1);
      const std::string member = text.substr(at + 1, end - at - 1);
      ASSERT_NO_THROW(obs::json::parse(without, name)) << without;
      if (member.starts_with("\"interrupted\"")) continue;
      EXPECT_THROW(round_trip(without), util::Error) << name << ": " << member;
      ++dropped;
    }
    EXPECT_GE(dropped, 7u) << name;
  }
  // Nested members the writers always write, whatever the record holds.
  const std::string explain = golden_text("explain-empty");
  const std::string bench = golden_text("bench-empty");
  const std::string scenario = golden_text("scenario");
  const std::pair<std::string, Reread> nested[] = {
      {replaced(explain, ", \"cores\": []", ""), explain_round_trip},
      {replaced(bench, "{\"workers\": []}", "{}"), bench_round_trip},
      {replaced(scenario, ",\n   \"metrics\": {", ", \"x\": {"),
       scenario_round_trip},
      {replaced(golden_text("serve"), "\"shed\": {\"count\": 0, ",
                "\"shed\": {"),
       serve_round_trip}};
  for (const auto& [text, round_trip] : nested)
    EXPECT_THROW(round_trip(text), util::Error) << text;
}

TEST(ReportStrictness, InterruptedMayOnlyBePresentAsTrue) {
  // The writers leave "interrupted" out unless it is true, so a report
  // holding it as false would read back and rewrite to other bytes.
  const std::string scenario = golden_text("scenario-interrupted");
  const std::string serve = golden_text("serve-interrupted");
  for (const char* bad : {"false", "0", "null", "\"true\""}) {
    const std::string flag = std::string("\"interrupted\": ") + bad;
    EXPECT_THROW(scenario_round_trip(
                     replaced(scenario, "\"interrupted\": true", flag)),
                 util::Error)
        << bad;
    EXPECT_THROW(
        serve_round_trip(replaced(serve, "\"interrupted\": true", flag)),
        util::Error)
        << bad;
  }
}

// ---------------------------------------------------------------------------
// Single-byte mutations

bool number_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

/// `json` with whitespace outside strings dropped and every number token
/// respelled as "%.9g" of its value, the writers' precision. Strings are
/// kept byte for byte, escapes included.
std::string canonical(const std::string& json) {
  std::string out;
  for (std::size_t i = 0; i < json.size();) {
    const char c = json[i];
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      ++i;
    } else if (c == '"') {
      const std::size_t start = i++;
      while (i < json.size() && json[i] != '"') i += json[i] == '\\' ? 2 : 1;
      out.append(json, start, ++i - start);
    } else if (c == '-' || c == '.' || (c >= '0' && c <= '9')) {
      std::size_t end = i;
      while (end < json.size() && number_char(json[end])) ++end;
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.9g",
                    std::strtod(json.substr(i, end - i).c_str(), nullptr));
      out += buf;
      i = end;
    } else {
      out.push_back(c);
      ++i;
    }
  }
  return out;
}

/// Reads a report and writes it back; throws util::Error or appends to
/// `notes` when the reader refuses.
using RoundTrip =
    std::function<std::string(const std::string&, std::vector<std::string>*)>;

void expect_every_mutation_refused_or_exact(const std::string& text,
                                            const RoundTrip& round_trip) {
  std::vector<std::string> notes;
  ASSERT_EQ(round_trip(text, &notes), text);
  ASSERT_TRUE(notes.empty());
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < text.size(); ++i)
    for (int b = 0; b < 256; ++b) {
      std::string mutated = text;
      mutated[i] = static_cast<char>(b);
      if (mutated == text) continue;
      std::string back;
      notes.clear();
      try {
        back = round_trip(mutated, &notes);
      } catch (const util::Error&) {
        continue;
      }
      if (!notes.empty()) continue;
      ++accepted;
      if (back != mutated && canonical(back) != canonical(mutated))
        ADD_FAILURE() << "byte " << i << " ('" << text[i] << "') -> " << b
                      << " read back as\n"
                      << back << "\nfrom\n"
                      << mutated;
    }
  // Digit-for-digit substitutions and the like must still be accepted.
  EXPECT_GT(accepted, 0u);
}

TEST(ReportMutation, ServeReport) {
  service::ServiceConfig cfg;
  cfg.trace = service::parse_trace_spec(
      "poisson:requests=60,interarrival-us=300,util=0.1..0.4,"
      "remove-frac=0.3");
  cfg.seed = 7;
  const auto round_trip = [](const std::string& s,
                             std::vector<std::string>* notes) {
    std::istringstream in(s);
    return serve_text(service::read_serve_report(in, "serve report", notes));
  };
  expect_every_mutation_refused_or_exact(
      serve_text(service::run_service(cfg).report), round_trip);
  service::ServeReport interrupted = serve_report();
  interrupted.interrupted = true;
  expect_every_mutation_refused_or_exact(serve_text(interrupted), round_trip);
}

TEST(ReportMutation, ScenarioReport) {
  const auto round_trip = [](const std::string& s,
                             std::vector<std::string>* notes) {
    std::istringstream in(s);
    return scenario_text(
        scenario::read_scenario_report(in, "scenario report", notes));
  };
  expect_every_mutation_refused_or_exact(scenario_text(scenario_report()),
                                         round_trip);
  expect_every_mutation_refused_or_exact(
      scenario_text(interrupted_scenario_report()), round_trip);
}

TEST(ReportMutation, ExplainReport) {
  expect_every_mutation_refused_or_exact(
      explain_text(explain_report()),
      [](const std::string& s, std::vector<std::string>* notes) {
        std::istringstream in(s);
        return explain_text(obs::read_explain_report(in, notes));
      });
}

TEST(ReportMutation, BenchReport) {
  expect_every_mutation_refused_or_exact(
      bench_text(bench_report()),
      [](const std::string& s, std::vector<std::string>* notes) {
        std::istringstream in(s);
        return bench_text(obs::read_bench_report(in, notes));
      });
}

}  // namespace
}  // namespace vc2m

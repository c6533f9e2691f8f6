// Strict JSON report readers: the single-byte mutation property.
//
// For each writer-produced report (serve, scenario, explain, bench), every
// single-byte mutation must either be refused by the reader (an error or a
// note) or read back into a report that re-serializes to the mutated
// bytes, up to layout and number spelling: the mutation only moved
// whitespace, respelled a number ("7" as "07", "0.5" as "5e-1"), or
// changed a value the format allows. A byte the reader ignores, a field it
// reads but drops, or a key order it silently re-sorts all fail the
// comparison. The comparison shares no code with the writers.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_report.h"
#include "obs/explain.h"
#include "scenario/report.h"
#include "service/report.h"
#include "service/service.h"
#include "service/trace_gen.h"
#include "util/error.h"

namespace vc2m {
namespace {

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
  std::ostringstream os;
  service::write_serve_report(os, service::run_service(cfg).report);
  expect_every_mutation_refused_or_exact(
      os.str(), [](const std::string& s, std::vector<std::string>* notes) {
        std::istringstream in(s);
        std::ostringstream out;
        service::write_serve_report(
            out, service::read_serve_report(in, "serve report", notes));
        return out.str();
      });
}

TEST(ReportMutation, ScenarioReport) {
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
  std::ostringstream os;
  scenario::write_scenario_report(os, r);
  expect_every_mutation_refused_or_exact(
      os.str(), [](const std::string& s, std::vector<std::string>* notes) {
        std::istringstream in(s);
        std::ostringstream out;
        scenario::write_scenario_report(
            out, scenario::read_scenario_report(in, "scenario report", notes));
        return out.str();
      });
}

TEST(ReportMutation, ExplainReport) {
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
  std::ostringstream os;
  obs::write_explain_report(os, r);
  expect_every_mutation_refused_or_exact(
      os.str(), [](const std::string& s, std::vector<std::string>* notes) {
        std::istringstream in(s);
        std::ostringstream out;
        obs::write_explain_report(out, obs::read_explain_report(in, notes));
        return out.str();
      });
}

TEST(ReportMutation, BenchReport) {
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
  std::ostringstream os;
  obs::write_bench_report(os, r);
  expect_every_mutation_refused_or_exact(
      os.str(), [](const std::string& s, std::vector<std::string>* notes) {
        std::istringstream in(s);
        std::ostringstream out;
        obs::write_bench_report(out, obs::read_bench_report(in, notes));
        return out.str();
      });
}

}  // namespace
}  // namespace vc2m

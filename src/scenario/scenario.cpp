#include "scenario/scenario.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>

#include "core/strategy.h"
#include "model/platform.h"
#include "obs/decision_log.h"
#include "obs/json.h"
#include "scenario/digest.h"
#include "scenario/report.h"
#include "sim/enforcement.h"
#include "sim/faults.h"
#include "util/error.h"
#include "util/file.h"
#include "util/names.h"

namespace vc2m::scenario {

namespace {

using obs::json::kind_name;
using obs::json::Value;
using Kind = Value::Kind;

/// Semantic-layer errors mirror the parser's own format: the source name,
/// what went wrong, and the byte offset of the offending token.
[[noreturn]] void fail_at(const std::string& source, const std::string& msg,
                          std::size_t offset) {
  std::ostringstream os;
  os << source << ": " << msg << " at offset " << offset;
  throw util::Error(os.str());
}

/// Strict object reader: every member must be claimed (claim() and the
/// readers built on it); finish() rejects whatever is left, pointing at
/// its key.
class ObjectReader {
 public:
  ObjectReader(const Value& v, const std::string& source,
               const std::string& what)
      : v_(v), source_(source), what_(what) {
    if (v.kind != Kind::kObject)
      fail_at(source_, what_ + " must be an object, got " +
                           kind_name(v.kind), v.offset);
  }

  const Value* claim(const std::string& key, Kind kind) {
    const Value* m = v_.find(key);
    if (!m) return nullptr;
    claimed_.insert(key);
    if (m->kind != kind)
      fail_at(source_, what_ + " key '" + key + "' must be a " +
                           kind_name(kind) + ", got " + kind_name(m->kind),
              m->offset);
    return m;
  }

  std::string string_or(const std::string& key, const std::string& dflt) {
    const Value* m = claim(key, Kind::kString);
    return m ? m->str : dflt;
  }

  std::string require_string(const std::string& key) {
    const Value* m = claim(key, Kind::kString);
    if (!m)
      fail_at(source_, what_ + " is missing required string key '" + key +
                           "'", v_.offset);
    return m->str;
  }

  double require_number(const std::string& key) {
    const Value* m = claim(key, Kind::kNumber);
    if (!m)
      fail_at(source_, what_ + " is missing required number key '" + key +
                           "'", v_.offset);
    return m->number;
  }

  /// A count (a non-negative integer below 2^53), or `dflt` when absent.
  std::uint64_t count_or(const std::string& key, std::uint64_t dflt) {
    const Value* m = claim(key, Kind::kNumber);
    if (!m) return dflt;
    if (const auto v = m->as_count()) return *v;
    fail_at(source_, what_ + " key '" + key +
                         "' must be a non-negative integer below 2^53",
            m->offset);
  }

  /// An integer in [1, cap], or `dflt` when absent. The bound check runs
  /// before any cast, so a value past INT_MAX (e.g. 2^32 + 1) fails loudly
  /// instead of wrapping into range.
  int int_or(const std::string& key, int dflt, int cap) {
    const Value* m = claim(key, Kind::kNumber);
    if (!m) return dflt;
    if (const auto v = m->as_int<int>(1, cap)) return *v;
    fail_at(source_, what_ + " key '" + key + "' must be an integer in "
                         "1.." + std::to_string(cap), m->offset);
  }

  bool has(const std::string& key) const { return v_.find(key) != nullptr; }

  /// Reject every member no claim() touched — the unknown-key gate.
  void finish() const {
    for (const auto& [key, member] : v_.object)
      if (!claimed_.count(key))
        fail_at(source_, what_ + " has unknown key '" + key + "'",
                member.key_offset);
  }

  const Value& raw() const { return v_; }

 private:
  const Value& v_;
  const std::string& source_;
  std::string what_;
  std::set<std::string> claimed_;
};

WorkloadSpec parse_workload(const Value& v, const std::string& source,
                            const std::string& base_dir) {
  ObjectReader r(v, source, "'workload'");
  WorkloadSpec w;
  if (r.has("file")) {
    w.kind = WorkloadSpec::Kind::kFile;
    const std::string rel = r.require_string("file");
    if (rel.empty())
      fail_at(source, "'workload' key 'file' must not be empty", v.offset);
    std::filesystem::path p(rel);
    w.file = p.is_absolute() || base_dir.empty()
                 ? rel
                 : (std::filesystem::path(base_dir) / p).string();
    r.finish();
    return w;
  }
  w.kind = WorkloadSpec::Kind::kGenerate;
  w.util = r.require_number("util");
  if (!(w.util > 0))
    fail_at(source, "'workload' key 'util' must be positive", v.offset);
  const std::string dist = r.string_or("dist", "uniform");
  if (!workload::util_dist_from_string(dist, w.dist))
    fail_at(source, "'workload' key 'dist' must be one of "
                    "uniform|light|medium|heavy, got '" + dist + "'",
            v.find("dist")->offset);
  w.vms = r.int_or("vms", 1, kMaxVms);
  r.finish();
  return w;
}

SimulateSpec parse_simulate(const Value& v, const std::string& source) {
  ObjectReader r(v, source, "'simulate'");
  SimulateSpec s;
  s.hyperperiods = r.int_or("hyperperiods", 3, kMaxHyperperiods);
  r.finish();
  return s;
}

Expectation parse_expect(const Value& v, const std::string& source) {
  ObjectReader r(v, source, "'expect'");
  Expectation e;
  const std::string verdict = r.require_string("verdict");
  if (!util::enum_from_name(kVerdictNames, verdict, e.schedulable))
    fail_at(source, "'expect' key 'verdict' must be schedulable or "
                    "unschedulable, got '" + verdict + "'",
            v.find("verdict")->offset);
  e.digest = r.string_or("digest", "");
  if (!e.digest.empty() && !is_solve_digest(e.digest))
    fail_at(source, "'expect' key 'digest' must be a solve digest "
                    "(sched=...), got '" + e.digest + "'",
            v.find("digest")->offset);
  if (const Value* m = r.claim("trace_clean", Kind::kBool))
    e.trace_clean = m->boolean;
  if (r.has("min_faults_injected"))
    e.min_faults_injected = r.count_or("min_faults_injected", 0);
  if (r.has("max_deadline_misses"))
    e.max_deadline_misses = r.count_or("max_deadline_misses", 0);
  if (const Value* m = r.claim("rejection_constraints", Kind::kArray)) {
    for (const Value& item : m->array) {
      if (item.kind != Kind::kString)
        fail_at(source, "'expect' key 'rejection_constraints' must hold "
                        "strings", item.offset);
      obs::DecisionConstraint c;
      if (!util::enum_from_name(obs::kDecisionConstraintNames, item.str, c) ||
          c == obs::DecisionConstraint::kNone)
        fail_at(source, "'expect' names unknown rejection constraint '" +
                            item.str + "'", item.offset);
      e.rejection_constraints.push_back(item.str);
    }
  }
  r.finish();
  return e;
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  return std::all_of(s.begin(), s.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
  });
}

}  // namespace

Scenario load_scenario(const std::string& text, const std::string& source) {
  const Value root = obs::json::parse(text, source);
  ObjectReader r(root, source, "scenario");

  Scenario sc;
  sc.source = source;
  sc.content_hash = text_digest(text);
  const std::string schema = r.require_string("schema");
  if (schema != kScenarioSchema)
    fail_at(source, "unsupported scenario schema '" + schema + "' (want " +
                        std::string(kScenarioSchema) + ")",
            root.find("schema")->offset);

  sc.name = r.require_string("name");
  if (!valid_name(sc.name))
    fail_at(source, "'name' must match [a-z0-9-]+, got '" + sc.name + "'",
            root.find("name")->offset);
  sc.description = r.string_or("description", "");

  sc.platform = r.string_or("platform", "A");
  if (!model::platform_from_name(sc.platform))
    fail_at(source, "'platform' must be A, B, or C, got '" + sc.platform +
                        "'", root.find("platform")->offset);

  sc.solution = r.string_or("solution", "flat");
  if (!core::StrategyRegistry::instance().find(sc.solution))
    fail_at(source, "'solution' names no registered strategy: '" +
                        sc.solution + "'", root.find("solution")->offset);

  sc.seed = r.count_or("seed", 42);

  const Value* wl = r.claim("workload", Kind::kObject);
  if (!wl)
    fail_at(source, "scenario is missing required object key 'workload'",
            root.offset);
  std::string base_dir;
  if (!source.empty()) {
    std::error_code ec;
    base_dir = std::filesystem::path(source).parent_path().string();
  }
  sc.workload = parse_workload(*wl, source, base_dir);

  sc.faults = r.string_or("faults", "");
  if (!sc.faults.empty()) {
    try {
      (void)sim::parse_fault_spec(sc.faults);
    } catch (const util::Error& e) {
      fail_at(source, std::string("'faults': ") + e.what(),
              root.find("faults")->offset);
    }
  }

  sc.policy = r.string_or("policy", "strict");
  if (!sim::enforcement_policy_from_string(sc.policy))
    fail_at(source, "'policy' must be strict|kill|throttle|degrade, got '" +
                        sc.policy + "'", root.find("policy")->offset);

  if (const Value* s = r.claim("simulate", Kind::kObject))
    sc.simulate = parse_simulate(*s, source);

  const Value* ex = r.claim("expect", Kind::kObject);
  if (!ex)
    fail_at(source, "scenario is missing required object key 'expect'",
            root.offset);
  sc.expect = parse_expect(*ex, source);
  r.finish();

  // Cross-field semantics: fail at load, not halfway through a run.
  if (sc.simulate && !sc.expect.schedulable)
    fail_at(source, "'simulate' requires an expected verdict of "
                    "schedulable (nothing to deploy otherwise)", ex->offset);
  if (!sc.simulate &&
      (sc.expect.trace_clean || sc.expect.min_faults_injected ||
       sc.expect.max_deadline_misses))
    fail_at(source, "'expect' has runtime expectations (trace_clean / "
                    "min_faults_injected / max_deadline_misses) but the "
                    "scenario has no 'simulate' block", ex->offset);
  if (sc.expect.min_faults_injected && sc.faults.empty())
    fail_at(source, "'expect' key 'min_faults_injected' requires a "
                    "'faults' plan", ex->offset);
  if (!sc.expect.rejection_constraints.empty() && sc.expect.schedulable)
    fail_at(source, "'expect' key 'rejection_constraints' requires an "
                    "unschedulable verdict", ex->offset);
  return sc;
}

Scenario load_scenario_file(const std::string& path) {
  std::ostringstream buf;
  buf << util::open_input_file(path, "scenario file").rdbuf();
  return load_scenario(buf.str(), path);
}

std::vector<Scenario> load_corpus(const std::vector<std::string>& files) {
  std::vector<Scenario> all;
  all.reserve(files.size());
  std::set<std::string> names;
  for (const auto& file : files) {
    Scenario sc = load_scenario_file(file);
    VC2M_CHECK_MSG(names.insert(sc.name).second,
                   "duplicate scenario name '" << sc.name << "' (in "
                                               << file << ")");
    all.push_back(std::move(sc));
  }
  return all;
}

std::vector<std::string> discover_scenario_files(const std::string& path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".json")
        files.push_back(entry.path().string());
    }
    if (ec)
      throw util::Error("cannot list scenario directory '" + path +
                        "': " + ec.message());
    if (files.empty())
      throw util::Error("scenario directory '" + path +
                        "' holds no *.json files");
    std::sort(files.begin(), files.end());
    return files;
  }
  if (!fs::exists(path, ec))
    throw util::Error("scenario path '" + path + "' does not exist");
  return {path};
}

}  // namespace vc2m::scenario

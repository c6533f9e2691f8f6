#include "workload/taskset_io.h"

#include <fstream>
#include <optional>
#include <set>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/parse.h"
#include "util/record.h"
#include "workload/parsec.h"

namespace vc2m::workload {
namespace {

/// Carries "where are we" through a CSV parse; fail() formats
/// `<source>:<line>: <what>: <line text>`, so a user can fix a hand-edited
/// file without bisecting it.
struct ParseContext {
  std::string source;
  std::size_t lineno = 0;
  std::string line;

  [[noreturn]] void fail(const std::string& what) const {
    throw util::Error(source + ":" + std::to_string(lineno) + ": " + what +
                      ": '" + line + "'");
  }
};

/// Parse one whole field as T: a finite double or an in-range integer, in
/// the strict grammar of util/parse.h (no whitespace, no '+', no trailing
/// garbage, no "nan"/"inf", no "-1" wrapped into unsigned).
template <class T>
T parse_field(const ParseContext& ctx, std::string_view s,
              const char* field) {
  std::optional<T> v;
  if constexpr (std::is_floating_point_v<T>)
    v = util::try_double(s);
  else
    v = util::try_int<T>(s);
  if (!v)
    ctx.fail(std::string("bad ") + field + " field '" + std::string(s) + "'");
  return *v;
}

}  // namespace

void write_taskset_csv(std::ostream& os, const model::Taskset& tasks) {
  os << "vm,period_ms,ref_wcet_ms,benchmark\n";
  for (const auto& t : tasks) {
    VC2M_CHECK_MSG(!t.label.empty(), "task lacks a benchmark label");
    os << t.vm << ',' << t.period.to_ms() << ','
       << t.reference_wcet().to_ms() << ',' << t.label << '\n';
  }
}

model::Taskset read_taskset_csv(std::istream& is,
                                const model::ResourceGrid& grid,
                                const std::string& source) {
  grid.validate();
  model::Taskset tasks;
  std::set<std::string> seen_rows;
  ParseContext ctx{source, 0, {}};
  std::string line;
  while (std::getline(is, line)) {
    ++ctx.lineno;
    ctx.line = line;
    if (line.empty() || line[0] == '#') continue;
    if (line.find("period_ms") != std::string::npos) continue;  // header

    const auto fields = util::split(line, ',');
    if (fields.size() != 4)
      ctx.fail("expected 4 fields (vm,period_ms,ref_wcet_ms,benchmark), got " +
               std::to_string(fields.size()));

    const int vm = parse_field<int>(ctx, fields[0], "vm");
    const auto period_ms = parse_field<double>(ctx, fields[1], "period_ms");
    const auto wcet_ms = parse_field<double>(ctx, fields[2], "ref_wcet_ms");
    const std::string bench(fields[3]);
    if (vm < 0) ctx.fail("negative vm id");
    if (period_ms <= 0 || wcet_ms <= 0 || wcet_ms > period_ms)
      ctx.fail("implausible task parameters (need 0 < ref_wcet_ms <= "
               "period_ms)");
    if (bench.empty()) ctx.fail("empty benchmark field");
    if (!seen_rows.insert(line).second) ctx.fail("duplicate task row");

    const ParsecProfile* profile = nullptr;
    try {
      profile = &find_profile(bench);
    } catch (const util::Error& e) {
      ctx.fail(e.what());
    }
    model::Task t;
    t.vm = vm;
    t.period = util::Time::ns(static_cast<std::int64_t>(period_ms * 1e6));
    const auto ref =
        util::Time::ns(static_cast<std::int64_t>(wcet_ms * 1e6 + 0.5));
    t.wcet = model::WcetFn::from_slowdown(ref, profile->surface(grid));
    t.max_wcet = util::Time::ns(static_cast<std::int64_t>(
        static_cast<double>(ref.raw_ns()) * profile->max_slowdown(grid)));
    t.label = bench;
    tasks.push_back(std::move(t));
  }
  if (tasks.empty())
    throw util::Error(source + ": taskset CSV contained no tasks");
  return tasks;
}

model::Taskset read_taskset_csv(const std::string& path,
                                const model::ResourceGrid& grid) {
  std::ifstream f(path);
  if (!f.good()) throw util::Error("cannot open " + path);
  return read_taskset_csv(f, grid, path);
}

}  // namespace vc2m::workload

#include "workload/profile_io.h"

#include <fstream>
#include <vector>

#include "util/error.h"
#include "util/file.h"
#include "util/record.h"
#include "workload/csv_field.h"

namespace vc2m::workload {

void write_surface_csv(std::ostream& os, const model::WcetFn& surface) {
  VC2M_CHECK(!surface.empty());
  const auto& g = surface.grid();
  os << "c,b,wcet_ms\n";
  for (unsigned c = g.c_min; c <= g.c_max; ++c)
    for (unsigned b = g.b_min; b <= g.b_max; ++b)
      os << c << ',' << b << ',' << surface.at(c, b).to_ms() << '\n';
}

void write_surface_csv(const std::string& path,
                       const model::WcetFn& surface) {
  auto f = util::open_output_file(path, "WCET surface CSV");
  write_surface_csv(f, surface);
  util::close_output_file(f, path, "WCET surface CSV");
}

model::WcetFn read_surface_csv(std::istream& is,
                               const model::ResourceGrid& grid,
                               const std::string& source) {
  grid.validate();
  model::WcetFn surface(grid);
  std::vector<bool> seen(grid.size(), false);
  std::vector<std::size_t> seen_line(grid.size(), 0);

  detail::ParseContext ctx{source, 0, {}};
  std::string line;
  while (std::getline(is, line)) {
    ++ctx.lineno;
    ctx.line = line;
    if (line.empty() || line[0] == '#') continue;
    if (line.find("wcet_ms") != std::string::npos) continue;  // header

    const auto fields = util::split(line, ',');
    if (fields.size() != 3)
      ctx.fail("expected 3 fields (c,b,wcet_ms), got " +
               std::to_string(fields.size()));

    const auto c = detail::parse_field<unsigned>(ctx, fields[0], "c");
    const auto b = detail::parse_field<unsigned>(ctx, fields[1], "b");
    const auto wcet_ms = detail::parse_field<double>(ctx, fields[2], "wcet_ms");
    if (!grid.contains(c, b)) ctx.fail("surface point outside the grid");
    if (wcet_ms <= 0) ctx.fail("non-positive WCET");
    const std::size_t idx = grid.index(c, b);
    if (seen[idx])
      ctx.fail("duplicate surface point (first at line " +
               std::to_string(seen_line[idx]) + ")");
    seen[idx] = true;
    seen_line[idx] = ctx.lineno;
    surface.set(c, b,
                util::Time::ns(static_cast<std::int64_t>(wcet_ms * 1e6 + 0.5)));
  }

  for (unsigned c = grid.c_min; c <= grid.c_max; ++c)
    for (unsigned b = grid.b_min; b <= grid.b_max; ++b)
      if (!seen[grid.index(c, b)])
        throw util::Error(source + ": surface CSV missing point (" +
                          std::to_string(c) + "," + std::to_string(b) + ")");

  if (!surface.monotone_nonincreasing())
    throw util::Error(
        source +
        ": surface is not monotone non-increasing in cache/bandwidth — "
        "measurement noise must be smoothed before import");
  return surface;
}

model::WcetFn read_surface_csv(const std::string& path,
                               const model::ResourceGrid& grid) {
  std::ifstream f(path);
  if (!f.good()) throw util::Error("cannot open " + path);
  return read_surface_csv(f, grid, path);
}

}  // namespace vc2m::workload

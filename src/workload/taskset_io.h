// Taskset serialization: the CSV exchange format used by the vc2m CLI.
//
// One row per task: `vm,period_ms,ref_wcet_ms,benchmark`. The benchmark
// column names a PARSEC profile; on load, the task's WCET surface is
// reconstructed from the profile's slowdown vectors scaled to the given
// reference WCET, and its maximum WCET from the profile's s_max — i.e. the
// format stores the §5.1 generative parameters, not the dense surface.
#pragma once

#include <iosfwd>
#include <string>

#include "model/resource_grid.h"
#include "model/task.h"

namespace vc2m::workload {

/// Write `tasks` as CSV (with header). Tasks must carry PARSEC labels.
void write_taskset_csv(std::ostream& os, const model::Taskset& tasks);

/// Parse a CSV taskset; WCET surfaces are rebuilt over `grid`. Throws
/// util::Error on malformed rows, unknown benchmarks, or empty input — every
/// message carries `source` (the file name for the path overload) and the
/// 1-based line number. Numeric fields are parsed strictly: trailing
/// characters, NaN/inf, and negative ids are rejected, as are exact
/// duplicate task rows. Lines starting with '#' and the header are ignored.
model::Taskset read_taskset_csv(std::istream& is,
                                const model::ResourceGrid& grid,
                                const std::string& source = "<taskset csv>");
model::Taskset read_taskset_csv(const std::string& path,
                                const model::ResourceGrid& grid);

}  // namespace vc2m::workload

// Strict CSV field parsing shared by the taskset / surface readers.
//
// Fields follow the strict grammar of util/parse.h: no whitespace, no '+',
// no trailing garbage ("5x"), no non-finite values ("nan", "inf"), no
// negative values wrapped into unsigned ("-1"). Every failure throws
// util::Error with the source name, 1-based line number, and offending
// line, so a user can fix a hand-edited file without bisecting it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/error.h"
#include "util/parse.h"

namespace vc2m::workload::detail {

/// Carries "where are we" through a CSV parse; fail() formats
/// `<source>:<line>: <what>: <line text>`.
struct ParseContext {
  std::string source;
  std::size_t lineno = 0;
  std::string line;

  [[noreturn]] void fail(const std::string& what) const {
    throw util::Error(source + ":" + std::to_string(lineno) + ": " + what +
                      ": '" + line + "'");
  }
};

/// Parse one whole field as T: a finite double or an in-range integer.
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

}  // namespace vc2m::workload::detail

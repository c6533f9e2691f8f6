// The one strict scalar grammar behind every number vc2m reads back: journal
// records, metrics timelines, span dumps, snapshots, trace and fault specs,
// CSV inputs, and the CLI and bench flags.
//
//   unsigned  [0-9]+
//   signed    -?[0-9]+, except that zero carries no sign ("-0" is rejected)
//   double    the std::from_chars decimal form (no '+', no hex), finite
//   hex16     exactly 16 lowercase hex digits, the inverse of util::hex16
//
// The whole token must be consumed and the value must be in range. What the
// libc parsers tolerate — leading whitespace, '+', "0x", trailing bytes, a
// '-' wrapped into an unsigned, overflow clamped to the maximum — is
// rejected. Leading zeros are accepted ("007" is 7).
//
// Each scalar comes in two forms: try_*() returns nullopt for callers that
// report their own error (the CLI exits 2), parse_*() throws util::Error
// "<what>: bad number '<token>'".
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.h"

namespace vc2m::util {

/// An integer of type Int in [lo, hi].
template <std::integral Int>
std::optional<Int> try_int(std::string_view s,
                           Int lo = std::numeric_limits<Int>::min(),
                           Int hi = std::numeric_limits<Int>::max()) {
  // from_chars already refuses whitespace, '+', and (for unsigned Int) '-'.
  Int v{};
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end || v < lo || v > hi) return std::nullopt;
  if (v == 0 && s.front() == '-') return std::nullopt;
  return v;
}

inline std::optional<std::uint64_t> try_u64(std::string_view s) {
  return try_int<std::uint64_t>(s);
}

inline std::optional<std::int64_t> try_i64(std::string_view s) {
  return try_int<std::int64_t>(s);
}

/// A finite double.
inline std::optional<double> try_double(std::string_view s) {
  double v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc{} || p != end || !std::isfinite(v)) return std::nullopt;
  return v;
}

/// Exactly 16 lowercase hex digits.
inline std::optional<std::uint64_t> try_hex16(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    const int d = c >= '0' && c <= '9'   ? c - '0'
                  : c >= 'a' && c <= 'f' ? c - 'a' + 10
                                         : -1;
    if (d < 0) return std::nullopt;
    v = v << 4 | static_cast<std::uint64_t>(d);
  }
  return v;
}

[[noreturn]] inline void bad_number(std::string_view s, std::string_view what) {
  throw Error(std::string(what) + ": bad number '" + std::string(s) + "'");
}

template <std::integral Int>
Int parse_int(std::string_view s, std::string_view what,
              Int lo = std::numeric_limits<Int>::min(),
              Int hi = std::numeric_limits<Int>::max()) {
  if (const auto v = try_int<Int>(s, lo, hi)) return *v;
  bad_number(s, what);
}

inline std::uint64_t parse_u64(std::string_view s, std::string_view what) {
  return parse_int<std::uint64_t>(s, what);
}

inline std::int64_t parse_i64(std::string_view s, std::string_view what) {
  return parse_int<std::int64_t>(s, what);
}

inline double parse_double(std::string_view s, std::string_view what) {
  if (const auto v = try_double(s)) return *v;
  bad_number(s, what);
}

inline std::uint64_t parse_hex16(std::string_view s, std::string_view what) {
  if (const auto v = try_hex16(s)) return *v;
  bad_number(s, what);
}

}  // namespace vc2m::util

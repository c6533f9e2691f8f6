// The one reader for vc2m's `key=value|key=value` record payloads — journal
// records, metrics samples, request spans, and the `<schema>|config=…|…`
// headers of the framed files — and for the space-separated number lists
// inside histograms and snapshots.
//
// A FieldReader splits its text once and hands the fields out in order:
// next() the raw field, value(key) the value of a field that must read
// `key=`, and typed forms of both built on util/parse.h. Every mismatch —
// field count, a key out of place, a bad number, a field read past the
// end, a field left over — throws util::Error prefixed with `what`.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"
#include "util/parse.h"

namespace vc2m::util {

/// `text` split at every `sep`: n separators give n + 1 fields.
inline std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t p; (p = text.find(sep, start)) != std::string_view::npos;
       start = p + 1)
    out.push_back(text.substr(start, p - start));
  out.push_back(text.substr(start));
  return out;
}

/// Views `text`, which must outlive the reader.
class FieldReader {
 public:
  FieldReader(std::string_view text, char sep, std::string_view what)
      : fields_(split(text, sep)), what_(what) {}

  /// Require exactly `n` fields in all.
  void expect_fields(std::size_t n) const {
    if (fields_.size() != n)
      fail("want " + std::to_string(n) + " fields, got " +
           std::to_string(fields_.size()));
  }

  std::size_t left() const { return fields_.size() - next_; }

  /// The next field, verbatim.
  std::string_view next() {
    if (next_ == fields_.size())
      fail("missing field " + std::to_string(next_));
    return fields_[next_++];
  }

  /// The value of the next field, which must read `key=<value>`.
  std::string_view value(std::string_view key) {
    const std::string_view f = next();
    if (!f.starts_with(key) || f.size() == key.size() ||
        f[key.size()] != '=')
      fail("field " + std::to_string(next_ - 1) + " must be '" +
           std::string(key) + "=...'");
    return f.substr(key.size() + 1);
  }

  /// The next field (or `key`'s value) as an integer of type Int.
  template <std::integral Int>
  Int integer() {
    return number<Int>(next(), "value");
  }
  template <std::integral Int>
  Int integer(std::string_view key) {
    return number<Int>(value(key), key);
  }
  std::uint64_t u64() { return integer<std::uint64_t>(); }
  std::uint64_t u64(std::string_view key) {
    return integer<std::uint64_t>(key);
  }
  std::int64_t i64() { return integer<std::int64_t>(); }
  std::int64_t i64(std::string_view key) { return integer<std::int64_t>(key); }

  /// Every field must have been read.
  void finish() const {
    if (left() != 0)
      fail(std::to_string(left()) + " unexpected trailing field(s)");
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(what_ + ": " + msg);
  }

 private:
  template <std::integral Int>
  Int number(std::string_view s, std::string_view name) const {
    if (const auto v = try_int<Int>(s)) return *v;
    fail("bad " + std::string(name) + " '" + std::string(s) + "'");
  }

  std::vector<std::string_view> fields_;
  std::size_t next_ = 0;
  std::string what_;
};

/// A `key=value|...` record that must hold exactly `fields` fields.
inline FieldReader read_record(std::string_view payload, std::size_t fields,
                               std::string_view what) {
  FieldReader r(payload, '|', what);
  r.expect_fields(fields);
  return r;
}

}  // namespace vc2m::util

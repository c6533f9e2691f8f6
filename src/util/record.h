// The one reader and writer for vc2m's text records: the
// `key=value|key=value` payloads of journal records, metrics samples and
// request spans, the `<schema>|config=…|…` headers of the framed files,
// the lines of a service snapshot, and the space-separated number lists
// inside histograms and snapshots.
//
// A FieldReader splits its text once and hands the fields out in order:
// next() the raw field, value(key) the value of a field that must read
// `key=`, and typed forms of both built on util/parse.h. Every mismatch —
// field count, a key out of place, a bad number, a field read past the
// end, a field left over — throws util::Error prefixed with `what`.
//
// A record type declares its fields once, in wire order, with a function
// found by argument-dependent lookup:
//
//   template <util::RecordOf<Span> R, class V>
//   void fields(R& r, V&& v) {
//     v("seq", r.seq);
//     v("kind", util::Named{r.kind, kKindNames});
//   }
//
// R is the record or its const form, so the same list drives write_record
// (`key=value` joined by the record's separator) and parse_record (the
// strict reader: the fields are read in the list's order, each key in its
// place, numbers parse strictly, nothing may be left over). A value is an
// integer, a non-empty string, a util::Time (its nanoseconds), a
// LogHistogram (its text()), an enum through its name table (Named), a
// nested record as its bare values (Values), or a list of records, one
// tagged line each (Lines).
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/log_histogram.h"
#include "util/names.h"
#include "util/parse.h"
#include "util/time.h"

namespace vc2m::util {

/// `text` split at every `sep`: n separators give n + 1 fields.
constexpr std::vector<std::string_view> split(std::string_view text,
                                              char sep) {
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
  std::uint64_t u64() { return integer<std::uint64_t>(); }
  std::uint64_t u64(std::string_view key) {
    return number<std::uint64_t>(value(key), key);
  }
  std::int64_t i64() { return integer<std::int64_t>(); }

  /// Every field must have been read.
  void finish() const {
    if (left() != 0)
      fail(std::to_string(left()) + " unexpected trailing field(s)");
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw Error(what_ + ": " + msg);
  }

  const std::string& what() const { return what_; }

  /// `s`, a field's text, as an Int; a failure names the field `name`.
  template <std::integral Int>
  Int number(std::string_view s, std::string_view name) const {
    if (const auto v = try_int<Int>(s)) return *v;
    fail("bad " + std::string(name) + " '" + std::string(s) + "'");
  }

 private:
  std::vector<std::string_view> fields_;
  std::size_t next_ = 0;
  std::string what_;
};

/// The next field of `in`, a line that must start with `tag`, split at
/// spaces past the tag.
inline FieldReader tagged_line(FieldReader& in, const char* tag) {
  FieldReader line(in.next(), ' ', in.what());
  if (line.next() != tag)
    line.fail(std::string("expected a '") + tag + "' line");
  return line;
}

/// A `key=value|...` record that must hold exactly `fields` fields.
inline FieldReader read_record(std::string_view payload, std::size_t fields,
                               std::string_view what) {
  FieldReader r(payload, '|', what);
  r.expect_fields(fields);
  return r;
}

// ---------------------------------------------------------------------------
// Declared records.

/// R is T or const T: the record a `fields` declaration lists.
template <class R, class T>
concept RecordOf = std::same_as<std::remove_const_t<R>, T>;

/// Append the text of `v`, a field value, to `out`.
template <class T>
void put(std::string& out, const T& v) {
  if constexpr (std::integral<T>) {
    char buf[24];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out += v;
  } else if constexpr (std::is_same_v<T, Time>) {
    put(out, v.raw_ns());
  } else if constexpr (std::is_same_v<T, LogHistogram>) {
    out += v.text();
  } else {
    v.put(out);
  }
}

/// Read `text`, the value of field `key`, into `v` strictly; a failure is
/// reported through `in`.
template <class T>
void get(FieldReader& in, std::string_view key, std::string_view text,
         T&& v) {
  using U = std::remove_cvref_t<T>;
  if constexpr (std::integral<U>) {
    v = in.number<U>(text, key);
  } else if constexpr (std::is_same_v<U, std::string>) {
    if (text.empty()) in.fail("empty " + std::string(key));
    v = text;
  } else if constexpr (std::is_same_v<U, Time>) {
    v = Time::ns(in.number<std::int64_t>(text, key));
  } else if constexpr (std::is_same_v<U, LogHistogram>) {
    v = LogHistogram::parse(text);
  } else {
    v.get(in, key, text);
  }
}

/// Every declared field of `r`, `key=value` (or the bare value when not
/// `keyed`), joined by `sep`.
template <class R>
void put_fields(std::string& out, const R& r, char sep, bool keyed) {
  bool first = true;
  fields(r, [&](const char* key, const auto& value) {
    if (!first) out += sep;
    first = false;
    if (keyed) (out += key) += '=';
    put(out, value);
  });
}

/// Read every declared field of `r` from `in`, in order: `key=value`
/// fields, or bare values when not `keyed`.
template <class R>
void get_fields(FieldReader& in, R& r, bool keyed) {
  fields(r, [&](const char* key, auto&& value) {
    get(in, key, keyed ? in.value(key) : in.next(), value);
  });
}

/// An enum field, spelled by its name table (util/names.h).
template <class E, class Row, std::size_t N>
struct Named {
  E& value;
  const Row (&names)[N];
  void put(std::string& out) const { out += enum_name(names, value); }
  void get(FieldReader& in, std::string_view key, std::string_view text) {
    if (!enum_from_name(names, text, value))
      in.fail("unknown " + std::string(key) + " '" + std::string(text) + "'");
  }
};

/// A nested record whose value is its bare field values joined by spaces.
template <class R>
struct Values {
  R& record;
  void put(std::string& out) const { put_fields(out, record, ' ', false); }
  void get(FieldReader& in, std::string_view key, std::string_view text) {
    FieldReader list(text, ' ', in.what() + " " + std::string(key));
    get_fields(list, record, false);
    list.finish();
  }
};

/// A list of records in a '\n'-separated record: the value is the item
/// count, and each item follows on its own line, `<tag>` and its bare
/// field values joined by spaces.
template <class List>
struct Lines {
  List& items;
  const char* tag;
  void put(std::string& out) const {
    util::put(out, items.size());
    for (const auto& item : items) {
      ((out += '\n') += tag) += ' ';
      put_fields(out, item, ' ', false);
    }
  }
  void get(FieldReader& in, std::string_view key, std::string_view text) {
    for (auto n = in.number<std::uint64_t>(text, key); n > 0; --n) {
      FieldReader line = tagged_line(in, tag);
      get_fields(line, items.emplace_back(), false);
      line.finish();
    }
  }
};

template <class R>
std::string write_record(const R& r, char sep) {
  std::string out;
  put_fields(out, r, sep, true);
  return out;
}

/// The strict inverse of write_record(r, sep).
template <class R>
R parse_record(std::string_view text, char sep, std::string_view what) {
  FieldReader in(text, sep, what);
  R r;
  get_fields(in, r, true);
  in.finish();
  return r;
}

}  // namespace vc2m::util

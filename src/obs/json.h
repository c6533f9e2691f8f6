// The JSON layer of vc2m's reports: a strict parser, and the declared
// records that write and read the serve, scenario, explain and bench
// reports.
//
// The parser is a small recursive-descent reader with no third-party
// dependency; it accepts exactly the documents the writers produce plus
// ordinary whitespace variation, and it is deliberately strict where
// lenience would hide corruption:
//
//  - duplicate object keys are rejected with the byte offset of the second
//    occurrence (a truncated-then-rewritten report would otherwise have one
//    of its values silently shadowed);
//  - non-finite numbers (NaN / Infinity / values overflowing a double) are
//    rejected with their byte offset — they are not valid JSON, and a NaN
//    that slipped into a gate comparison would poison every verdict.
//
// Errors throw util::Error with "<what> JSON: ... at offset N" messages,
// where <what> names the artifact being parsed.
//
// A report declares its members once, in wire order, with the text
// records' `fields` convention (util/record.h):
//
//   template <util::RecordOf<Report> R, class V>
//   void fields(R& r, V&& v) {
//     v("schema", r.schema);
//     v("config", json::Group{[&](auto&& g) { g("seed", r.seed); }});
//     v("records", r.records);
//   }
//
// and write() and read() are driven by that list. A member's value is
//
//  - an integer, written in decimal. Integers wider than 32 bits are
//    counts: non-negative and below 2^53, from where on a double no longer
//    holds every integer. Narrower ones must lie in their type's range;
//  - a double (written by number()), a string, a bool, or an enum through
//    its util::Named table, written as its name;
//  - a record with its own `fields`, or a Group of the record's own
//    members, written inline: {"a": 1, "b": 2};
//  - a std::map with string keys, or a std::vector of records: a block.
//    Each entry goes on its own line at the enclosing line's indent + 2,
//    the closing bracket at that indent; an empty one is {} or []. Map
//    keys must be in ascending order on read;
//  - a std::vector of strings, inline: ["a", "b"];
//  - Tall{records}: a block whose records are written one member per line;
//  - Flag{b}: a bool present only when true;
//  - Derived{f}: a count the rest of the record determines, written as
//    f() and refused on read unless it equals f() of the record read.
//
// A document is an object with one top-level member per line. The reader
// looks up each declared member and refuses a missing or mistyped one.
// Every member it was not asked for, at any level, is reported through
// `notes` instead of refused, since a newer writer may add members. That
// covers a member the declaration lists only under a condition (on members
// declared before it) that does not hold for this record.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/file.h"
#include "util/record.h"

namespace vc2m::obs::json {

/// Counts read from JSON lie strictly below this.
inline constexpr std::uint64_t kMaxExactCount = std::uint64_t{1} << 53;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;
  /// Byte offset of this value's first character in the parsed document,
  /// so semantic validators (unknown key, wrong type) can point at the
  /// exact position the way the parser's own errors do.
  std::size_t offset = 0;
  /// For an object member's value: byte offset of its key's opening quote.
  std::size_t key_offset = 0;

  /// Object member lookup (kObject only); nullptr when absent. Keys are
  /// unique — parse() rejects duplicates.
  const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }

  /// This number as a count: a non-negative integer below kMaxExactCount.
  std::optional<std::uint64_t> as_count() const;

  /// This number as an Int in [lo, hi]. Int is at most 32 bits wide, so
  /// every bound is exact in a double; wider integers are counts.
  template <std::integral Int>
  std::optional<Int> as_int(Int lo = std::numeric_limits<Int>::min(),
                            Int hi = std::numeric_limits<Int>::max()) const {
    static_assert(sizeof(Int) <= 4, "read wider integers with as_count()");
    if (kind != Kind::kNumber || number != std::floor(number) || number < lo ||
        number > hi || (number == 0 && std::signbit(number)))
      return std::nullopt;
    return static_cast<Int>(number);
  }

};

/// "null", "boolean", "number", "string", "array" or "object".
const char* kind_name(Value::Kind k);

/// The members of `obj` (the value of field `key`) must be in strictly
/// ascending key order. Writers emit std::map members sorted; a reader
/// that accepted any order would re-serialize to other bytes.
void check_sorted_keys(const Value& obj, const std::string& key,
                       const std::string& what);

/// Read all of `is` and parse it as one document whose top level must be
/// an object.
Value parse_object(std::istream& is, const std::string& what);

/// Parse one complete JSON document. `what` names the artifact in error
/// messages (e.g. "bench report"). Throws util::Error on malformed input,
/// trailing garbage, duplicate object keys, or non-finite numbers.
Value parse(const std::string& text, const std::string& what);

/// Escape a string for embedding between double quotes.
std::string escape(const std::string& s);

/// Serialize a finite double ("%.9g"); non-finite values write "0", keeping
/// every emitted artifact parseable by the strict reader above.
std::string number(double v);

/// A Chrome trace `ts` or `dur`: microseconds with three decimals, which
/// keep nanosecond precision.
std::string ts_us(std::int64_t ns);

/// The records of a vc2m-written Chrome trace's lossless `"<key>": [`
/// array, one per line up to the closing `]`, each without its separating
/// comma. Throws util::Error when the array is absent.
std::vector<std::string> trace_records(std::istream& is,
                                       const std::string& key);

/// Writes a Chrome trace's events, one per line, joined by ",\n".
struct LineWriter {
  std::ostream& os;
  bool first = true;
  void line(const std::string& s);
};

// ---------------------------------------------------------------------------
// Declared records (see the top of this file).

/// Members of the enclosing record, written inline as one object:
/// `Group{[&](auto&& g) { g("a", r.a); g("b", r.b); }}`.
template <class F>
struct Group {
  F members;
};

/// A bool member present only when true.
template <class B>
struct Flag {
  B& value;
};

/// A count member the rest of the record determines: `count()`.
template <class F>
struct Derived {
  F count;
};

/// A list of records written as a block, one member per line.
template <class List>
struct Tall {
  List& items;
};

namespace detail {

template <class T, template <class...> class W>
constexpr bool is = false;
template <template <class...> class W, class... A>
constexpr bool is<W<A...>, W> = true;

template <class T>
constexpr bool is_named = false;
template <class E, class Row, std::size_t N>
constexpr bool is_named<util::Named<E, Row, N>> = true;

/// The JSON kind a member of type T is written as.
template <class T>
constexpr Value::Kind kind_of() {
  using K = Value::Kind;
  if constexpr (std::is_same_v<T, bool> || is<T, Flag>) return K::kBool;
  else if constexpr (std::is_arithmetic_v<T> || is<T, Derived>)
    return K::kNumber;
  else if constexpr (std::is_same_v<T, std::string> || is_named<T>)
    return K::kString;
  else if constexpr (is<T, std::vector> || is<T, Tall>) return K::kArray;
  else return K::kObject;
}

/// The members of `r`, a record with a `fields` declaration, as a Group.
template <class R>
auto declared(R& r) {
  return Group{[&r](auto&& v) { fields(r, v); }};
}

}  // namespace detail

class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  /// `r` as a document: one top-level member per line.
  template <class R>
  void document(const R& r) {
    os_ << "{\n";
    object(detail::declared(r), ",\n");
    os_ << "\n}\n";
  }

 private:
  /// The members of `group`, `"key": value`, joined by `sep`.
  template <class G>
  void object(const G& group, const std::string& sep) {
    const char* before = "";
    group.members([&](const char* key, const auto& value) {
      if constexpr (detail::is<std::remove_cvref_t<decltype(value)>, Flag>)
        if (!value.value) return;
      os_ << before << '"' << key << "\": ";
      before = sep.c_str();
      put(value);
    });
  }

  template <class T>
  void put(const T& v) {
    if constexpr (detail::is<T, Flag>) os_ << "true";
    else if constexpr (detail::is_named<T>)
      put(std::string(util::enum_name(v.names, v.value)));
    else if constexpr (std::is_same_v<T, bool>) os_ << (v ? "true" : "false");
    else if constexpr (std::integral<T>) os_ << v;
    else if constexpr (std::floating_point<T>) os_ << number(v);
    else if constexpr (std::is_same_v<T, std::string>)
      os_ << '"' << escape(v) << '"';
    else if constexpr (detail::is<T, Derived>) put(v.count());
    else if constexpr (detail::is<T, Group>) inline_object(v);
    else if constexpr (std::is_same_v<T, std::vector<std::string>>)
      strings(v);
    else if constexpr (detail::is<T, std::map>) block('{', '}', v);
    else if constexpr (detail::is<T, std::vector>) block('[', ']', v);
    else if constexpr (detail::is<T, Tall>) block('[', ']', v.items, true);
    else inline_object(detail::declared(v));
  }

  template <class G>
  void inline_object(const G& group) {
    os_ << '{';
    object(group, ", ");
    os_ << '}';
  }

  void strings(const std::vector<std::string>& v) {
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i)
      os_ << (i ? ", " : "") << '"' << escape(v[i]) << '"';
    os_ << ']';
  }

  /// Each of `items` on its own line at indent_ + 2, the closing bracket
  /// at indent_; a `tall` record is written one member per line.
  template <class Items>
  void block(char open, char close, const Items& items, bool tall = false) {
    os_ << open;
    indent_ += 2;
    const std::string pad(indent_, ' ');
    const char* sep = "\n";
    for (const auto& item : items) {
      os_ << sep << pad;
      sep = ",\n";
      if constexpr (detail::is<Items, std::map>) {
        put(item.first);
        os_ << ": ";
        put(item.second);
      } else if (tall) {
        os_ << '{';
        object(detail::declared(item), ",\n " + pad);
        os_ << '}';
      } else {
        put(item);
      }
    }
    indent_ -= 2;
    if (!items.empty()) os_ << '\n' << std::string(indent_, ' ');
    os_ << close;
  }

  std::ostream& os_;
  int indent_ = 0;
};

class Reader {
 public:
  /// `what` names the artifact in errors and notes; `notes`, when given,
  /// collects one line per member no declaration asked for.
  Reader(std::string what, std::vector<std::string>* notes)
      : what_(std::move(what)), notes_(notes) {}

  template <class R>
  R document(std::istream& is) {
    R r;
    get(parse_object(is, what_), "", "", detail::declared(r));
    return r;
  }

 private:
  /// Read `m`, the member `key` of the object at `path`, into `out`.
  template <class T>
  void get(const Value& m, const std::string& path, const std::string& key,
           T&& out) {
    using U = std::remove_cvref_t<T>;
    constexpr Value::Kind kind = detail::kind_of<U>();
    if (m.kind != kind)
      fail(path, "field '" + key + "' must be of type " + kind_name(kind));
    if constexpr (detail::is<U, Flag>) {
      if (!m.boolean) fail(path, "'" + key + "' may only be present as true");
      out.value = true;
    } else if constexpr (detail::is_named<U>) {
      if (!util::enum_from_name(out.names, m.str, out.value))
        fail(path, "unknown " + key + " '" + m.str + "'");
    } else if constexpr (std::is_same_v<U, bool>) {
      out = m.boolean;
    } else if constexpr (std::integral<U> && sizeof(U) <= 4) {
      using L = std::numeric_limits<U>;
      const auto v = m.as_int<U>();
      if (!v)
        fail(path, "field '" + key + "' must be an integer in [" +
                       std::to_string(L::min()) + ", " +
                       std::to_string(L::max()) + "]");
      out = *v;
    } else if constexpr (std::integral<U>) {
      out = static_cast<U>(count(m, path, key));
    } else if constexpr (std::floating_point<U>) {
      out = m.number;
    } else if constexpr (std::is_same_v<U, std::string>) {
      out = m.str;
    } else if constexpr (detail::is<U, Group>) {
      members(m, join(path, key), out);
    } else if constexpr (detail::is<U, std::map>) {
      check_sorted_keys(m, key, where(path));
      for (const auto& [k, v] : m.object) get(v, join(path, key), k, out[k]);
    } else if constexpr (detail::is<U, std::vector>) {
      for (std::size_t i = 0; i < m.array.size(); ++i)
        get(m.array[i], join(path, key), "[" + std::to_string(i) + "]",
            out.emplace_back());
    } else if constexpr (detail::is<U, Tall>) {
      get(m, path, key, out.items);
    } else {
      get(m, path, key, detail::declared(out));
    }
  }

  /// Read the members of `group` from `obj`, the object at `path`.
  template <class G>
  void members(const Value& obj, const std::string& path, const G& group) {
    const std::size_t first_note = notes_ ? notes_->size() : 0;
    std::vector<std::string> declared;
    std::vector<std::function<void()>> derived;
    group.members([&](const char* key, auto&& value) {
      using T = std::remove_cvref_t<decltype(value)>;
      declared.push_back(key);
      const Value* m = obj.find(key);
      if (!m && detail::is<T, Flag>) return;
      if (!m)
        fail(path, std::string("missing ") +
                       kind_name(detail::kind_of<T>()) + " field '" + key +
                       "'");
      if constexpr (detail::is<T, Derived>)
        derived.push_back([this, path, key, got = count(*m, path, key),
                           f = value.count] {
          if (got != f())
            fail(path, std::string("field '") + key + "' is " +
                           std::to_string(got) + ", but the other members " +
                           "make it " + std::to_string(f()));
        });
      else
        get(*m, path, key, value);
    });
    for (const auto& check : derived) check();
    note_undeclared(obj, path, declared, first_note);
  }

  /// "<what>" at the top, "<what>: <path>" below it.
  std::string where(const std::string& path) const;
  /// The path of member `key`, or element "[i]", of the object at `path`.
  static std::string join(const std::string& path, const std::string& key);
  [[noreturn]] void fail(const std::string& path,
                         const std::string& msg) const;
  std::uint64_t count(const Value& m, const std::string& path,
                      const std::string& key) const;
  /// Notes for the members of `obj` not in `declared`, inserted at
  /// `first_note` so an object's notes precede its members' notes.
  void note_undeclared(const Value& obj, const std::string& path,
                       const std::vector<std::string>& declared,
                       std::size_t first_note) const;

  std::string what_;
  std::vector<std::string>* notes_;
};

/// `r` as a JSON document.
template <class R>
void write(std::ostream& os, const R& r) {
  Writer(os).document(r);
}

/// The strict inverse of write(): throws util::Error on malformed JSON or
/// a missing or mistyped member, and reports undeclared members through
/// `notes` (when given).
template <class R>
R read(std::istream& is, const std::string& what,
       std::vector<std::string>* notes) {
  return Reader(what, notes).document<R>(is);
}

/// write() to the file `path`; errors name the artifact `what`.
template <class R>
void write_file(const std::string& path, const R& r, const std::string& what) {
  auto f = util::open_output_file(path, what);
  write(f, r);
  util::close_output_file(f, path, what);
}

}  // namespace vc2m::obs::json

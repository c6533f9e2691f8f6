// Minimal JSON layer shared by the obs report readers and writers.
//
// vc2m writes two JSON artifact families — vc2m-bench-report/1 and
// vc2m-explain-report/1 — and reads both back (perfdiff, explain
// round-trip). The reader is a small recursive-descent parser with no
// third-party dependency; it accepts exactly the documents the writers
// produce plus ordinary whitespace variation, and it is deliberately
// strict where lenience would hide corruption:
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
// The typed getters on Value are the one place report readers turn members
// into C++ values. Integers are exact or refused: a count must be a
// non-negative integer below 2^53 (from there on a double no longer holds
// every integer, so the value read back may not be the one written), and
// a narrow int must be integral and inside its range before any cast.
#pragma once

#include <cmath>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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

  /// An optional member: nullptr when absent, util::Error when present
  /// with another kind.
  const Value* find(const std::string& key, Kind want,
                    const std::string& what) const;

  // Required members of an object. Each getter throws util::Error
  // "<what>: ... field '<key>' ..." when the member is absent or is not
  // what the getter reads.
  const Value& get(const std::string& key, Kind want,
                   const std::string& what) const;
  const std::string& get_string(const std::string& k,
                                const std::string& what) const {
    return get(k, Kind::kString, what).str;
  }
  bool get_bool(const std::string& k, const std::string& what) const {
    return get(k, Kind::kBool, what).boolean;
  }
  double get_number(const std::string& k, const std::string& what) const {
    return get(k, Kind::kNumber, what).number;
  }
  const Value& get_object(const std::string& k, const std::string& what) const {
    return get(k, Kind::kObject, what);
  }
  const Value& get_array(const std::string& k, const std::string& what) const {
    return get(k, Kind::kArray, what);
  }
  std::uint64_t get_count(const std::string& key,
                          const std::string& what) const;
  /// The optional member `key`, an object of strings in ascending key
  /// order, as a map.
  std::map<std::string, std::string> get_string_map(
      const std::string& key, const std::string& what) const;
  template <std::integral Int>
  Int get_int(const std::string& key, const std::string& what,
              Int lo = std::numeric_limits<Int>::min(),
              Int hi = std::numeric_limits<Int>::max()) const {
    if (const auto v = get(key, Kind::kNumber, what).as_int<Int>(lo, hi))
      return *v;
    out_of_range(key, what, lo, hi);
  }

 private:
  [[noreturn]] static void out_of_range(const std::string& key,
                                        const std::string& what,
                                        std::int64_t lo, std::int64_t hi);
};

/// "null", "boolean", "number", "string", "array" or "object".
const char* kind_name(Value::Kind k);

/// Forward compatibility: a member of `obj` not named in `known` is
/// reported through `notes` (when non-null), never rejected — a newer
/// writer may legitimately add fields.
void note_unknown_fields(const Value& obj,
                         std::initializer_list<const char*> known,
                         const std::string& what,
                         std::vector<std::string>* notes);

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

}  // namespace vc2m::obs::json

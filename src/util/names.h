// Enum names kept in one table per enum. The table is indexed by the
// enumerator's value; a row is either the name itself or a struct whose
// `name` member holds it, so a table of per-enumerator facts can carry the
// name alongside them. to_string and the parser both read the table, so
// the two spellings cannot drift.
#pragma once

#include <cstddef>
#include <string_view>

namespace vc2m::util {

constexpr const char* row_name(const char* name) { return name; }
template <class Row>
constexpr const char* row_name(const Row& row) {
  return row.name;
}

/// The name of `e`, or "?" for a value past the table.
template <class E, class Row, std::size_t N>
constexpr const char* enum_name(const Row (&table)[N], E e) {
  const auto i = static_cast<std::size_t>(e);
  return i < N ? row_name(table[i]) : "?";
}

/// The row named `s`, or nullptr.
template <class Row, std::size_t N>
constexpr const Row* find_row(const Row (&table)[N], std::string_view s) {
  for (const Row& row : table)
    if (s == row_name(row)) return &row;
  return nullptr;
}

/// The enumerator named `s`: true and `out` set, or false and `out`
/// untouched.
template <class E, class Row, std::size_t N>
bool enum_from_name(const Row (&table)[N], std::string_view s, E& out) {
  const Row* row = find_row(table, s);
  if (row) out = static_cast<E>(row - table);
  return row != nullptr;
}

}  // namespace vc2m::util

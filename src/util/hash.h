// FNV-1a, 64-bit: the one hash behind every checksum and digest the engine
// writes (journal frames, snapshot and scenario checksums, solve digests)
// and behind its in-memory memo tables.
//
// Words are folded byte-wise, least significant byte first, so a word
// hash equals the byte hash of the word's little-endian encoding on any
// host. Every persisted value depends on these exact constants and this
// byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>

namespace vc2m::util {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Fold `n` bytes into the running hash `h`.
inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a of a byte string.
inline std::uint64_t fnv1a(std::string_view bytes) {
  return fnv1a(kFnvOffsetBasis, bytes.data(), bytes.size());
}

/// Fold one 64-bit word, least significant byte first.
inline std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    h ^= (w >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a of a word sequence, each word folded by fnv1a_word.
inline std::uint64_t fnv1a_words(std::span<const std::int64_t> words,
                                 std::uint64_t h = kFnvOffsetBasis) {
  for (const std::int64_t w : words)
    h = fnv1a_word(h, static_cast<std::uint64_t>(w));
  return h;
}

/// A hash as 16 lowercase hex digits.
inline std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace vc2m::util

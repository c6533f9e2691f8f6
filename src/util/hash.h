// Two hashes, for two jobs.
//
// FNV-1a, 64-bit, is the hash of everything the engine persists or
// prints: journal frames, snapshot and scenario checksums, solve and
// bench digests. Words are folded byte-wise, least significant byte
// first, so a word hash equals the byte hash of the word's little-endian
// encoding on any host. Every persisted value depends on these exact
// constants and this byte order; never change them.
//
// WordHash is for in-memory hash tables only (the analysis memo keys): one
// multiply per 64-bit word plus a final mix, several times cheaper than
// FNV-1a's eight multiplies per word. Its values are never written
// anywhere, so it may change between versions; never use it for a digest.
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

/// Word-at-a-time hash for in-memory tables: h = (rotl(h, 5) ^ w) · K per
/// word, then h ^ (h >> 32) so the high input bits reach the low hash
/// bits. Each step is a bijection of h for a fixed w and of w for a fixed
/// h, so two equal-length sequences that differ in exactly one word never
/// collide.
class WordHash {
 public:
  void add(std::uint64_t w) { h_ = ((h_ << 5 | h_ >> 59) ^ w) * kMul; }
  std::uint64_t value() const { return h_ ^ (h_ >> 32); }

 private:
  static constexpr std::uint64_t kMul = 0x517cc1b727220a95ull;
  std::uint64_t h_ = 0;
};

/// WordHash of a word sequence.
inline std::uint64_t word_hash(std::span<const std::int64_t> words) {
  WordHash h;
  for (const std::int64_t w : words) h.add(static_cast<std::uint64_t>(w));
  return h.value();
}

/// A hash as 16 lowercase hex digits.
inline std::string hex16(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace vc2m::util

// Chunked bump allocator for per-solve scratch.
//
// The analysis hot path (demand rows, wcet tuples, min-budget surface
// tables) used to allocate fresh std::vectors per call; profiling showed
// the malloc/free traffic rivaling the arithmetic. An Arena services those
// requests by bumping a pointer through reusable chunks: allocation is a
// pointer add in the common case, and reset() (or a Scope rewind) reclaims
// everything at once while keeping the chunks mapped. That scratch stops
// reaching the heap; solves as a whole still allocate. On the Fig-4 sweep
// (Platform A, seed 42) a solve makes 126 heap allocations under
// flattening, 134 overhead-free, 221 existing-CSA, 83 even partitioning
// and 196 Baseline, on average (docs/performance.md, "Layer 2").
//
// Lifetime rules (see docs/performance.md):
//  - An Arena is single-threaded. Parallel workers use one arena each.
//  - Memory returned by allocate()/alloc_array() is valid until the next
//    reset() or the destruction of an enclosing Scope mark — never hold an
//    arena span across either.
//  - reset() keeps chunk capacity; only the destructor releases memory.
//
// When an AllocCounterScope is open, every allocation adds its rounded size
// to `arena_bytes` — a deterministic effort counter (requests are a pure
// function of the work), unlike high-water marks which depend on reuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/error.h"
#include "util/instrument.h"

namespace vc2m::util {

class Arena {
 public:
  /// `chunk_bytes` is the default size of each bump chunk; requests larger
  /// than it get a dedicated chunk of exactly the rounded request size
  /// (the "large-block fallback"), so any size is serviceable.
  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {
    VC2M_CHECK_MSG(chunk_bytes > 0, "arena chunk size must be positive");
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (a power of two ≤ chunk
  /// alignment). Never returns nullptr; zero-byte requests get a unique
  /// valid pointer into the current chunk.
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    VC2M_CHECK_MSG(align > 0 && (align & (align - 1)) == 0,
                   "arena alignment must be a power of two");
    VC2M_CHECK_MSG(align <= kMaxAlign,
                   "arena alignment " << align << " exceeds the chunk "
                                      << "alignment " << kMaxAlign);
    const std::size_t need = round_up(bytes, align);
    if (auto* ctr = alloc_counters()) ctr->arena_bytes += need;
    while (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      const std::size_t at = round_up(c.used, align);
      if (at + need <= c.size) {
        c.used = at + need;
        bump_in_use(need);
        return c.data.get() + at;
      }
      ++cur_;
      if (cur_ < chunks_.size()) chunks_[cur_].used = 0;
    }
    // No existing chunk fits: open a new one (the large-block fallback uses
    // exactly the rounded request size so a huge request doesn't force a
    // huge default chunk).
    // operator new[] guarantees alignof(std::max_align_t), which allocate()
    // checks is an upper bound on every requested alignment.
    const std::size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
    chunks_.push_back(
        Chunk{std::unique_ptr<std::byte[]>(new std::byte[size]), size, need});
    cur_ = chunks_.size() - 1;
    bump_in_use(need);
    return chunks_.back().data.get();
  }

  /// Typed array of `n` trivially-destructible Ts (uninitialized).
  template <typename T>
  std::span<T> alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return {static_cast<T*>(allocate(n * sizeof(T), alignof(T))), n};
  }

  /// Rewind to empty. Chunk capacity is kept for reuse; spans handed out
  /// before the reset are dead.
  void reset() {
    for (auto& c : chunks_) c.used = 0;
    cur_ = 0;
    in_use_ = 0;
  }

  /// RAII rewind mark: on destruction the arena forgets every allocation
  /// made after construction (chunks stay mapped). Scopes must nest.
  class Scope {
   public:
    explicit Scope(Arena& a)
        : arena_(a), chunk_(a.cur_),
          used_(a.chunks_.empty() ? 0 : a.chunks_[a.cur_].used),
          in_use_(a.in_use_) {}
    ~Scope() {
      if (arena_.chunks_.empty()) return;
      for (std::size_t i = chunk_ + 1; i < arena_.chunks_.size(); ++i)
        arena_.chunks_[i].used = 0;
      arena_.chunks_[chunk_].used = used_;
      arena_.cur_ = chunk_;
      arena_.in_use_ = in_use_;
      if (arena_.high_water_ < in_use_) arena_.high_water_ = in_use_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Arena& arena_;
    std::size_t chunk_;
    std::size_t used_;
    std::size_t in_use_;
  };

  /// Bytes currently allocated (live since the last reset/rewind).
  std::size_t in_use() const { return in_use_; }
  /// Largest in_use() ever observed.
  std::size_t high_water() const { return high_water_; }
  /// Total bytes of mapped chunk capacity.
  std::size_t capacity() const {
    std::size_t n = 0;
    for (const auto& c : chunks_) n += c.size;
    return n;
  }

  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;
  static constexpr std::size_t kMaxAlign = alignof(std::max_align_t);

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static constexpr std::size_t round_up(std::size_t v, std::size_t align) {
    return (v + align - 1) & ~(align - 1);
  }

  void bump_in_use(std::size_t need) {
    in_use_ += need;
    if (high_water_ < in_use_) high_water_ = in_use_;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;
  std::size_t in_use_ = 0;
  std::size_t high_water_ = 0;
};

/// Minimal std-allocator adaptor so standard containers can draw from an
/// Arena (deallocate is a no-op; the arena reclaims on reset/rewind). The
/// arena must outlive every container using it.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& o) : arena_(o.arena()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) {}

  Arena* arena() const { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& o) const {
    return arena_ == o.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace vc2m::util

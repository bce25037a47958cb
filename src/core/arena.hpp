// Fixed-capacity, alignment-aware memory for the hot loops.
//
// The SoA particle engine (filter/particle_filter), the one user of
// these types, promises zero steady-state heap allocations after
// warm-up. The two primitives here make that promise checkable instead
// of aspirational:
//
//   * core::Arena — one heap slab, carved by a bump pointer into
//     cache-line-aligned arrays. Carves are O(1), never free
//     individually, and are invalidated wholesale by reset(). The slab
//     is allocated exactly once per reserve(); `stats().slab_allocations`
//     counts every time the arena touched the heap, so a test can pin
//     "no allocations after warm-up" with an equality check.
//
//   * core::BufferPool — a fixed set of uniform blocks carved from an
//     internal arena, recycled through an acquire/release free list.
//     The particle filter's double-buffered resample gather swaps its
//     front/back pose blocks through one of these.
//
// Neither type is thread-safe; both are owned by a single engine object
// and touched only from its calling thread (worker threads receive raw
// pointers into carved arrays, which is safe because carve/reset never
// happen mid-parallel-section).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace cimnav::core {

/// Allocation granularity: every carve is aligned to a cache line so SoA
/// arrays never straddle lines shared with a neighbouring array.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Heap-traffic counters. `slab_allocations` is the zero-steady-state
/// witness: it increments only when the arena (re)allocates its slab.
struct ArenaStats {
  std::uint64_t slab_allocations = 0;  ///< heap allocations over lifetime
  std::uint64_t carves = 0;            ///< total carve() calls served
  std::size_t capacity_bytes = 0;      ///< usable slab bytes
  std::size_t used_bytes = 0;          ///< bytes carved since last reset
  std::size_t high_water_bytes = 0;    ///< max used_bytes ever observed
};

class Arena {
 public:
  Arena() = default;
  explicit Arena(std::size_t capacity_bytes) { reserve(capacity_bytes); }

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Ensures the slab holds at least `capacity_bytes`. Growing reallocates
  /// (counted in stats) and therefore requires the arena to be empty —
  /// outstanding carves would dangle. Shrink requests are no-ops.
  void reserve(std::size_t capacity_bytes);

  /// Forgets every carve (pointers into the slab become invalid). The
  /// slab itself is kept, so reset + re-carve is allocation-free.
  void reset();

  /// Bump-allocates `bytes` aligned to `alignment` (a power of two).
  /// Throws std::invalid_argument on exhaustion — the fixed capacity is
  /// the contract, not a hint.
  void* carve(std::size_t bytes, std::size_t alignment = kCacheLineBytes);

  /// Typed convenience: `count` default-aligned elements of T.
  template <typename T>
  T* carve_array(std::size_t count) {
    return static_cast<T*>(carve(count * sizeof(T), kCacheLineBytes));
  }

  std::size_t capacity() const { return stats_.capacity_bytes; }
  std::size_t used() const { return stats_.used_bytes; }
  std::size_t remaining() const {
    return stats_.capacity_bytes - stats_.used_bytes;
  }
  const ArenaStats& stats() const { return stats_; }

 private:
  std::unique_ptr<std::byte[]> slab_;  ///< raw storage (+ alignment slack)
  std::byte* base_ = nullptr;          ///< cache-line-aligned slab start
  ArenaStats stats_;
};

/// Pool counters; `slab_allocations` mirrors the internal arena's.
struct BufferPoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t releases = 0;
  std::uint64_t slab_allocations = 0;
  std::size_t block_bytes = 0;
  std::size_t blocks_total = 0;
  std::size_t blocks_free = 0;
};

class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(std::size_t block_bytes, std::size_t block_count) {
    configure(block_bytes, block_count);
  }

  BufferPool(BufferPool&&) noexcept = default;
  BufferPool& operator=(BufferPool&&) noexcept = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// (Re)shapes the pool: `block_count` blocks of `block_bytes` each,
  /// cache-line aligned, all free. Outstanding blocks are invalidated,
  /// so this is a warm-up / reconfiguration operation only.
  void configure(std::size_t block_bytes, std::size_t block_count);

  /// Pops a free block. Throws std::invalid_argument when the pool is
  /// exhausted — callers size the pool for their steady state up front.
  void* acquire();

  /// Returns a block to the free list. The pointer must be one this pool
  /// handed out and must not already be free.
  void release(void* block);

  std::size_t block_bytes() const { return stats_.block_bytes; }
  std::size_t blocks_free() const { return free_.size(); }
  std::size_t blocks_total() const { return blocks_.size(); }
  BufferPoolStats stats() const;

 private:
  Arena arena_;
  std::vector<void*> blocks_;  ///< every block, in carve order
  std::vector<void*> free_;    ///< LIFO free list (capacity preallocated)
  BufferPoolStats stats_;
};

}  // namespace cimnav::core

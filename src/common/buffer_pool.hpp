// Slab/pool layer for the allocation-free request path.
//
// Two recyclers, both thread-safe, both counting how often they could hand
// back recycled memory (hit) versus having to grow from the heap (miss):
//
//   SlabPool    fixed-size blocks carved from large chunks — backs pooled
//               RequestContext allocation via PoolAllocator +
//               std::allocate_shared (object and control block share one
//               slab block, one freelist push/pop per request).
//   BufferPool  recycles ByteStorage backing stores for connection read
//               buffers (ByteBuffer::adopt_storage/release_storage).  A
//               connection holds a block only while a request is in
//               flight: it acquires one when bytes arrive and returns it
//               as soon as its in-buffer is empty between requests, so a
//               block cycles through the pool once per request, not once
//               per connection, and an idle connection holds none.  The
//               free list keeps a block for every open connection, so the
//               per-request cycling misses only when more requests than
//               ever before are in flight at once.
//
// The heap-traffic counters (hits / misses / heap bytes) surface on /stats
// as cops_pool_hits_total, cops_pool_misses_total, cops_alloc_bytes_total.
// heap_bytes() only grows; live_bytes() is the gauge beside it
// (cops_alloc_live_bytes), which falls when a pool frees memory, and is
// what the adaptive overload manager's heap_bytes monitor reads.
// Because a read block cycles once per request, cops_pool_hits_total
// counts about one read-block hit per request on top of the request-context
// hits.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#include "common/byte_buffer.hpp"

namespace cops {

// Fixed-size block allocator.  Requests up to block_bytes() are served from
// a freelist of blocks carved out of chunk-sized heap slabs; larger requests
// fall back to the heap (counted as misses, never pooled).
class SlabPool {
 public:
  explicit SlabPool(size_t block_bytes, size_t blocks_per_chunk = 64);
  ~SlabPool();
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  void* allocate(size_t bytes);
  void deallocate(void* ptr, size_t bytes) noexcept;

  [[nodiscard]] size_t block_bytes() const { return block_bytes_; }
  // Blocks currently sitting on the freelist.
  [[nodiscard]] uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  // Total bytes this pool pulled from the heap (chunk growth + oversize
  // fallbacks).  Flat in steady state — that is the whole point.
  [[nodiscard]] uint64_t heap_bytes() const {
    return heap_bytes_.load(std::memory_order_relaxed);
  }
  // Heap bytes held now: heap_bytes() less the oversize blocks freed.
  [[nodiscard]] uint64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void grow_locked();

  const size_t block_bytes_;
  const size_t blocks_per_chunk_;
  mutable std::mutex mutex_;
  std::vector<void*> free_list_;
  std::vector<char*> chunks_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> heap_bytes_{0};
  std::atomic<uint64_t> live_bytes_{0};
};

// Minimal std allocator over a shared SlabPool, for allocate_shared and
// friends.  Copyable across types (rebind) — all copies share the pool.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(std::shared_ptr<SlabPool> pool)
      : pool_(std::move(pool)) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other)  // NOLINT(google-explicit-constructor)
      : pool_(other.pool_) {}

  T* allocate(size_t n) {
    return static_cast<T*>(pool_->allocate(n * sizeof(T)));
  }
  void deallocate(T* ptr, size_t n) noexcept {
    pool_->deallocate(ptr, n * sizeof(T));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>& other) const {
    return pool_ == other.pool_;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>& other) const {
    return !(*this == other);
  }

  std::shared_ptr<SlabPool> pool_;
};

// Recycles ByteStorage backing stores (connection read buffers).  Every
// handed-out vector has capacity >= block_bytes(); a vector that grew while
// in use comes back with its larger capacity and benefits the next user.
//
// The free list keeps up to max(max_free, users) blocks.  A user (a
// connection) holds at most one block at a time and registers for its
// lifetime with add_user()/remove_user().  Once the users have held their
// most blocks at one moment, acquires only hit and heap_bytes() stays flat,
// however often the blocks cycle; a departing user takes one surplus free
// block with it.  heap_bytes() counts block_bytes() per block ever made;
// live_bytes() counts them per block not yet freed, handed out or free.
class BufferPool {
 public:
  explicit BufferPool(size_t block_bytes, size_t max_free = 64);

  [[nodiscard]] ByteStorage acquire();
  // Takes back a block acquire() handed out (an empty storage is ignored).
  void release(ByteStorage storage);
  void add_user();
  void remove_user();

  [[nodiscard]] size_t block_bytes() const { return block_bytes_; }
  [[nodiscard]] uint64_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t heap_bytes() const {
    return heap_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }

 private:
  const size_t block_bytes_;
  const size_t max_free_;
  mutable std::mutex mutex_;
  std::vector<ByteStorage> free_list_;
  size_t users_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> heap_bytes_{0};
  std::atomic<uint64_t> live_bytes_{0};
};

}  // namespace cops

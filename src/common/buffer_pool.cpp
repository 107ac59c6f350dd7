#include "common/buffer_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace cops {

// ---- SlabPool ---------------------------------------------------------------

SlabPool::SlabPool(size_t block_bytes, size_t blocks_per_chunk)
    : block_bytes_(std::max<size_t>(block_bytes, alignof(std::max_align_t))),
      blocks_per_chunk_(std::max<size_t>(blocks_per_chunk, 1)) {
  // The freelist itself must not allocate on the steady-state push/pop path.
  free_list_.reserve(blocks_per_chunk_ * 4);
}

SlabPool::~SlabPool() {
  for (char* chunk : chunks_) ::operator delete(chunk);
}

void SlabPool::grow_locked() {
  char* chunk = static_cast<char*>(
      ::operator new(block_bytes_ * blocks_per_chunk_));
  chunks_.push_back(chunk);
  heap_bytes_.fetch_add(block_bytes_ * blocks_per_chunk_,
                        std::memory_order_relaxed);
  live_bytes_.fetch_add(block_bytes_ * blocks_per_chunk_,
                        std::memory_order_relaxed);
  if (free_list_.capacity() < chunks_.size() * blocks_per_chunk_) {
    free_list_.reserve(chunks_.size() * blocks_per_chunk_ * 2);
  }
  for (size_t i = 0; i < blocks_per_chunk_; ++i) {
    free_list_.push_back(chunk + i * block_bytes_);
  }
}

void* SlabPool::allocate(size_t bytes) {
  if (bytes > block_bytes_) {
    // Oversize: straight heap allocation, never pooled.
    misses_.fetch_add(1, std::memory_order_relaxed);
    heap_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return ::operator new(bytes);
  }
  std::lock_guard lock(mutex_);
  if (free_list_.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    grow_locked();
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void* block = free_list_.back();
  free_list_.pop_back();
  return block;
}

void SlabPool::deallocate(void* ptr, size_t bytes) noexcept {
  if (ptr == nullptr) return;
  if (bytes > block_bytes_) {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    ::operator delete(ptr);
    return;
  }
  std::lock_guard lock(mutex_);
  free_list_.push_back(ptr);
}

// ---- BufferPool -------------------------------------------------------------

BufferPool::BufferPool(size_t block_bytes, size_t max_free)
    : block_bytes_(std::max<size_t>(block_bytes, 1)), max_free_(max_free) {
  free_list_.reserve(max_free_);
}

ByteStorage BufferPool::acquire() {
  {
    std::lock_guard lock(mutex_);
    if (!free_list_.empty()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      ByteStorage storage = std::move(free_list_.back());
      free_list_.pop_back();
      return storage;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  heap_bytes_.fetch_add(block_bytes_, std::memory_order_relaxed);
  live_bytes_.fetch_add(block_bytes_, std::memory_order_relaxed);
  ByteStorage storage;
  storage.reserve(block_bytes_);
  return storage;
}

void BufferPool::release(ByteStorage storage) {
  if (storage.capacity() < block_bytes_) return;  // never handed out by us
  storage.clear();
  {
    std::lock_guard lock(mutex_);
    // Cap the idle footprint at one block per user.
    if (free_list_.size() < std::max(max_free_, users_)) {
      free_list_.push_back(std::move(storage));
      return;
    }
  }
  live_bytes_.fetch_sub(block_bytes_, std::memory_order_relaxed);
}  // past retention: `storage` is freed here

void BufferPool::add_user() {
  std::lock_guard lock(mutex_);
  ++users_;
}

void BufferPool::remove_user() {
  ByteStorage surplus;
  {
    std::lock_guard lock(mutex_);
    --users_;
    if (free_list_.size() <= std::max(max_free_, users_)) return;
    surplus = std::move(free_list_.back());
    free_list_.pop_back();
  }
  live_bytes_.fetch_sub(block_bytes_, std::memory_order_relaxed);
}  // `surplus` is freed here, after the lock is released

}  // namespace cops

// Heap-allocation counter for the request-path benchmark and the
// allocation-counting perf-smoke test.
//
// Exactly one translation unit per executable defines
// COPS_ALLOC_COUNTER_IMPLEMENT before including this header; that TU
// provides replacement global operator new/delete which route through
// std::malloc/std::free and bump a thread-local counter pair.  Everything
// else includes the header plainly and only sees the accessor.
//
// The counters are thread-local on purpose: the measured decode loops are
// single-threaded, and thread-locality means background threads (none in
// the benches, but cheap insurance) cannot pollute a measurement window.
//
// Beside them the interposer keeps one process-wide figure, the live heap:
// the malloc_usable_size() of every block operator new handed out and
// operator delete has not yet taken back, summed over all threads.  It is
// what a server's idle connections cost, wherever they were allocated.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cops::bench {

struct AllocCounters {
  uint64_t count = 0;  // operator-new invocations on this thread
  uint64_t bytes = 0;  // bytes those invocations requested
};

// This thread's live counters (zero-initialised on first use).
AllocCounters& alloc_counters();

inline void reset_alloc_counters() { alloc_counters() = AllocCounters{}; }

// Bytes currently held by operator-new blocks, process-wide.
int64_t live_heap_bytes();

}  // namespace cops::bench

#ifdef COPS_ALLOC_COUNTER_IMPLEMENT

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

// GCC pairs the visible malloc-backed operator new with the free() inside
// operator delete at STL inlining sites and warns, even though the pair is
// symmetric by construction.  Implement-TU only, so scoped to this block.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace cops::bench {

AllocCounters& alloc_counters() {
  // Trivially-constructible thread_local: its initialisation cannot recurse
  // into operator new.
  thread_local AllocCounters counters;
  return counters;
}

namespace alloc_counter_detail {

// Constant-initialised, so it is usable before any constructor runs.
inline std::atomic<int64_t> live_bytes{0};

inline void* track(void* p) {
  if (p != nullptr) {
    live_bytes.fetch_add(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  }
  return p;
}

inline void counted_free(void* p) {
  if (p == nullptr) return;
  live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                       std::memory_order_relaxed);
  std::free(p);
}

inline void* counted_alloc(std::size_t size) {
  auto& c = alloc_counters();
  c.count += 1;
  c.bytes += size;
  // malloc(0) may return nullptr legally; operator new must not.
  return track(std::malloc(size == 0 ? 1 : size));
}

inline void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  auto& c = alloc_counters();
  c.count += 1;
  c.bytes += size;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return track(p);
}

}  // namespace alloc_counter_detail

int64_t live_heap_bytes() {
  return alloc_counter_detail::live_bytes.load(std::memory_order_relaxed);
}

}  // namespace cops::bench

using cops::bench::alloc_counter_detail::counted_free;

void* operator new(std::size_t size) {
  void* p = cops::bench::alloc_counter_detail::counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = cops::bench::alloc_counter_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return cops::bench::alloc_counter_detail::counted_aligned_alloc(
      size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

#endif  // COPS_ALLOC_COUNTER_IMPLEMENT

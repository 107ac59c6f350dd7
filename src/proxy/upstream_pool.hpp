// Per-backend keep-alive pools for the proxy's upstream connections.
//
// The pool is deliberately passive — no reactor, no timers, no I/O — so its
// lifecycle invariants (cap enforcement, LIFO idle reuse, idle caps) are
// unit-testable in isolation (tests/proxy_pool_test.cpp), and the
// ProxyServer composes it with the Connector for the active half:
//
//   acquire()        idle socket available → kReused (pop the most recently
//                    parked one: LIFO keeps the hottest keep-alive socket in
//                    rotation and lets the coldest age out);
//                    under the cap → kConnect (the caller owes a connect);
//                    at the cap → kAtCapacity (the caller queues).
//   acquire_fresh()  the stale-retry path: a reused socket that died before
//                    any response byte is retried exactly once on a brand
//                    new connection — idle reuse is bypassed so the retry
//                    cannot land on another stale socket from the same era.
//   release()        returns a connection; it is re-parked only when the
//                    caller says it is reusable and both the idle and total
//                    caps allow.
//
// Counters are relaxed atomics so tests and the admin endpoint can read
// them from other threads without a reactor hop.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>

#include "net/socket.hpp"

namespace cops::proxy {

class UpstreamPool {
 public:
  struct Config {
    size_t max_per_backend = 8;       // in-flight + idle connections
    size_t max_idle_per_backend = 8;  // parked connections
  };

  enum class Acquire {
    kReused,      // *out holds a parked keep-alive socket
    kConnect,     // admitted under the cap; the caller owes a connect
    kAtCapacity,  // cap reached; the caller must wait for a release
  };

  UpstreamPool(size_t backend_count, Config config);
  // One more backend slot (the proxy adds backends one at a time).
  void add_backend() { slots_.emplace_back(); }

  // All accounting methods are reactor-thread-only (tests drive them from
  // one thread); the counters alone are cross-thread readable.
  Acquire acquire(size_t backend, net::TcpSocket* out);
  Acquire acquire_fresh(size_t backend);

  // Returns connection ownership for `backend`.  `reusable` means the
  // exchange ended cleanly on a keep-alive response with no trailing bytes;
  // anything else (poisoned, close-delimited, errored) closes the socket.
  void release(size_t backend, net::TcpSocket socket, bool reusable);
  // A connect admitted via acquire()/acquire_fresh() that never produced a
  // socket (connect failure): frees the cap slot.
  void abandon(size_t backend);

  [[nodiscard]] size_t in_use(size_t backend) const;
  [[nodiscard]] size_t idle(size_t backend) const;

  [[nodiscard]] uint64_t reuse_total() const {
    return reuse_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t miss_total() const {
    return miss_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] uint64_t stale_retry_total() const {
    return stale_retry_.load(std::memory_order_relaxed);
  }

  // Closes every idle connection (server stop).
  void close_all();

 private:
  struct Slot {
    std::deque<net::TcpSocket> idle;  // back = most recently parked
    size_t in_use = 0;
  };

  Config config_;
  std::deque<Slot> slots_;  // deque: add_backend() never moves a slot
  std::atomic<uint64_t> reuse_{0};
  std::atomic<uint64_t> miss_{0};
  std::atomic<uint64_t> stale_retry_{0};
};

}  // namespace cops::proxy

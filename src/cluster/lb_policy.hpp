// Backend selection for the cluster front ends.
//
// The LoadBalancer (relay data plane) and the ProxyServer (streaming L7
// data plane, src/proxy) both order their backends through one BackendSet,
// so a policy behaves the same whichever front end hosts it:
//
//   * round-robin     — a cursor that steps once per admission, reduced
//                       modulo the backend count.
//   * least-loaded    — smallest current load first, ties by lowest index
//                       (deterministic).
//   * P2C             — power-of-two-choices: two distinct candidates from
//                       the set's seeded PRNG, keep the less loaded one,
//                       then the backends after it in index order.
//                       Near-least-loaded balance at O(1) cost and without
//                       the herding a global argmin causes.
//   * ring hash       — consistent hashing over `vnodes` virtual nodes per
//                       backend; a key (e.g. the request path) maps to the
//                       first vnode clockwise.  A backend's vnodes depend
//                       only on its index, so a ring without the last
//                       backend moves only the keys that backend owned.
//
// What each tier does with the order stays with the tier: the proxy takes
// the first backend; the balancer filters the order through its breaker,
// health and slow-start passes.  The set is fixed once the tier starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string_view>
#include <vector>

#include "net/inet_address.hpp"

namespace cops::cluster {

enum class BalancePolicy {
  kRoundRobin,
  kLeastConnections,
  // Power of two choices: two seeded-PRNG candidates, keep the less loaded
  // (near-least-loaded balance without global-argmin herding).
  kPowerOfTwoChoices,
  // Consistent-hash affinity: a per-admission key (client IP in the
  // balancer; request path in the L7 proxy) owns a stable backend.
  kRingHash,
};

[[nodiscard]] const char* to_string(BalancePolicy policy);
// Inverse of to_string; nullopt for an unknown name.
[[nodiscard]] std::optional<BalancePolicy> parse_balance_policy(
    std::string_view name);

// Power of two choices: draws two distinct indices from `rng` and returns
// the one with the smaller load (ties: the first drawn).  With one backend
// it degenerates to index 0.  `loads` must be non-empty.
[[nodiscard]] size_t pick_p2c(std::mt19937_64& rng,
                              const std::vector<size_t>& loads);

// Consistent-hash ring (Karger-style, FNV-1a hashed vnodes).
class HashRing {
 public:
  // Builds a ring over backends [0, backend_count) with `vnodes` virtual
  // nodes each.  A backend's vnode points depend only on its index, so a
  // ring over fewer backends gives every remaining backend the same keys.
  // Deterministic: same inputs, same ring.
  void build(size_t backend_count, size_t vnodes = 64);

  // Preference order for `key`: the owner (the first backend clockwise from
  // hash(key)) first, then each subsequent distinct backend clockwise — the
  // retry order that preserves affinity.  Empty on an empty ring.
  [[nodiscard]] std::vector<size_t> pick_order(std::string_view key) const;

 private:
  // (point on the ring, backend index), sorted by point.
  std::vector<std::pair<uint64_t, size_t>> ring_;
  size_t backend_count_ = 0;
};

[[nodiscard]] uint64_t fnv1a64(std::string_view bytes);

// The backends of one front end and the policy that orders them.  Owns the
// addresses, the per-backend load (the tier decides what a unit of load
// is), the round-robin cursor, the seeded PRNG and the hash ring.  Backends
// are added before the tier starts and never removed.  Not thread-safe:
// the owning tier uses it on its reactor thread.
class BackendSet {
 public:
  BackendSet(BalancePolicy policy, uint64_t seed);

  void add(const net::InetAddress& addr);

  [[nodiscard]] size_t size() const { return addrs_.size(); }
  [[nodiscard]] const net::InetAddress& address(size_t index) const {
    return addrs_[index];
  }
  [[nodiscard]] size_t load(size_t index) const { return loads_[index]; }
  void add_load(size_t index) { loads_[index] += 1; }
  void release_load(size_t index) {
    if (loads_[index] > 0) loads_[index] -= 1;
  }

  // Starts one admission: steps the round-robin cursor once.
  void admit() { admissions_ += 1; }
  // Every backend, in the current admission's preference order under the
  // policy.  Under P2C each call draws its two candidates afresh.
  [[nodiscard]] std::vector<size_t> order(std::string_view affinity_key);

  // The set's seeded stream; a tier draws its own randomness (breaker
  // jitter, slow start) from it so one seed replays the whole front end.
  [[nodiscard]] std::mt19937_64& rng() { return rng_; }

 private:
  BalancePolicy policy_;
  std::vector<net::InetAddress> addrs_;
  std::vector<size_t> loads_;  // parallel to addrs_ (pick_p2c's input)
  uint64_t admissions_ = 0;  // the round-robin cursor
  std::mt19937_64 rng_;
  HashRing ring_;  // kRingHash only
};

}  // namespace cops::cluster

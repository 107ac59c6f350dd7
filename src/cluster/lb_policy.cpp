#include "cluster/lb_policy.hpp"

#include <algorithm>
#include <numeric>
#include <string>

namespace cops::cluster {

const char* to_string(BalancePolicy policy) {
  switch (policy) {
    case BalancePolicy::kRoundRobin:
      return "round_robin";
    case BalancePolicy::kLeastConnections:
      return "least_connections";
    case BalancePolicy::kPowerOfTwoChoices:
      return "p2c";
    case BalancePolicy::kRingHash:
      return "ring_hash";
  }
  return "?";
}

std::optional<BalancePolicy> parse_balance_policy(std::string_view name) {
  for (const auto policy :
       {BalancePolicy::kRoundRobin, BalancePolicy::kLeastConnections,
        BalancePolicy::kPowerOfTwoChoices, BalancePolicy::kRingHash}) {
    if (name == to_string(policy)) return policy;
  }
  return std::nullopt;
}

size_t pick_p2c(std::mt19937_64& rng, const std::vector<size_t>& loads) {
  const size_t n = loads.size();
  if (n <= 1) return 0;
  const auto a = static_cast<size_t>(rng() % n);
  auto b = static_cast<size_t>(rng() % (n - 1));
  if (b >= a) ++b;  // distinct second choice, uniform over the rest
  return loads[b] < loads[a] ? b : a;
}

uint64_t fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void HashRing::build(size_t backend_count, size_t vnodes) {
  ring_.clear();
  backend_count_ = backend_count;
  ring_.reserve(backend_count * vnodes);
  for (size_t backend = 0; backend < backend_count; ++backend) {
    for (size_t v = 0; v < vnodes; ++v) {
      const std::string label =
          "backend-" + std::to_string(backend) + "#" + std::to_string(v);
      ring_.emplace_back(fnv1a64(label), backend);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::vector<size_t> HashRing::pick_order(std::string_view key) const {
  std::vector<size_t> order;
  if (ring_.empty()) return order;
  order.reserve(backend_count_);
  std::vector<bool> seen(backend_count_, false);
  const uint64_t point = fnv1a64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, uint64_t value) { return entry.first < value; });
  for (size_t walked = 0; walked < ring_.size() && order.size() < backend_count_;
       ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
    }
  }
  return order;
}

// ---- BackendSet ---------------------------------------------------------------

BackendSet::BackendSet(BalancePolicy policy, uint64_t seed)
    : policy_(policy), rng_(seed) {}

void BackendSet::add(const net::InetAddress& addr) {
  addrs_.push_back(addr);
  loads_.push_back(0);
  if (policy_ == BalancePolicy::kRingHash) ring_.build(addrs_.size());
}

std::vector<size_t> BackendSet::order(std::string_view affinity_key) {
  if (policy_ == BalancePolicy::kRingHash) return ring_.pick_order(affinity_key);
  const size_t n = addrs_.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (n == 0) return order;
  if (policy_ == BalancePolicy::kLeastConnections) {
    std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
      return loads_[a] < loads_[b];
    });
    return order;
  }
  // Round robin and P2C: the pick first, then the rest in index order.
  const size_t first = policy_ == BalancePolicy::kPowerOfTwoChoices
                           ? pick_p2c(rng_, loads_)
                           : static_cast<size_t>((admissions_ - 1) % n);
  std::rotate(order.begin(), order.begin() + static_cast<long>(first),
              order.end());
  return order;
}

}  // namespace cops::cluster

#include "cluster/lb_policy.hpp"

#include <algorithm>
#include <limits>
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

size_t pick_round_robin(uint64_t cursor, size_t backend_count) {
  if (backend_count == 0) return 0;
  return static_cast<size_t>(cursor % backend_count);
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

void HashRing::build(const std::vector<uint64_t>& ids, size_t vnodes) {
  ring_.clear();
  backend_count_ = ids.size();
  ring_.reserve(ids.size() * vnodes);
  for (size_t backend = 0; backend < ids.size(); ++backend) {
    for (size_t v = 0; v < vnodes; ++v) {
      const std::string label =
          "backend-" + std::to_string(ids[backend]) + "#" + std::to_string(v);
      ring_.emplace_back(fnv1a64(label), backend);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

size_t HashRing::pick(std::string_view key) const {
  if (ring_.empty()) return std::numeric_limits<size_t>::max();
  const uint64_t point = fnv1a64(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const auto& entry, uint64_t value) { return entry.first < value; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
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
  members_.push_back(Member{addr, next_id_++, false});
  loads_.push_back(0);
  rebuild_ring();
}

void BackendSet::remove(size_t index) {
  members_.erase(members_.begin() + static_cast<long>(index));
  loads_.erase(loads_.begin() + static_cast<long>(index));
  rebuild_ring();
}

bool BackendSet::set_draining(size_t index, bool draining) {
  if (members_[index].draining == draining) return false;
  members_[index].draining = draining;
  return true;
}

void BackendSet::rebuild_ring() {
  if (policy_ != BalancePolicy::kRingHash) return;
  std::vector<uint64_t> ids;
  ids.reserve(members_.size());
  for (const auto& member : members_) ids.push_back(member.id);
  ring_.build(ids);
}

std::vector<size_t> BackendSet::order(std::string_view affinity_key) {
  if (policy_ == BalancePolicy::kRingHash) return ring_.pick_order(affinity_key);
  const size_t n = members_.size();
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
                           : pick_round_robin(admissions_ - 1, n);
  std::rotate(order.begin(), order.begin() + static_cast<long>(first),
              order.end());
  return order;
}

}  // namespace cops::cluster

#include "proxy/upstream_pool.hpp"

namespace cops::proxy {

UpstreamPool::UpstreamPool(size_t backend_count, Config config)
    : config_(config), slots_(backend_count) {}

UpstreamPool::Acquire UpstreamPool::acquire(size_t backend,
                                            net::TcpSocket* out) {
  Slot& slot = slots_.at(backend);
  if (!slot.idle.empty()) {
    *out = std::move(slot.idle.back());
    slot.idle.pop_back();
    slot.in_use += 1;
    reuse_.fetch_add(1, std::memory_order_relaxed);
    return Acquire::kReused;
  }
  if (slot.in_use >= config_.max_per_backend) return Acquire::kAtCapacity;
  slot.in_use += 1;
  miss_.fetch_add(1, std::memory_order_relaxed);
  return Acquire::kConnect;
}

UpstreamPool::Acquire UpstreamPool::acquire_fresh(size_t backend) {
  Slot& slot = slots_.at(backend);
  // Total cap counts the idle sockets too: a fresh admission at the cap
  // evicts the oldest idle connection rather than failing the retry.
  if (slot.in_use + slot.idle.size() >= config_.max_per_backend &&
      !slot.idle.empty()) {
    slot.idle.front().close();
    slot.idle.pop_front();
  }
  if (slot.in_use >= config_.max_per_backend) return Acquire::kAtCapacity;
  slot.in_use += 1;
  stale_retry_.fetch_add(1, std::memory_order_relaxed);
  return Acquire::kConnect;
}

void UpstreamPool::release(size_t backend, net::TcpSocket socket,
                           bool reusable) {
  Slot& slot = slots_.at(backend);
  if (slot.in_use > 0) slot.in_use -= 1;
  if (reusable && socket.valid() &&
      slot.idle.size() < config_.max_idle_per_backend &&
      slot.in_use + slot.idle.size() < config_.max_per_backend) {
    slot.idle.push_back(std::move(socket));
    return;
  }
  socket.close();
}

void UpstreamPool::abandon(size_t backend) {
  Slot& slot = slots_.at(backend);
  if (slot.in_use > 0) slot.in_use -= 1;
}

void UpstreamPool::drain(size_t backend) {
  Slot& slot = slots_.at(backend);
  for (auto& socket : slot.idle) socket.close();
  slot.idle.clear();
}

size_t UpstreamPool::in_use(size_t backend) const {
  return slots_.at(backend).in_use;
}

size_t UpstreamPool::idle(size_t backend) const {
  return slots_.at(backend).idle.size();
}

void UpstreamPool::close_all() {
  for (auto& slot : slots_) {
    for (auto& socket : slot.idle) socket.close();
    slot.idle.clear();
  }
}

}  // namespace cops::proxy

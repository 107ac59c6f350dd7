// Cache replacement policies (option O6).
//
// The N-Server template offers five built-in web-cache replacement policies
// — LRU, LFU, LRU-MIN, LRU-Threshold (Abrams et al., 1995) and Hyper-G
// (Williams et al., 1996) — plus a Custom hook, "a hook method that is
// called automatically at the appropriate time" for user-defined policies.
//
// The FileCache owns the one entry table and keeps its entries in a list,
// most recently used first; a policy reads that list to pick a victim and
// keeps no state of its own.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>

#include "nserver/options.hpp"

namespace cops::nserver {

struct CacheEntryInfo {
  std::string key;
  size_t size = 0;
  uint64_t access_count = 0;
  uint64_t last_access_seq = 0;  // monotonically increasing access stamp
};

// The live entries, most recently used first: last_access_seq falls
// strictly from front() to back().
using CacheEntryList = std::list<CacheEntryInfo>;

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  // Admission check — may reject caching an object outright (LRU-Threshold
  // refuses files larger than its size threshold).
  [[nodiscard]] virtual bool admit(const std::string& key, size_t size) const {
    (void)key;
    (void)size;
    return true;
  }

  // Chooses the entry to evict to make room for `incoming_size` bytes;
  // nullopt refuses (the cache then declines the insert).
  [[nodiscard]] virtual std::optional<std::string> choose_victim(
      const CacheEntryList& entries, size_t incoming_size) = 0;

  [[nodiscard]] virtual const char* name() const = 0;
};

// Custom policy hook signature: given the live entries (most recently used
// first) and the incoming object size, return the key to evict.
using CustomEvictionHook = std::function<std::optional<std::string>(
    const CacheEntryList& entries, size_t incoming_size)>;

// Factory covering every built-in kind; kCustom requires `hook`.
// kLruThreshold uses `size_threshold` as the largest cacheable object.
std::unique_ptr<CachePolicy> make_cache_policy(
    CachePolicyKind kind, size_t size_threshold = 64 * 1024,
    CustomEvictionHook hook = nullptr);

}  // namespace cops::nserver

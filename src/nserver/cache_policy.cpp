#include "nserver/cache_policy.hpp"

#include <algorithm>

namespace cops::nserver {
namespace {

// The entry list runs from most to least recently used, so the least
// recently used entry is back() and a scan from the back meets entries in
// access order.  Access stamps are unique, which makes every policy's
// choice below a single well-defined entry.

std::optional<std::string> key_of(const CacheEntryInfo* info) {
  if (info == nullptr) return std::nullopt;
  return info->key;
}

// The least frequently used entry; among equals, the least recently used.
const CacheEntryInfo* least_frequent(const CacheEntryList& entries) {
  const CacheEntryInfo* victim = nullptr;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (victim == nullptr || it->access_count < victim->access_count) {
      victim = &*it;
    }
  }
  return victim;
}

// Least Recently Used: O(1).
class LruPolicy : public CachePolicy {
 public:
  std::optional<std::string> choose_victim(const CacheEntryList& entries,
                                           size_t) override {
    if (entries.empty()) return std::nullopt;
    return entries.back().key;
  }
  [[nodiscard]] const char* name() const override { return "LRU"; }
};

// Least Frequently Used; LRU tie-break.
class LfuPolicy : public CachePolicy {
 public:
  std::optional<std::string> choose_victim(const CacheEntryList& entries,
                                           size_t) override {
    return key_of(least_frequent(entries));
  }
  [[nodiscard]] const char* name() const override { return "LFU"; }
};

// LRU-MIN (Abrams et al., 1995): prefer evicting *large* documents so many
// small popular ones survive.  To admit an object of size S, evict the
// least-recently-used entry among those of size >= S; if none qualifies,
// halve S and retry.
class LruMinPolicy : public CachePolicy {
 public:
  std::optional<std::string> choose_victim(const CacheEntryList& entries,
                                           size_t incoming_size) override {
    if (entries.empty()) return std::nullopt;
    size_t threshold = std::max<size_t>(incoming_size, 1);
    while (true) {
      for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        if (it->size >= threshold) return it->key;
      }
      if (threshold <= 1) break;
      threshold /= 2;
    }
    // Degenerate: only empty entries are left — plain LRU.
    return entries.back().key;
  }
  [[nodiscard]] const char* name() const override { return "LRU-MIN"; }
};

// LRU-Threshold (Abrams et al., 1995): plain LRU, but objects above a size
// threshold are never cached at all.
class LruThresholdPolicy : public LruPolicy {
 public:
  explicit LruThresholdPolicy(size_t threshold) : threshold_(threshold) {}
  [[nodiscard]] bool admit(const std::string&, size_t size) const override {
    return size <= threshold_;
  }
  [[nodiscard]] const char* name() const override { return "LRU-Threshold"; }

 private:
  size_t threshold_;
};

// Hyper-G (Williams et al., 1996): evict by least frequency, breaking ties
// by least recent use, breaking remaining ties by largest size.  The third
// key never decides, since no two entries share an access stamp.
class HyperGPolicy : public CachePolicy {
 public:
  std::optional<std::string> choose_victim(const CacheEntryList& entries,
                                           size_t) override {
    return key_of(least_frequent(entries));
  }
  [[nodiscard]] const char* name() const override { return "Hyper-G"; }
};

// Custom: delegates the victim choice to the user hook (the N-Server's
// "implement a different cache replacement policy by simply adding code to
// a hook method").
class CustomPolicy : public CachePolicy {
 public:
  explicit CustomPolicy(CustomEvictionHook hook) : hook_(std::move(hook)) {}
  std::optional<std::string> choose_victim(const CacheEntryList& entries,
                                           size_t incoming_size) override {
    if (!hook_) return std::nullopt;
    return hook_(entries, incoming_size);
  }
  [[nodiscard]] const char* name() const override { return "Custom"; }

 private:
  CustomEvictionHook hook_;
};

}  // namespace

std::unique_ptr<CachePolicy> make_cache_policy(CachePolicyKind kind,
                                               size_t size_threshold,
                                               CustomEvictionHook hook) {
  switch (kind) {
    case CachePolicyKind::kNone: return nullptr;
    case CachePolicyKind::kLru: return std::make_unique<LruPolicy>();
    case CachePolicyKind::kLfu: return std::make_unique<LfuPolicy>();
    case CachePolicyKind::kLruMin: return std::make_unique<LruMinPolicy>();
    case CachePolicyKind::kLruThreshold:
      return std::make_unique<LruThresholdPolicy>(size_threshold);
    case CachePolicyKind::kHyperG: return std::make_unique<HyperGPolicy>();
    case CachePolicyKind::kCustom:
      return std::make_unique<CustomPolicy>(std::move(hook));
  }
  return nullptr;
}

}  // namespace cops::nserver

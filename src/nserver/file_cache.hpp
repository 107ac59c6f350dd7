// FileCache — transparent in-memory file cache (option O6).
//
// "To relieve users from the burden of implementing a file cache, the
// N-Server can be configured to generate code that automatically caches disk
// files in memory" (paper, Section IV).  COPS-HTTP runs with a 20 MB LRU
// cache.  The cache is byte-capacity bounded; the replacement policy is a
// strategy object (see cache_policy.hpp).
//
// One table: a hash map from key to entry, and the entries' metadata in a
// list kept most recently used first.  A hit costs one hash lookup and a
// splice to the front; LRU takes its victim from the back in O(1).
//
// Thread-safe: hook methods running on any Event Processor thread may look
// up and insert concurrently.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/clock.hpp"
#include "nserver/cache_policy.hpp"
#include "nserver/file_io_service.hpp"

namespace cops::nserver {

class FileCache {
 public:
  FileCache(std::unique_ptr<CachePolicy> policy, size_t capacity_bytes);

  // How long an entry may be served before its on-disk mtime/size are
  // re-checked (0 = re-check on every lookup).
  void set_revalidate_interval(std::chrono::milliseconds interval) {
    revalidate_interval_ = interval;
  }

  // nullptr on miss.  A hit bumps the entry's recency/frequency stamps and
  // moves it to the front of the recency list.
  // A hit whose backing file changed on disk (mtime or size mismatch) or
  // disappeared is invalidated — dropped and reported as a miss — so a
  // modified file is never served stale beyond the revalidate interval.
  [[nodiscard]] FileDataPtr lookup(const std::string& key);

  // Inserts (evicting per policy as needed).  Returns false when the policy
  // refused admission or the object alone exceeds capacity.
  bool insert(const std::string& key, FileDataPtr data);

  [[nodiscard]] size_t size_bytes() const { return size_bytes_; }
  [[nodiscard]] size_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] size_t entry_count() const;

  [[nodiscard]] uint64_t hits() const { return hits_.load(); }
  [[nodiscard]] uint64_t misses() const { return misses_.load(); }
  [[nodiscard]] uint64_t evictions() const { return evictions_.load(); }
  [[nodiscard]] uint64_t invalidations() const { return invalidations_.load(); }
  [[nodiscard]] double hit_rate() const;
  [[nodiscard]] const char* policy_name() const {
    return policy_ ? policy_->name() : "None";
  }

 private:
  struct Entry {
    FileDataPtr data;
    CacheEntryList::iterator info;  // this entry's node in recency_
    TimePoint last_validated{};
  };

  void erase_locked(const std::string& key);
  // True when the entry still matches the on-disk file (mutex held).
  [[nodiscard]] bool revalidate_locked(const std::string& key, Entry& entry);

  std::unique_ptr<CachePolicy> policy_;
  size_t capacity_bytes_;
  std::chrono::milliseconds revalidate_interval_{1000};

  mutable std::mutex mutex_;
  // Keyed by views of the key strings held in recency_'s nodes, which
  // stay put while the entry lives (splice moves no node).
  std::unordered_map<std::string_view, Entry> entries_;
  CacheEntryList recency_;
  size_t size_bytes_ = 0;
  uint64_t access_seq_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> invalidations_{0};
};

}  // namespace cops::nserver

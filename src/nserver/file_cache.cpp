#include "nserver/file_cache.hpp"

#include <sys/stat.h>

namespace cops::nserver {

FileCache::FileCache(std::unique_ptr<CachePolicy> policy,
                     size_t capacity_bytes)
    : policy_(std::move(policy)), capacity_bytes_(capacity_bytes) {}

bool FileCache::revalidate_locked(const std::string& key, Entry& entry) {
  const auto current = now();
  if (revalidate_interval_.count() > 0 &&
      entry.last_validated != TimePoint{} &&
      current - entry.last_validated < revalidate_interval_) {
    return true;  // checked recently enough
  }
  struct stat st{};
  if (::stat(key.c_str(), &st) != 0 ||
      static_cast<int64_t>(st.st_mtime) != entry.data->mtime_seconds ||
      static_cast<size_t>(st.st_size) != entry.data->size()) {
    return false;  // file changed or vanished: the entry is stale
  }
  entry.last_validated = current;
  return true;
}

FileDataPtr FileCache::lookup(const std::string& key) {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (!revalidate_locked(key, it->second)) {
    erase_locked(key);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    // The caller re-reads the file and re-inserts; account it as a miss.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  Entry& entry = it->second;
  entry.info->access_count += 1;
  entry.info->last_access_seq = ++access_seq_;
  recency_.splice(recency_.begin(), recency_, entry.info);
  return entry.data;
}

bool FileCache::insert(const std::string& key, FileDataPtr data) {
  if (!data) return false;
  const size_t size = data->size();
  std::lock_guard lock(mutex_);
  if (policy_ == nullptr) return false;  // cache disabled
  if (!policy_->admit(key, size)) return false;
  if (size > capacity_bytes_) return false;

  // Replace an existing entry under the same key.
  erase_locked(key);

  // Evict until the object fits.
  while (size_bytes_ + size > capacity_bytes_) {
    auto victim = policy_->choose_victim(recency_, size);
    if (!victim || entries_.count(*victim) == 0) return false;
    erase_locked(*victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }

  const auto info = recency_.insert(
      recency_.begin(), CacheEntryInfo{key, size, /*access_count=*/1,
                                       /*last_access_seq=*/++access_seq_});
  entries_.emplace(info->key, Entry{std::move(data), info, now()});
  size_bytes_ += size;
  return true;
}

void FileCache::erase_locked(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  const auto info = it->second.info;
  size_bytes_ -= info->size;
  entries_.erase(it);  // first: its key views the node's string
  recency_.erase(info);
}

size_t FileCache::entry_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

double FileCache::hit_rate() const {
  const uint64_t h = hits_.load();
  const uint64_t m = misses_.load();
  return (h + m) == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
}

}  // namespace cops::nserver

#include "nserver/profiler.hpp"

#include <unordered_map>

namespace cops::nserver {

uint64_t Profiler::next_instance_id() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

Profiler::StageShard& Profiler::local_shard() {
  // One cache per thread mapping profiler id → that thread's shard.  The
  // shard itself is owned by the profiler (shards_), so a thread exiting
  // never invalidates merged data; a profiler dying leaves a dangling map
  // entry that can never be looked up again (ids are not recycled).
  thread_local std::unordered_map<uint64_t, StageShard*> cache;
  auto it = cache.find(instance_id_);
  if (it != cache.end()) return *it->second;
  auto shard = std::make_unique<StageShard>();
  StageShard* raw = shard.get();
  {
    std::lock_guard lock(shards_mutex_);
    shards_.push_back(std::move(shard));
  }
  cache.emplace(instance_id_, raw);
  return *raw;
}

void Profiler::record_stage(Stage stage, int64_t micros) {
  if (micros < 0) return;  // stage skipped (missing stamp)
  local_shard().histograms[static_cast<size_t>(stage)].record(micros);
}

std::array<Histogram, kStageCount> Profiler::merged_stages() const {
  std::array<Histogram, kStageCount> merged;
  std::lock_guard lock(shards_mutex_);
  for (const auto& shard : shards_) {
    for (size_t i = 0; i < kStageCount; ++i) {
      merged[i].merge(shard->histograms[i]);
    }
  }
  return merged;
}

ProfilerSnapshot Profiler::snapshot(uint64_t events_processed,
                                    double cache_hit_rate,
                                    uint64_t cache_invalidations) const {
  ProfilerSnapshot s;
  s.connections_accepted = accepts_.load();
  s.connections_closed = closes_.load();
  s.connections_rejected = rejects_.load();
  s.bytes_read = bytes_read_.load();
  s.bytes_sent = bytes_sent_.load();
  s.requests_decoded = requests_.load();
  s.replies_sent = replies_.load();
  s.decode_errors = decode_errors_.load();
  s.idle_shutdowns = idle_shutdowns_.load();
  s.header_timeouts = header_timeouts_.load();
  s.overload_suspensions = suspensions_.load();
  s.requests_shed = sheds_.load();
  s.per_ip_rejections = per_ip_rejects_.load();
  s.send_writev_calls = send_writevs_.load();
  s.send_bytes_copied = send_copied_.load();
  s.send_sendfile_bytes = send_sendfile_.load();
  s.events_processed = events_processed;
  s.cache_hit_rate = cache_hit_rate;
  s.cache_invalidations = cache_invalidations;
  s.stages = merged_stages();
  return s;
}


}  // namespace cops::nserver

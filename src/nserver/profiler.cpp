#include "nserver/profiler.hpp"

#include <sstream>
#include <unordered_map>

namespace cops::nserver {

std::string ProfilerSnapshot::to_string() const {
  std::ostringstream out;
  out << "accepted=" << connections_accepted
      << " closed=" << connections_closed
      << " rejected=" << connections_rejected
      << " bytes_read=" << bytes_read << " bytes_sent=" << bytes_sent
      << " requests=" << requests_decoded << " replies=" << replies_sent
      << " decode_errors=" << decode_errors
      << " events=" << events_processed
      << " idle_shutdowns=" << idle_shutdowns
      << " header_timeouts=" << header_timeouts
      << " overload_suspensions=" << overload_suspensions
      << " requests_shed=" << requests_shed
      << " per_ip_rejections=" << per_ip_rejections
      << " cache_invalidations=" << cache_invalidations
      << " send_writev_calls=" << send_writev_calls
      << " send_bytes_copied=" << send_bytes_copied
      << " send_sendfile_bytes=" << send_sendfile_bytes
      << " send_chunked_replies=" << send_chunked_replies
      << " cache_hit_rate=" << cache_hit_rate;
  for (size_t i = 0; i < kStageCount; ++i) {
    if (stages[i].count() == 0) continue;
    out << "\n  " << nserver::to_string(static_cast<Stage>(i)) << ": "
        << stages[i].summary();
  }
  return out.str();
}

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
  s.send_chunked_replies = send_chunked_.load();
  s.events_processed = events_processed;
  s.cache_hit_rate = cache_hit_rate;
  s.cache_invalidations = cache_invalidations;
  s.stages = merged_stages();
  return s;
}

void Profiler::reset() {
  accepts_.store(0);
  closes_.store(0);
  rejects_.store(0);
  bytes_read_.store(0);
  bytes_sent_.store(0);
  requests_.store(0);
  replies_.store(0);
  decode_errors_.store(0);
  idle_shutdowns_.store(0);
  header_timeouts_.store(0);
  suspensions_.store(0);
  sheds_.store(0);
  per_ip_rejects_.store(0);
  send_writevs_.store(0);
  send_copied_.store(0);
  send_sendfile_.store(0);
  send_chunked_.store(0);
  std::lock_guard lock(shards_mutex_);
  for (auto& shard : shards_) {
    for (auto& histogram : shard->histograms) histogram.reset();
  }
}

}  // namespace cops::nserver

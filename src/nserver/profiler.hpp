// Profiler — performance profiling (option O11).
//
// "Important statistical information of the server application can be
// automatically gathered ... the number of connections accepted, the number
// of bytes read, the number of bytes sent, the file cache hit rate, etc."
// (paper, Section IV).  Counters are relaxed atomics: profiling must not
// serialize the hot path.
//
// Beyond the paper's counters, the profiler keeps per-stage latency
// histograms over the five-step request cycle (queue wait, Decode, Handle,
// Encode, reply Write, plus end-to-end).  Recording goes to a thread-local
// shard — one histogram set per recording thread — so concurrent processor
// threads never contend on the same cache lines; shards are merged only
// when a scrape (admin /stats, snapshot) asks for them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"

namespace cops::nserver {

// Stages of the request cycle with recorded latency distributions.
enum class Stage : uint8_t {
  kQueueWait,  // submit → a processor thread picks the event up
  kDecode,     // pipeline start → Decode produced a request
  kHandle,     // Handle invoked → resolved (includes awaited file I/O)
  kEncode,     // resolve → Encode produced wire bytes
  kWrite,      // wire bytes queued → reply fully drained to the socket
  kTotal,      // pipeline start → reply drained (end-to-end)
};
inline constexpr size_t kStageCount = 6;

[[nodiscard]] constexpr const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kQueueWait: return "queue_wait";
    case Stage::kDecode: return "decode";
    case Stage::kHandle: return "handle";
    case Stage::kEncode: return "encode";
    case Stage::kWrite: return "write";
    case Stage::kTotal: return "total";
  }
  return "?";
}

struct ProfilerSnapshot {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_rejected = 0;  // max-connections limiter (O9)
  uint64_t bytes_read = 0;
  uint64_t bytes_sent = 0;
  uint64_t requests_decoded = 0;
  uint64_t replies_sent = 0;
  uint64_t decode_errors = 0;
  uint64_t events_processed = 0;
  uint64_t idle_shutdowns = 0;         // O7 reaper
  uint64_t header_timeouts = 0;        // O7+ slowloris reaper
  uint64_t overload_suspensions = 0;   // O9 watermark trips
  uint64_t requests_shed = 0;          // O9 shed tier (503 replies)
  uint64_t per_ip_rejections = 0;      // per-IP connection cap
  uint64_t cache_invalidations = 0;    // O6 stale entries dropped
  uint64_t send_writev_calls = 0;      // send path: completed writev gathers
  uint64_t send_bytes_copied = 0;      // bytes materialised per reply path
  uint64_t send_sendfile_bytes = 0;    // bytes moved by sendfile(2)
  uint64_t send_chunked_replies = 0;   // replies framed with chunked coding
  // Recycler totals, aggregated over every shard's context slab +
  // read-buffer pool by Server::profile().
  uint64_t pool_hits = 0;        // allocations served from a free-list
  uint64_t pool_misses = 0;      // pool had to grow (or oversize fallback)
  uint64_t pool_alloc_bytes = 0; // heap bytes the pools pulled in total
  double cache_hit_rate = 0.0;

  // Merged per-stage latency distributions (index by Stage).
  std::array<Histogram, kStageCount> stages;

  [[nodiscard]] std::string to_string() const;
};

class Profiler {
 public:
  void count_accept() { accepts_.fetch_add(1, kRelaxed); }
  void count_close() { closes_.fetch_add(1, kRelaxed); }
  void count_reject() { rejects_.fetch_add(1, kRelaxed); }
  void count_bytes_read(uint64_t n) { bytes_read_.fetch_add(n, kRelaxed); }
  void count_bytes_sent(uint64_t n) { bytes_sent_.fetch_add(n, kRelaxed); }
  void count_request() { requests_.fetch_add(1, kRelaxed); }
  void count_reply() { replies_.fetch_add(1, kRelaxed); }
  void count_decode_error() { decode_errors_.fetch_add(1, kRelaxed); }
  void count_idle_shutdown() { idle_shutdowns_.fetch_add(1, kRelaxed); }
  void count_header_timeout() { header_timeouts_.fetch_add(1, kRelaxed); }
  void count_overload_suspension() { suspensions_.fetch_add(1, kRelaxed); }
  void count_shed() { sheds_.fetch_add(1, kRelaxed); }
  void count_per_ip_reject() { per_ip_rejects_.fetch_add(1, kRelaxed); }
  void count_send_writev() { send_writevs_.fetch_add(1, kRelaxed); }
  void count_send_copied(uint64_t n) {
    send_copied_.fetch_add(n, kRelaxed);
  }
  void count_send_sendfile(uint64_t n) {
    send_sendfile_.fetch_add(n, kRelaxed);
  }
  void count_send_chunked() { send_chunked_.fetch_add(1, kRelaxed); }

  // Records a stage latency into this thread's shard.  Negative durations
  // (missing stamp — the stage was skipped) are dropped.
  void record_stage(Stage stage, int64_t micros);

  // Merges every thread's shard into one histogram set (scrape path only).
  [[nodiscard]] std::array<Histogram, kStageCount> merged_stages() const;

  [[nodiscard]] ProfilerSnapshot snapshot(uint64_t events_processed = 0,
                                          double cache_hit_rate = 0.0,
                                          uint64_t cache_invalidations = 0)
      const;
  void reset();

 private:
  struct StageShard {
    std::array<Histogram, kStageCount> histograms;
  };

  // This thread's shard, created and registered on first use.
  StageShard& local_shard();

  static constexpr auto kRelaxed = std::memory_order_relaxed;
  std::atomic<uint64_t> accepts_{0};
  std::atomic<uint64_t> closes_{0};
  std::atomic<uint64_t> rejects_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> replies_{0};
  std::atomic<uint64_t> decode_errors_{0};
  std::atomic<uint64_t> idle_shutdowns_{0};
  std::atomic<uint64_t> header_timeouts_{0};
  std::atomic<uint64_t> suspensions_{0};
  std::atomic<uint64_t> sheds_{0};
  std::atomic<uint64_t> per_ip_rejects_{0};
  std::atomic<uint64_t> send_writevs_{0};
  std::atomic<uint64_t> send_copied_{0};
  std::atomic<uint64_t> send_sendfile_{0};
  std::atomic<uint64_t> send_chunked_{0};

  // Profilers are identified by a never-recycled id so the thread-local
  // shard cache can never alias a new profiler with a destroyed one that
  // happened to share an address.
  const uint64_t instance_id_ = next_instance_id();
  static uint64_t next_instance_id();

  mutable std::mutex shards_mutex_;
  std::vector<std::unique_ptr<StageShard>> shards_;
};

}  // namespace cops::nserver

// Machine-readable server statistics (the O11+ admin export surface).
//
// A StatsSnapshot is everything an external scraper may assert against:
// the profiler's counters, the merged per-stage latency histograms, the
// live gauges (open connections, queue depth) and the cache counters.
// Server::stats_snapshot() assembles one; the renderers below serialize it
// as Prometheus text exposition format (/stats) or JSON (/stats.json), so
// tests and the load generator parse numbers instead of scraping logs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nserver/overload_manager.hpp"
#include "nserver/profiler.hpp"

namespace cops::nserver {

// Per-connection byte/request gauges (one live connection each).
struct ConnectionStats {
  uint64_t id = 0;
  std::string peer;
  uint64_t bytes_read = 0;
  uint64_t bytes_sent = 0;
  uint64_t requests = 0;
};

// Per-shard gauges (one entry per dispatcher): where accepts landed.
// Rendered with a `shard` label in Prometheus and as a "shards" array in
// JSON.
struct ShardStats {
  uint64_t shard = 0;
  uint64_t accepts = 0;
  uint64_t connections_open = 0;
  // Always 0: only perfbench's frozen cache.l1_hit_ratio still reads them.
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
};

struct StatsSnapshot {
  ProfilerSnapshot counters;

  // Gauges.
  uint64_t connections_open = 0;
  uint64_t queue_depth = 0;
  uint64_t processor_threads = 0;
  uint64_t file_io_pending = 0;

  // Cache (meaningful only when has_cache).
  bool has_cache = false;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  uint64_t cache_bytes = 0;
  uint64_t cache_capacity_bytes = 0;
  uint64_t cache_entries = 0;

  // Adaptive overload manager (overload = adaptive): per-monitor pressure
  // gauges and the current action tier, so loadgen runs can scrape the
  // control loop's trajectory.
  bool has_overload = false;
  OverloadSnapshot overload;

  std::vector<ShardStats> shards;
  std::vector<ConnectionStats> connections;
};

// Prometheus text exposition format, one `nserver_*` family per counter and
// a classic cumulative-bucket histogram per stage (seconds).
[[nodiscard]] std::string render_prometheus(const StatsSnapshot& snapshot);

// The same data as a single JSON object (per-connection gauges included).
[[nodiscard]] std::string render_json(const StatsSnapshot& snapshot);

}  // namespace cops::nserver

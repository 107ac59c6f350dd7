// Machine-readable statistics (the O11+ admin export surface) and the one
// writer that owns the exposition formats.
//
// Server::stats_snapshot() assembles a StatsSnapshot and write_stats() walks
// it.  MetricsWriter is the only code that writes Prometheus text (/stats)
// or JSON (/stats.json): each owner — the N-Server, the proxy, the load
// balancer — walks its state once and declares each metric once, by
// Prometheus name, JSON key, type, help text and value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
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

enum class MetricsFormat { kPrometheus, kJson };

class MetricsWriter {
 public:
  explicit MetricsWriter(MetricsFormat format) : format_(format) {}

  // One metric in both formats: Prometheus family `name`, JSON field `key`.
  // A flag is a 0/1 gauge in Prometheus and true/false in JSON.
  void counter(std::string_view name, std::string_view key,
               std::string_view help, uint64_t value) {
    put(name, key, help, "counter", number(value), number(value));
  }
  void gauge(std::string_view name, std::string_view key,
             std::string_view help, uint64_t value) {
    put(name, key, help, "gauge", number(value), number(value));
  }
  void gauge(std::string_view name, std::string_view key,
             std::string_view help, double value) {
    put(name, key, help, "gauge", number(value), number(value));
  }
  void flag(std::string_view name, std::string_view key,
            std::string_view help, bool value) {
    put(name, key, help, "gauge", value ? "1" : "0", value ? "true" : "false");
  }

  // JSON-only fields.
  void json(std::string_view key, uint64_t value) {
    put({}, key, {}, {}, {}, number(value));
  }
  void json(std::string_view key, double value, int decimals = 6) {
    put({}, key, {}, {}, {}, number(value, decimals));
  }
  void json_flag(std::string_view key, bool value) {
    put({}, key, {}, {}, {}, value ? "true" : "false");
  }
  void json_string(std::string_view key, std::string_view value);

  // Prometheus-only entries.  prometheus_family() fixes where a family goes
  // before its first sample; `labels` (e.g. `monitor="overall"`) follow the
  // current row's label; a histogram's buckets are the log2-microsecond
  // bucket uppers, in seconds.
  void prometheus_family(std::string_view name, std::string_view type,
                         std::string_view help) {
    if (format_ == MetricsFormat::kPrometheus) family(name, type, help);
  }
  void prometheus_gauge(std::string_view name, std::string_view help,
                        double value, std::string_view labels = {}) {
    put(name, {}, help, "gauge", number(value), {}, labels);
  }
  void prometheus_histogram(std::string_view name, std::string_view help,
                            const Histogram& histogram);

  // A nested JSON object.
  void begin_object(std::string_view key);
  void end_object();

  // Per-entity data.  Prometheus renders a table column-major: each metric
  // in a row is a sample of its family labelled `label`="id".  JSON renders
  // it row-major under `key`: an array of rows opening with "row_key":id, or
  // without a row_key an object of rows keyed by id.
  void begin_table(std::string_view key, std::string_view label,
                   std::string_view row_key = {});
  void row(uint64_t id) { open_row(number(id), false); }
  void row(std::string_view id) { open_row(id, true); }
  void end_table();

  [[nodiscard]] std::string finish();

 private:
  // Families keep the order of their first declaration and gather their
  // own samples, so each stays contiguous whatever the walk order.
  struct Family {
    std::string name;
    std::string text;  // HELP/TYPE header, then the samples
  };

  static std::string number(uint64_t value) { return std::to_string(value); }
  static std::string number(double value, int decimals = 6);
  // One entry: `prometheus` sampled into family `name`, or `json` as field
  // `key`; an empty name or key leaves that format out.
  void put(std::string_view name, std::string_view key, std::string_view help,
           std::string_view type, std::string_view prometheus,
           std::string_view json, std::string_view labels = {});
  std::string& family(std::string_view name, std::string_view type,
                      std::string_view help);
  // Appends `name{<row label>,labels} value` to a family's text.
  void sample(std::string& text, std::string_view name, std::string_view value,
              std::string_view labels = {}) const;
  void open_row(std::string_view id, bool is_string);

  MetricsFormat format_;
  std::vector<Family> families_;  // Prometheus, in declaration order
  std::string json_;       // JSON: the document inside its outer braces
  bool first_ = true;      // JSON: the open container is still empty
  bool in_row_ = false;    // JSON: a table row is open
  std::string row_key_;    // JSON: field naming each row ("" = keyed)
  std::string label_;      // Prometheus: the open table's label name
  std::string row_label_;  // Prometheus: `label="id"` of the current row
};

// The N-Server's statistics: write_stats() is the walk, render_prometheus()
// the whole document as Prometheus text.  The output is pinned byte for
// byte by the golden files under tests/golden/.
void write_stats(MetricsWriter& writer, const StatsSnapshot& snapshot);
[[nodiscard]] std::string render_prometheus(const StatsSnapshot& snapshot);

// An overload manager's state as an "overload" object whose Prometheus
// families are named `prefix` + pressure, tier, retry_after_seconds,
// accept_stopped (prefix "cops_overload_" in the server, "cops_proxy_
// overload_" in the proxy).
void write_overload(MetricsWriter& writer, std::string_view prefix,
                    const OverloadSnapshot& overload);

}  // namespace cops::nserver

#include "nserver/stats.hpp"

#include <cinttypes>
#include <cstdio>

namespace cops::nserver {
namespace {

void append_metric(std::string& out, const char* name, const char* type,
                   const char* help, uint64_t value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# HELP %s %s\n# TYPE %s %s\n%s %" PRIu64 "\n", name, help,
                name, type, name, value);
  out += buf;
}

void append_gauge_f(std::string& out, const char* name, const char* help,
                    double value) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "# HELP %s %s\n# TYPE %s gauge\n%s %.6f\n", name, help, name,
                name, value);
  out += buf;
}

// One Prometheus histogram family with a `stage` label per stage.  Bucket
// bounds are the log2-microsecond bucket uppers, expressed in seconds.
void append_stage_histograms(std::string& out,
                             const std::array<Histogram, kStageCount>& stages) {
  const char* name = "nserver_stage_latency_seconds";
  out += "# HELP nserver_stage_latency_seconds Request-cycle stage latency.\n";
  out += "# TYPE nserver_stage_latency_seconds histogram\n";
  char buf[256];
  for (size_t s = 0; s < kStageCount; ++s) {
    const char* stage = to_string(static_cast<Stage>(s));
    const Histogram& h = stages[s];
    uint64_t cumulative = 0;
    int64_t prev_upper = -1;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const uint64_t in_bucket = h.bucket_count(b);
      cumulative += in_bucket;
      const int64_t upper = Histogram::bucket_upper_micros(b);
      // Log2 buckets repeat the upper bound at the low end (1us); emit each
      // distinct bound once, and skip empty interior ones to keep the
      // exposition small (cumulative counts stay correct).
      if (upper == prev_upper) continue;
      prev_upper = upper;
      if (in_bucket == 0 && b + 1 < Histogram::kNumBuckets) continue;
      std::snprintf(buf, sizeof(buf), "%s_bucket{stage=\"%s\",le=\"%.6f\"} %" PRIu64
                    "\n",
                    name, stage, static_cast<double>(upper) / 1e6, cumulative);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "%s_bucket{stage=\"%s\",le=\"+Inf\"} %" PRIu64 "\n", name,
                  stage, h.count());
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_sum{stage=\"%s\"} %.6f\n", name, stage,
                  static_cast<double>(h.sum_micros()) / 1e6);
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_count{stage=\"%s\"} %" PRIu64 "\n",
                  name, stage, h.count());
    out += buf;
  }
}

void append_json_field(std::string& out, const char* key, uint64_t value,
                       bool trailing_comma = true) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, value,
                trailing_comma ? "," : "");
  out += buf;
}

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string render_prometheus(const StatsSnapshot& s) {
  std::string out;
  out.reserve(4096);
  const auto& c = s.counters;
  append_metric(out, "nserver_connections_accepted_total", "counter",
                "Connections accepted (O11).", c.connections_accepted);
  append_metric(out, "nserver_connections_closed_total", "counter",
                "Connections closed.", c.connections_closed);
  append_metric(out, "nserver_connections_rejected_total", "counter",
                "Connections rejected by the max-connections limiter (O9).",
                c.connections_rejected);
  append_metric(out, "nserver_bytes_read_total", "counter",
                "Bytes read from client sockets.", c.bytes_read);
  append_metric(out, "nserver_bytes_sent_total", "counter",
                "Bytes written to client sockets.", c.bytes_sent);
  append_metric(out, "nserver_requests_total", "counter",
                "Requests decoded.", c.requests_decoded);
  append_metric(out, "nserver_replies_total", "counter",
                "Replies fully sent.", c.replies_sent);
  append_metric(out, "nserver_decode_errors_total", "counter",
                "Malformed requests.", c.decode_errors);
  append_metric(out, "nserver_events_processed_total", "counter",
                "Events run by the Event Processor.", c.events_processed);
  append_metric(out, "nserver_idle_shutdowns_total", "counter",
                "Connections reaped by the idle timer (O7).",
                c.idle_shutdowns);
  append_metric(out, "nserver_header_timeouts_total", "counter",
                "Connections reaped mid-request by the slowloris timer.",
                c.header_timeouts);
  append_metric(out, "nserver_overload_suspensions_total", "counter",
                "Acceptor suspensions by the overload controller (O9).",
                c.overload_suspensions);
  append_metric(out, "nserver_requests_shed_total", "counter",
                "Requests answered 503 by the overload shed tier (O9).",
                c.requests_shed);
  append_metric(out, "nserver_per_ip_rejections_total", "counter",
                "Accepts rejected by the per-IP connection cap.",
                c.per_ip_rejections);
  append_metric(out, "cops_send_writev_calls_total", "counter",
                "Completed scatter-gather writev calls on the send path.",
                c.send_writev_calls);
  append_metric(out, "cops_send_bytes_copied_total", "counter",
                "Reply bytes materialised into owned buffers before send.",
                c.send_bytes_copied);
  append_metric(out, "cops_send_sendfile_bytes_total", "counter",
                "Reply bytes moved by sendfile(2) (files >= 256 KiB).",
                c.send_sendfile_bytes);
  append_metric(out, "cops_pool_hits_total", "counter",
                "Pool allocations served from a free-list.",
                c.pool_hits);
  append_metric(out, "cops_pool_misses_total", "counter",
                "Pool allocations that had to grow the pool.",
                c.pool_misses);
  append_metric(out, "cops_alloc_bytes_total", "counter",
                "Heap bytes acquired by the request-path pools.",
                c.pool_alloc_bytes);
  append_metric(out, "cops_alloc_live_bytes", "gauge",
                "Heap bytes the request-path pools hold now.",
                c.pool_live_bytes);
  append_metric(out, "nserver_connections_open", "gauge",
                "Currently open connections.", s.connections_open);
  append_metric(out, "nserver_processor_queue_depth", "gauge",
                "Events waiting in the processor queue.", s.queue_depth);
  append_metric(out, "nserver_processor_threads", "gauge",
                "Event-processor worker threads.", s.processor_threads);
  append_metric(out, "nserver_file_io_pending", "gauge",
                "Pending emulated non-blocking file reads (O4).",
                s.file_io_pending);
  if (s.has_cache) {
    append_metric(out, "nserver_cache_hits_total", "counter",
                  "File-cache hits (O6).", s.cache_hits);
    append_metric(out, "nserver_cache_misses_total", "counter",
                  "File-cache misses.", s.cache_misses);
    append_metric(out, "nserver_cache_evictions_total", "counter",
                  "File-cache evictions.", s.cache_evictions);
    append_metric(out, "nserver_cache_invalidations_total", "counter",
                  "Entries dropped because the on-disk file changed.",
                  s.cache_invalidations);
    append_metric(out, "nserver_cache_bytes", "gauge",
                  "Bytes currently cached.", s.cache_bytes);
    append_metric(out, "nserver_cache_capacity_bytes", "gauge",
                  "Cache capacity.", s.cache_capacity_bytes);
    append_metric(out, "nserver_cache_entries", "gauge",
                  "Cached objects.", s.cache_entries);
    append_gauge_f(out, "nserver_cache_hit_rate",
                   "hits / (hits + misses) over the server's lifetime.",
                   c.cache_hit_rate);
  }
  if (!s.shards.empty()) {
    char buf[256];
    out += "# HELP nserver_shard_accepts_total Connections dispatched to "
           "this shard (round-robin).\n# TYPE nserver_shard_accepts_total "
           "counter\n";
    for (const auto& sh : s.shards) {
      std::snprintf(buf, sizeof(buf),
                    "nserver_shard_accepts_total{shard=\"%" PRIu64 "\"} %"
                    PRIu64 "\n",
                    sh.shard, sh.accepts);
      out += buf;
    }
    out += "# HELP nserver_shard_connections_open Connections this shard "
           "currently owns.\n# TYPE nserver_shard_connections_open gauge\n";
    for (const auto& sh : s.shards) {
      std::snprintf(buf, sizeof(buf),
                    "nserver_shard_connections_open{shard=\"%" PRIu64 "\"} %"
                    PRIu64 "\n",
                    sh.shard, sh.connections_open);
      out += buf;
    }
  }
  if (s.has_overload) {
    const auto& o = s.overload;
    out += "# HELP cops_overload_pressure Resource pressure (0-1), per "
           "monitor and overall.\n# TYPE cops_overload_pressure gauge\n";
    char buf[256];
    for (const auto& m : o.monitors) {
      std::snprintf(buf, sizeof(buf),
                    "cops_overload_pressure{monitor=\"%s\"} %.6f\n",
                    m.name.c_str(), m.smoothed);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "cops_overload_pressure{monitor=\"overall\"} %.6f\n",
                  o.pressure);
    out += buf;
    append_metric(out, "cops_overload_tier", "gauge",
                  "Active overload action tier (0=none 1=conserve "
                  "2=pause-low-prio 3=shed 4=stop-accept).",
                  static_cast<uint64_t>(o.tier));
    append_metric(out, "cops_overload_retry_after_seconds", "gauge",
                  "Retry-After currently advertised on shed 503s.",
                  static_cast<uint64_t>(o.retry_after.count()));
    append_metric(out, "cops_overload_accept_stopped", "gauge",
                  "1 while the top tier holds the acceptor suspended.",
                  o.accept_stopped ? 1 : 0);
  }
  append_stage_histograms(out, c.stages);
  return out;
}

std::string render_json(const StatsSnapshot& s) {
  std::string out;
  out.reserve(4096);
  const auto& c = s.counters;
  out += "{";
  append_json_field(out, "connections_accepted", c.connections_accepted);
  append_json_field(out, "connections_closed", c.connections_closed);
  append_json_field(out, "connections_rejected", c.connections_rejected);
  append_json_field(out, "bytes_read", c.bytes_read);
  append_json_field(out, "bytes_sent", c.bytes_sent);
  append_json_field(out, "requests", c.requests_decoded);
  append_json_field(out, "replies", c.replies_sent);
  append_json_field(out, "decode_errors", c.decode_errors);
  append_json_field(out, "events_processed", c.events_processed);
  append_json_field(out, "idle_shutdowns", c.idle_shutdowns);
  append_json_field(out, "header_timeouts", c.header_timeouts);
  append_json_field(out, "overload_suspensions", c.overload_suspensions);
  append_json_field(out, "requests_shed", c.requests_shed);
  append_json_field(out, "per_ip_rejections", c.per_ip_rejections);
  append_json_field(out, "send_writev_calls", c.send_writev_calls);
  append_json_field(out, "send_bytes_copied", c.send_bytes_copied);
  append_json_field(out, "send_sendfile_bytes", c.send_sendfile_bytes);
  append_json_field(out, "pool_hits", c.pool_hits);
  append_json_field(out, "pool_misses", c.pool_misses);
  append_json_field(out, "alloc_bytes", c.pool_alloc_bytes);
  append_json_field(out, "alloc_live_bytes", c.pool_live_bytes);
  append_json_field(out, "connections_open", s.connections_open);
  append_json_field(out, "queue_depth", s.queue_depth);
  append_json_field(out, "processor_threads", s.processor_threads);
  append_json_field(out, "file_io_pending", s.file_io_pending);
  if (s.has_cache) {
    out += "\"cache\":{";
    append_json_field(out, "hits", s.cache_hits);
    append_json_field(out, "misses", s.cache_misses);
    append_json_field(out, "evictions", s.cache_evictions);
    append_json_field(out, "invalidations", s.cache_invalidations);
    append_json_field(out, "bytes", s.cache_bytes);
    append_json_field(out, "capacity_bytes", s.cache_capacity_bytes);
    append_json_field(out, "entries", s.cache_entries, false);
    out += "},";
  }
  out += "\"shards\":[";
  for (size_t i = 0; i < s.shards.size(); ++i) {
    const auto& sh = s.shards[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"shard\":%" PRIu64 ",\"accepts\":%" PRIu64
                  ",\"connections_open\":%" PRIu64 "}%s",
                  sh.shard, sh.accepts, sh.connections_open,
                  i + 1 < s.shards.size() ? "," : "");
    out += buf;
  }
  out += "],";
  if (s.has_overload) {
    const auto& o = s.overload;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"overload\":{\"pressure\":%.6f,\"tier\":%d,"
                  "\"tier_name\":\"%s\",\"retry_after_s\":%lld,"
                  "\"conserving\":%s,\"low_priority_paused\":%s,"
                  "\"shedding\":%s,\"accept_stopped\":%s,\"monitors\":[",
                  o.pressure, static_cast<int>(o.tier), to_string(o.tier),
                  static_cast<long long>(o.retry_after.count()),
                  o.conserving ? "true" : "false",
                  o.low_priority_paused ? "true" : "false",
                  o.shedding ? "true" : "false",
                  o.accept_stopped ? "true" : "false");
    out += buf;
    for (size_t i = 0; i < o.monitors.size(); ++i) {
      const auto& m = o.monitors[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"raw\":%.6f,\"pressure\":%.6f,"
                    "\"smoothed\":%.6f}%s",
                    json_escape(m.name).c_str(), m.raw, m.pressure,
                    m.smoothed, i + 1 < o.monitors.size() ? "," : "");
      out += buf;
    }
    out += "]},";
  }
  out += "\"stages\":{";
  for (size_t i = 0; i < kStageCount; ++i) {
    const Histogram& h = c.stages[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%" PRIu64
                  ",\"mean_us\":%.1f,\"p50_us\":%lld,\"p99_us\":%lld,"
                  "\"max_us\":%lld}%s",
                  to_string(static_cast<Stage>(i)), h.count(),
                  h.mean_micros(),
                  static_cast<long long>(h.quantile_micros(0.5)),
                  static_cast<long long>(h.quantile_micros(0.99)),
                  static_cast<long long>(h.max_micros()),
                  i + 1 < kStageCount ? "," : "");
    out += buf;
  }
  out += "},\"connections\":[";
  for (size_t i = 0; i < s.connections.size(); ++i) {
    const auto& conn = s.connections[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%" PRIu64 ",\"peer\":\"%s\",\"bytes_read\":%" PRIu64
                  ",\"bytes_sent\":%" PRIu64 ",\"requests\":%" PRIu64 "}%s",
                  conn.id, json_escape(conn.peer).c_str(), conn.bytes_read,
                  conn.bytes_sent, conn.requests,
                  i + 1 < s.connections.size() ? "," : "");
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace cops::nserver

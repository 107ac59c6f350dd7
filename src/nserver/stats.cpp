#include "nserver/stats.hpp"

#include <cstdio>

namespace cops::nserver {
namespace {

// A JSON string or a Prometheus label value, quotes included.
std::string quoted(std::string_view text, MetricsFormat format) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n' && format == MetricsFormat::kPrometheus) {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20 &&
               format == MetricsFormat::kJson) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

}  // namespace

std::string MetricsWriter::number(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string& MetricsWriter::family(std::string_view name,
                                   std::string_view type,
                                   std::string_view help) {
  for (auto& f : families_) {
    if (f.name == name) return f.text;
  }
  std::string text;
  if (!help.empty()) {
    text.append("# HELP ").append(name).append(" ").append(help) += '\n';
  }
  text.append("# TYPE ").append(name).append(" ").append(type) += '\n';
  families_.push_back({std::string(name), std::move(text)});
  return families_.back().text;
}

void MetricsWriter::sample(std::string& text, std::string_view name,
                           std::string_view value,
                           std::string_view labels) const {
  text += name;
  if (!row_label_.empty() || !labels.empty()) {
    text.append("{").append(row_label_);
    if (!row_label_.empty() && !labels.empty()) text += ',';
    text.append(labels) += '}';
  }
  text.append(" ").append(value) += '\n';
}

void MetricsWriter::put(std::string_view name, std::string_view key,
                        std::string_view help, std::string_view type,
                        std::string_view prometheus, std::string_view json,
                        std::string_view labels) {
  if (format_ == MetricsFormat::kJson && !key.empty()) {
    json_.append(first_ ? "\"" : ",\"").append(key).append("\":").append(json);
    first_ = false;
  } else if (format_ == MetricsFormat::kPrometheus && !name.empty()) {
    sample(family(name, type, help), name, prometheus, labels);
  }
}

void MetricsWriter::json_string(std::string_view key, std::string_view value) {
  put({}, key, {}, {}, {}, quoted(value, MetricsFormat::kJson));
}

void MetricsWriter::prometheus_histogram(std::string_view name,
                                         std::string_view help,
                                         const Histogram& histogram) {
  if (format_ != MetricsFormat::kPrometheus) return;
  std::string& text = family(name, "histogram", help);
  const std::string bucket = std::string(name) + "_bucket";
  uint64_t cumulative = 0;
  int64_t prev_upper = -1;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t in_bucket = histogram.bucket_count(b);
    cumulative += in_bucket;
    const int64_t upper = Histogram::bucket_upper_micros(b);
    // Log2 buckets repeat the upper bound at the low end (1us); emit each
    // distinct bound once, and skip empty interior ones to keep the
    // exposition small (cumulative counts stay correct).
    if (upper == prev_upper) continue;
    prev_upper = upper;
    if (in_bucket == 0 && b + 1 < Histogram::kNumBuckets) continue;
    sample(text, bucket, number(cumulative),
           "le=\"" + number(static_cast<double>(upper) / 1e6) + "\"");
  }
  sample(text, bucket, number(histogram.count()), "le=\"+Inf\"");
  sample(text, std::string(name) + "_sum",
         number(static_cast<double>(histogram.sum_micros()) / 1e6));
  sample(text, std::string(name) + "_count", number(histogram.count()));
}

void MetricsWriter::begin_object(std::string_view key) {
  put({}, key, {}, {}, {}, "{");
  first_ = true;
}

void MetricsWriter::end_object() {
  if (format_ == MetricsFormat::kJson) json_ += '}';
  first_ = false;
}

void MetricsWriter::begin_table(std::string_view key, std::string_view label,
                                std::string_view row_key) {
  label_ = label;
  row_key_ = row_key;
  put({}, key, {}, {}, {}, row_key_.empty() ? "{" : "[");
  first_ = true;
}

void MetricsWriter::open_row(std::string_view id, bool is_string) {
  if (format_ == MetricsFormat::kPrometheus) {
    row_label_ = label_ + "=" + quoted(id, format_);
    return;
  }
  const std::string text = is_string ? quoted(id, format_) : std::string(id);
  json_ += in_row_ ? "}," : "";
  in_row_ = first_ = true;
  if (row_key_.empty()) {
    json_.append(text).append(":{");
  } else {
    json_ += '{';
    put({}, row_key_, {}, {}, {}, text);
  }
}

void MetricsWriter::end_table() {
  row_label_.clear();
  if (format_ != MetricsFormat::kJson) return;
  json_.append(in_row_ ? "}" : "").append(row_key_.empty() ? "}" : "]");
  in_row_ = first_ = false;
}

std::string MetricsWriter::finish() {
  if (format_ == MetricsFormat::kJson) return "{" + json_ + "}";
  std::string out;
  for (const auto& f : families_) out += f.text;
  return out;
}

void write_overload(MetricsWriter& w, std::string_view prefix,
                    const OverloadSnapshot& o) {
  const std::string p(prefix);
  const std::string pressure = p + "pressure";
  w.begin_object("overload");
  // Prometheus: one pressure family, a sample per monitor and then the
  // overall one.  JSON: the overall pressure opens the object and the
  // monitor rows close it.
  w.prometheus_family(pressure, "gauge",
                      "Resource pressure (0-1), per monitor and overall.");
  w.json("pressure", o.pressure);
  w.gauge(p + "tier", "tier",
          "Active overload action tier (0=none 1=conserve 2=pause-low-prio "
          "3=shed 4=stop-accept).",
          static_cast<uint64_t>(o.tier));
  w.json_string("tier_name", to_string(o.tier));
  w.gauge(p + "retry_after_seconds", "retry_after_s",
          "Retry-After currently advertised on shed 503s.",
          static_cast<uint64_t>(o.retry_after.count()));
  w.json_flag("conserving", o.conserving);
  w.json_flag("low_priority_paused", o.low_priority_paused);
  w.json_flag("shedding", o.shedding);
  w.flag(p + "accept_stopped", "accept_stopped",
         "1 while the top tier holds the acceptor suspended.",
         o.accept_stopped);
  w.begin_table("monitors", "monitor", "name");
  for (const auto& m : o.monitors) {
    w.row(m.name);
    w.json("raw", m.raw);
    w.json("pressure", m.pressure);
    w.gauge(pressure, "smoothed", {}, m.smoothed);
  }
  w.end_table();
  w.prometheus_gauge(pressure, {}, o.pressure, "monitor=\"overall\"");
  w.end_object();
}

void write_stats(MetricsWriter& w, const StatsSnapshot& s) {
  const auto& c = s.counters;
  w.counter("nserver_connections_accepted_total", "connections_accepted",
            "Connections accepted (O11).", c.connections_accepted);
  w.counter("nserver_connections_closed_total", "connections_closed",
            "Connections closed.", c.connections_closed);
  w.counter("nserver_connections_rejected_total", "connections_rejected",
            "Connections rejected by the max-connections limiter (O9).",
            c.connections_rejected);
  w.counter("nserver_bytes_read_total", "bytes_read",
            "Bytes read from client sockets.", c.bytes_read);
  w.counter("nserver_bytes_sent_total", "bytes_sent",
            "Bytes written to client sockets.", c.bytes_sent);
  w.counter("nserver_requests_total", "requests", "Requests decoded.",
            c.requests_decoded);
  w.counter("nserver_replies_total", "replies", "Replies fully sent.",
            c.replies_sent);
  w.counter("nserver_decode_errors_total", "decode_errors",
            "Malformed requests.", c.decode_errors);
  w.counter("nserver_events_processed_total", "events_processed",
            "Events run by the Event Processor.", c.events_processed);
  w.counter("nserver_idle_shutdowns_total", "idle_shutdowns",
            "Connections reaped by the idle timer (O7).", c.idle_shutdowns);
  w.counter("nserver_header_timeouts_total", "header_timeouts",
            "Connections reaped mid-request by the slowloris timer.",
            c.header_timeouts);
  w.counter("nserver_overload_suspensions_total", "overload_suspensions",
            "Acceptor suspensions by the overload controller (O9).",
            c.overload_suspensions);
  w.counter("nserver_requests_shed_total", "requests_shed",
            "Requests answered 503 by the overload shed tier (O9).",
            c.requests_shed);
  w.counter("nserver_per_ip_rejections_total", "per_ip_rejections",
            "Accepts rejected by the per-IP connection cap.",
            c.per_ip_rejections);
  w.counter("cops_send_writev_calls_total", "send_writev_calls",
            "Completed scatter-gather writev calls on the send path.",
            c.send_writev_calls);
  w.counter("cops_send_bytes_copied_total", "send_bytes_copied",
            "Reply bytes materialised into owned buffers before send.",
            c.send_bytes_copied);
  w.counter("cops_send_sendfile_bytes_total", "send_sendfile_bytes",
            "Reply bytes moved by sendfile(2) (files >= 256 KiB).",
            c.send_sendfile_bytes);
  w.counter("cops_pool_hits_total", "pool_hits",
            "Pool allocations served from a free-list.", c.pool_hits);
  w.counter("cops_pool_misses_total", "pool_misses",
            "Pool allocations that had to grow the pool.", c.pool_misses);
  w.counter("cops_alloc_bytes_total", "alloc_bytes",
            "Heap bytes acquired by the request-path pools.",
            c.pool_alloc_bytes);
  w.gauge("cops_alloc_live_bytes", "alloc_live_bytes",
          "Heap bytes the request-path pools hold now.", c.pool_live_bytes);
  w.gauge("nserver_connections_open", "connections_open",
          "Currently open connections.", s.connections_open);
  w.gauge("nserver_processor_queue_depth", "queue_depth",
          "Events waiting in the processor queue.", s.queue_depth);
  w.gauge("nserver_processor_threads", "processor_threads",
          "Event-processor worker threads.", s.processor_threads);
  w.gauge("nserver_file_io_pending", "file_io_pending",
          "Pending emulated non-blocking file reads (O4).", s.file_io_pending);
  if (s.has_cache) {
    w.begin_object("cache");
    w.counter("nserver_cache_hits_total", "hits", "File-cache hits (O6).",
              s.cache_hits);
    w.counter("nserver_cache_misses_total", "misses", "File-cache misses.",
              s.cache_misses);
    w.counter("nserver_cache_evictions_total", "evictions",
              "File-cache evictions.", s.cache_evictions);
    w.counter("nserver_cache_invalidations_total", "invalidations",
              "Entries dropped because the on-disk file changed.",
              s.cache_invalidations);
    w.gauge("nserver_cache_bytes", "bytes", "Bytes currently cached.",
            s.cache_bytes);
    w.gauge("nserver_cache_capacity_bytes", "capacity_bytes",
            "Cache capacity.", s.cache_capacity_bytes);
    w.gauge("nserver_cache_entries", "entries", "Cached objects.",
            s.cache_entries);
    w.prometheus_gauge("nserver_cache_hit_rate",
                       "hits / (hits + misses) over the server's lifetime.",
                       c.cache_hit_rate);
    w.end_object();
  }
  w.begin_table("shards", "shard", "shard");
  for (const auto& shard : s.shards) {
    w.row(shard.shard);
    w.counter("nserver_shard_accepts_total", "accepts",
              "Connections dispatched to this shard (round-robin).",
              shard.accepts);
    w.gauge("nserver_shard_connections_open", "connections_open",
            "Connections this shard currently owns.", shard.connections_open);
  }
  w.end_table();
  if (s.has_overload) write_overload(w, "cops_overload_", s.overload);
  w.begin_table("stages", "stage");
  for (size_t i = 0; i < kStageCount; ++i) {
    const Histogram& h = c.stages[i];
    w.row(to_string(static_cast<Stage>(i)));
    w.prometheus_histogram("nserver_stage_latency_seconds",
                           "Request-cycle stage latency.", h);
    w.json("count", h.count());
    w.json("mean_us", h.mean_micros(), 1);
    w.json("p50_us", static_cast<uint64_t>(h.quantile_micros(0.5)));
    w.json("p99_us", static_cast<uint64_t>(h.quantile_micros(0.99)));
    w.json("max_us", static_cast<uint64_t>(h.max_micros()));
  }
  w.end_table();
  w.begin_table("connections", "connection", "id");
  for (const auto& conn : s.connections) {
    w.row(conn.id);
    w.json_string("peer", conn.peer);
    w.json("bytes_read", conn.bytes_read);
    w.json("bytes_sent", conn.bytes_sent);
    w.json("requests", conn.requests);
  }
  w.end_table();
}

std::string render_prometheus(const StatsSnapshot& snapshot) {
  MetricsWriter writer(MetricsFormat::kPrometheus);
  write_stats(writer, snapshot);
  return writer.finish();
}

}  // namespace cops::nserver

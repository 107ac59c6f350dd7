#include "nserver/options.hpp"

namespace cops::nserver {

const char* to_string(CompletionMode mode) {
  return mode == CompletionMode::kAsynchronous ? "Asynchronous" : "Synchronous";
}

const char* to_string(ThreadAllocation alloc) {
  return alloc == ThreadAllocation::kStatic ? "Static" : "Dynamic";
}

const char* to_string(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kNone: return "None";
    case CachePolicyKind::kLru: return "LRU";
    case CachePolicyKind::kLfu: return "LFU";
    case CachePolicyKind::kLruMin: return "LRU-MIN";
    case CachePolicyKind::kLruThreshold: return "LRU-Threshold";
    case CachePolicyKind::kHyperG: return "Hyper-G";
    case CachePolicyKind::kCustom: return "Custom";
  }
  return "?";
}

const char* to_string(ServerMode mode) {
  return mode == ServerMode::kProduction ? "Production" : "Debug";
}

const char* to_string(StatsExport mode) {
  return mode == StatsExport::kNone ? "None" : "AdminHttp";
}

const char* to_string(BodyFraming framing) {
  return framing == BodyFraming::kContentLength ? "ContentLength" : "Chunked";
}

const char* to_string(UpstreamMode mode) {
  return mode == UpstreamMode::kPerRequest ? "PerRequest" : "Pooled";
}

const char* to_string(OverloadMode mode) {
  return mode == OverloadMode::kWatermark ? "Watermark" : "Adaptive";
}

const char* to_string(IoBackend) { return "Epoll"; }

std::string ServerOptions::validate() const {
  if (dispatcher_threads < 1) {
    return "O1: dispatcher_threads must be >= 1";
  }
  if (separate_processor_pool && processor_threads == 0 &&
      thread_allocation == ThreadAllocation::kStatic) {
    return "O2/O5: a static separate processor pool needs >= 1 thread";
  }
  if (!separate_processor_pool && event_scheduling) {
    return "O2/O8: event scheduling requires a separate processor pool "
           "(events must queue to be reordered)";
  }
  if (!separate_processor_pool &&
      completion == CompletionMode::kSynchronous &&
      !allow_blocking_dispatcher) {
    return "O2/O4: synchronous completions would block the dispatcher; "
           "use a separate processor pool or asynchronous completions";
  }
  if (thread_allocation == ThreadAllocation::kDynamic &&
      (min_processor_threads == 0 ||
       min_processor_threads > max_processor_threads)) {
    return "O5: dynamic allocation needs 1 <= min <= max processor threads";
  }
  if (completion == CompletionMode::kAsynchronous && file_io_threads == 0) {
    return "O4: asynchronous completions need >= 1 file I/O thread";
  }
  if (cache_policy != CachePolicyKind::kNone && cache_capacity_bytes == 0) {
    return "O6: file cache enabled with zero capacity";
  }
  if (event_scheduling && priority_quotas.empty()) {
    return "O8: event scheduling needs at least one priority level";
  }
  if (overload_control &&
      queue_low_watermark >= queue_high_watermark) {
    return "O9: low watermark must be below the high watermark";
  }
  if (overload_control && queue_low_watermark == 0) {
    // Accept resumes once every queue drops *below* the low watermark; no
    // length is below 0, so a trip would suspend accept for good.
    return "O9: low watermark must be at least 1";
  }
  if (shutdown_long_idle && idle_timeout.count() <= 0) {
    return "O7: idle timeout must be positive";
  }
  if (header_read_timeout.count() < 0) {
    return "O7: header read timeout must be >= 0";
  }
  if (overload_shed && !overload_control) {
    return "O9: overload_shed requires overload_control";
  }
  if (overload_shed && overload_retry_after.count() <= 0) {
    return "O9: overload_retry_after must be positive";
  }
  if (overload_mode == OverloadMode::kAdaptive) {
    if (!overload_control) {
      return "overload: adaptive mode requires overload_control";
    }
    if (overload_target_delay.count() <= 0 || overload_interval.count() <= 0) {
      return "overload: adaptive mode needs positive target delay and "
             "interval (CoDel parameters)";
    }
    if (overload_ewma_alpha <= 0.0 || overload_ewma_alpha > 1.0) {
      return "overload: EWMA alpha must be in (0, 1]";
    }
    if (overload_hysteresis < 0.0 || overload_hysteresis >= 0.5) {
      return "overload: hysteresis must be in [0, 0.5)";
    }
    if (overload_retry_after_max < overload_retry_after) {
      return "overload: overload_retry_after_max must be >= "
             "overload_retry_after";
    }
  }
  if (body_framing == BodyFraming::kChunked && reply_chunk_bytes == 0) {
    return "body_framing: chunked replies need a positive chunk window "
           "(reply_chunk_bytes)";
  }
  if (upstream_mode == UpstreamMode::kPooled && upstream_pool_cap == 0) {
    return "upstream_mode: pooled upstream connections need a positive "
           "per-backend cap (upstream_pool_cap)";
  }
  if (stats_export == StatsExport::kAdminHttp && !profiling) {
    return "O11+: the admin export serves the profiler's statistics; "
           "enable profiling";
  }
  return {};
}

}  // namespace cops::nserver

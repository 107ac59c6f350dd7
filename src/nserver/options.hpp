// ServerOptions — the runtime image of the N-Server pattern template options
// (Table 1 of the paper).
//
// In CO₂P₃S the options are chosen in the pattern GUI and the framework is
// *generated* with feature code included or excluded.  In this library the
// same twelve options configure the framework at construction time; the
// copsgen generator (src/gdp) emits a scaffold that pins them as constants
// (plus a constexpr traits header used by the generative-vs-dynamic ablation
// bench).  Option numbering follows Table 1.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cops::nserver {

// O4: how slow operations (file I/O, ...) complete.
enum class CompletionMode {
  kAsynchronous,  // proactor emulation: worker pool + completion events
  kSynchronous,   // hooks block their event-processor thread
};

// O5: event-processor thread allocation.
enum class ThreadAllocation {
  kStatic,   // fixed pool size
  kDynamic,  // ProcessorController resizes the pool with load
};

// O6: file cache replacement policies (five built in + custom hook).
enum class CachePolicyKind {
  kNone,
  kLru,
  kLfu,
  kLruMin,
  kLruThreshold,
  kHyperG,
  kCustom,
};

// O10: generation mode.
enum class ServerMode {
  kProduction,
  kDebug,  // every internal event is traced to a file
};

// O11+: how the profiler's statistics are exported.
enum class StatsExport {
  kNone,       // in-process snapshot() only
  kAdminHttp,  // second listener serving /stats, /stats.json, /healthz
};

// Overload-control option (S5, appended after O11+ to preserve the paper's
// option numbering): which monitors and tiers the O9 OverloadManager runs.
// kWatermark is the paper's static two-watermark gate on queue *length*
// (make_watermark_manager): stop accept, and shed
// when overload_shed is on.  kAdaptive uses CoDel-style admission on
// measured queue *delay* plus connection / pool / heap pressure monitors,
// EWMA smoothing, and graduated actions (conserve timeouts → pause
// low-priority quota classes → shed 503 → stop accept) instead of the
// single suspend/resume lever.
enum class OverloadMode {
  kWatermark,
  kAdaptive,
};

// Epoll is the only I/O backend; the benchmark's environment line reads it.
enum class IoBackend {
  kEpoll,
};

[[nodiscard]] const char* to_string(IoBackend backend);

struct ServerOptions {
  // O1: # of dispatcher threads (1, or 2..N reactors sharding connections).
  int dispatcher_threads = 1;

  // O2: separate thread pool for event handling.  When false the dispatcher
  // processes events inline (classic single-threaded Reactor / SPED).
  bool separate_processor_pool = true;
  size_t processor_threads = 2;

  // O3: encoding/decoding required.  When false the Decode and Encode steps
  // are skipped (Fig. 2 structural variant) and handle() sees raw bytes.
  bool encode_decode = true;

  // O4: completion events.
  CompletionMode completion = CompletionMode::kAsynchronous;
  size_t file_io_threads = 2;  // proactor-emulation pool (async mode)
  // Opt-in for the SPED combination (no separate pool + synchronous
  // completions): every hook, including blocking file I/O, runs inline on
  // the dispatcher thread.  Rejected by default because one slow request
  // stalls the whole event loop; the deterministic sim harness requires it
  // precisely because it serialises everything onto one thread.
  bool allow_blocking_dispatcher = false;

  // O5: event thread allocation.
  ThreadAllocation thread_allocation = ThreadAllocation::kStatic;
  size_t min_processor_threads = 1;
  size_t max_processor_threads = 8;

  // O6: file cache.
  CachePolicyKind cache_policy = CachePolicyKind::kNone;
  size_t cache_capacity_bytes = 20 * 1024 * 1024;  // paper: 20 MB for COPS-HTTP
  size_t cache_size_threshold = 64 * 1024;         // LRU-Threshold parameter
  // How long a cached entry may be served before its on-disk mtime/size are
  // re-checked (0 = every lookup re-checks).
  std::chrono::milliseconds cache_revalidate_interval{1000};

  // O7: shutdown long-idle connections.
  bool shutdown_long_idle = false;
  std::chrono::milliseconds idle_timeout{30'000};
  // O7 extension (slowloris defense): a separate, shorter deadline for a
  // connection that has sent *part* of a request (bytes buffered, nothing
  // parseable yet) — stuck mid-request-line/headers.  Distinct from the
  // keep-alive idle timeout above, which only covers quiet-between-requests
  // connections.  0 = disabled.  Works independently of O7.
  std::chrono::milliseconds header_read_timeout{0};

  // O8: event scheduling.
  bool event_scheduling = false;
  // quotas[i] = events level i may consume per scheduling round (level 0 is
  // the highest priority).
  std::vector<size_t> priority_quotas = {8, 1};

  // O9: overload control.
  bool overload_control = false;
  size_t queue_high_watermark = 20;  // paper's Fig. 6 settings
  size_t queue_low_watermark = 5;
  size_t max_connections = 0;  // 0 = unlimited (mechanism 1 disabled)
  // O9 shed tier: while overloaded, answer protocol requests with an
  // explicit rejection (HTTP: 503 + Retry-After) instead of only suspending
  // accept — upstream load balancers then see overload as a fast, countable
  // signal rather than hung connects.  Requires overload_control.
  bool overload_shed = false;
  std::chrono::seconds overload_retry_after{1};  // advertised Retry-After
  // Per-client-IP connection cap enforced at accept (0 = off); rejected
  // accepts are counted and closed immediately.
  size_t max_connections_per_ip = 0;

  // O10: mode.
  ServerMode mode = ServerMode::kProduction;
  std::string debug_trace_path = "nserver_debug_trace.log";

  // O11: performance profiling.
  bool profiling = false;

  // O11+: statistics export.  kAdminHttp binds a second listener (on the
  // shard-0 dispatcher — no extra thread) serving the profiler's counters
  // and stage histograms in Prometheus text (/stats), JSON (/stats.json),
  // and a liveness probe (/healthz).  Requires profiling.
  StatsExport stats_export = StatsExport::kNone;
  std::string admin_host = "127.0.0.1";
  uint16_t admin_port = 0;  // 0 = kernel-assigned

  // O12: logging.
  bool logging = false;

  // Overload-control option (S5, appended after O12).  Only
  // meaningful with overload_control on; see enum OverloadMode.
  OverloadMode overload_mode = OverloadMode::kWatermark;
  // kAdaptive only — CoDel admission parameters: the control loop sheds
  // when the *minimum* event-queue delay over the trailing interval holds
  // above the target (a standing queue, not a burst).
  std::chrono::milliseconds overload_target_delay{5};
  std::chrono::milliseconds overload_interval{100};
  // kAdaptive only: per-monitor EWMA weight (0 < alpha <= 1) and tier
  // hysteresis (each action releases at its engage threshold minus this).
  double overload_ewma_alpha = 0.3;
  double overload_hysteresis = 0.10;
  // kAdaptive only: upper clamp for the pressure-decay-derived Retry-After
  // on shed 503s (the lower clamp is overload_retry_after).
  std::chrono::seconds overload_retry_after_max{30};
  // kAdaptive only: heap budget for the pool-allocated-bytes monitor
  // (0 disables that monitor).
  size_t overload_max_heap_bytes = 0;

  // Not an option: the benchmark's environment line reads it.
  static constexpr IoBackend io_backend = IoBackend::kEpoll;

  // --- non-option runtime knobs -----------------------------------------
  std::string listen_host = "127.0.0.1";
  uint16_t listen_port = 0;  // 0 = kernel-assigned
  int listen_backlog = 512;
  std::chrono::milliseconds housekeeping_interval{200};

  // Validates cross-option constraints; returns an empty string when valid,
  // else a description of the violation.
  [[nodiscard]] std::string validate() const;
};

}  // namespace cops::nserver
